"""Golden streams: committed bytes must be reproducible end to end."""
import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from streetwatch.jsonl import decode_alarm_event, decode_tracked_object, decode_truth_record, read_records
from streetwatch.evaluation import score

GOLDEN = Path(__file__).parent / "golden"
SCENARIOS = ["single-crosser", "approach-head-on"]


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "streetwatch", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("name", SCENARIOS)
def test_simulation_reproduces_the_committed_streams(tmp_path, name):
    det = tmp_path / "detections.jsonl"
    truth = tmp_path / "truth.jsonl"
    run_cli("simulate", "--suite", name, "--out-detections", str(det), "--out-truth", str(truth))
    assert det.read_bytes() == (GOLDEN / f"{name}.detections.jsonl").read_bytes()
    assert truth.read_bytes() == (GOLDEN / f"{name}.truth.jsonl").read_bytes()


@pytest.mark.parametrize("name", SCENARIOS)
def test_replay_reproduces_the_committed_streams(tmp_path, name):
    tracked = tmp_path / "tracked.jsonl"
    events = tmp_path / "events.jsonl"
    run_cli(
        "replay", str(GOLDEN / f"{name}.detections.jsonl"),
        "--out-tracked", str(tracked), "--out-events", str(events),
    )
    assert tracked.read_bytes() == (GOLDEN / f"{name}.tracked.jsonl").read_bytes()
    assert events.read_bytes() == (GOLDEN / f"{name}.events.jsonl").read_bytes()


@pytest.mark.parametrize("name", SCENARIOS)
def test_committed_streams_score_perfectly(name):
    tracked = list(read_records(GOLDEN / f"{name}.tracked.jsonl", decode_tracked_object))
    truth = list(read_records(GOLDEN / f"{name}.truth.jsonl", decode_truth_record))
    report = score(tracked, truth)
    assert report.category_accuracy == 1.0
    assert report.direction_accuracy_overall == 1.0
    assert report.id_switches == 0


def test_committed_event_sequences():
    single = list(read_records(GOLDEN / "single-crosser.events.jsonl", decode_alarm_event))
    assert [(e.t_ms, e.stage, e.message) for e in single] == [
        (0, 1, "Car ahead"),
        (1500, 1, "Car moving right"),
        (3000, 1, "Car moving right"),
    ]
    approach = list(read_records(GOLDEN / "approach-head-on.events.jsonl", decode_alarm_event))
    # the walker reaches each band's far edge exactly at 600, 300 and 150 cm
    assert [(e.t_ms, e.stage, round(e.distance_cm, 6)) for e in approach] == [
        (2000, 1, 600.0),
        (5000, 2, 300.0),
        (6500, 3, 150.0),
    ]
    assert all(e.message == "Person moving forward" for e in approach)


# sha256 of the `eval --report` file for each committed tracked/truth pair:
# the report's key order, indentation and number forms are part of its output
EVAL_REPORT_DIGESTS = {
    "single-crosser": "977a3174c88e731713340c224b3fd253d76fe068f70da4941db2191f6bc1b263",
    "approach-head-on": "9315a1c6ffd18c1e4219f555661a58ae13229591e376275e836460808cb3facb",
}


@pytest.mark.parametrize("name", SCENARIOS)
def test_eval_report_bytes_are_pinned(tmp_path, name):
    report = tmp_path / "report.json"
    run_cli(
        "eval", str(GOLDEN / f"{name}.tracked.jsonl"), str(GOLDEN / f"{name}.truth.jsonl"),
        "--report", str(report),
    )
    assert hashlib.sha256(report.read_bytes()).hexdigest() == EVAL_REPORT_DIGESTS[name]
