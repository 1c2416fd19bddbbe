"""Command-line behavior through real subprocesses: outputs and exit codes."""
import json
import subprocess
import sys

import pytest

from streetwatch.jsonl import (
    encode_detection_frame,
    read_alarm_events,
    read_detection_frames,
    read_tracked_objects,
    write_lines,
)
from streetwatch.simulator import generate, scenario_by_name, scenario_to_dict

from conftest import make_det, make_frame


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "streetwatch", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def simulate(tmp_path, name="single-crosser", extra=()):
    det = tmp_path / "detections.jsonl"
    truth = tmp_path / "truth.jsonl"
    proc = run_cli(
        "simulate", "--suite", name,
        "--out-detections", str(det), "--out-truth", str(truth), *extra,
    )
    assert proc.returncode == 0, proc.stderr
    return det, truth, proc


def test_simulate_suite_scenario(tmp_path):
    det, truth, proc = simulate(tmp_path)
    assert "scenario: single-crosser" in proc.stdout
    assert "frames: 40" in proc.stdout
    assert "emitted detections: 40" in proc.stdout
    frames = read_detection_frames(det)
    assert len(frames) == 40
    assert truth.read_text(encoding="utf-8").count("\n") == 40


def test_simulate_unknown_suite_name(tmp_path):
    proc = run_cli(
        "simulate", "--suite", "wat",
        "--out-detections", str(tmp_path / "d.jsonl"), "--out-truth", str(tmp_path / "t.jsonl"),
    )
    assert proc.returncode == 1
    assert "error:" in proc.stderr
    assert "wat" in proc.stderr


def test_simulate_scenario_file_with_seed_override(tmp_path):
    spec = scenario_by_name("single-crosser")
    data = scenario_to_dict(spec)
    data["noise"]["center_jitter_px"] = 2.0
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(data), encoding="utf-8")

    det_a = tmp_path / "a.jsonl"
    det_b = tmp_path / "b.jsonl"
    truth_a = tmp_path / "ta.jsonl"
    truth_b = tmp_path / "tb.jsonl"
    proc = run_cli("simulate", str(scenario_path), "--out-detections", str(det_a), "--out-truth", str(truth_a))
    assert proc.returncode == 0, proc.stderr
    proc = run_cli(
        "simulate", str(scenario_path), "--seed", "9",
        "--out-detections", str(det_b), "--out-truth", str(truth_b),
    )
    assert proc.returncode == 0, proc.stderr
    assert det_a.read_bytes() != det_b.read_bytes()
    # the seed only moves the noise, never the truth
    assert truth_a.read_bytes() == truth_b.read_bytes()


def test_simulate_rejects_bad_scenario_json(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text("{", encoding="utf-8")
    proc = run_cli(
        "simulate", str(scenario_path),
        "--out-detections", str(tmp_path / "d.jsonl"), "--out-truth", str(tmp_path / "t.jsonl"),
    )
    assert proc.returncode == 1
    assert "invalid JSON" in proc.stderr


def test_simulate_rejects_invalid_scenario_values(tmp_path):
    spec = scenario_to_dict(scenario_by_name("single-crosser"))
    spec["actors"][0]["trajectory"]["z0_cm"] = -50.0
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = run_cli(
        "simulate", str(scenario_path),
        "--out-detections", str(tmp_path / "d.jsonl"), "--out-truth", str(tmp_path / "t.jsonl"),
    )
    assert proc.returncode == 1
    assert "actor 0" in proc.stderr


def test_replay_produces_tracks_and_events(tmp_path):
    det, _, _ = simulate(tmp_path)
    tracked = tmp_path / "tracked.jsonl"
    events = tmp_path / "events.jsonl"
    proc = run_cli("replay", str(det), "--out-tracked", str(tracked), "--out-events", str(events))
    assert proc.returncode == 0, proc.stderr
    assert "frames: 40" in proc.stdout
    assert "stage 1 events: 3" in proc.stdout
    assert "total events: 3" in proc.stdout
    objs = read_tracked_objects(tracked)
    assert len(objs) == 40
    assert {o.object_id for o in objs} == {0}
    evs = read_alarm_events(events)
    assert [e.t_ms for e in evs] == [0, 1500, 3000]
    assert [e.message for e in evs] == ["Car ahead", "Car moving right", "Car moving right"]


def test_replay_is_deterministic(tmp_path):
    det, _, _ = simulate(tmp_path)
    outs = []
    for tag in ("x", "y"):
        tracked = tmp_path / f"tracked-{tag}.jsonl"
        events = tmp_path / f"events-{tag}.jsonl"
        proc = run_cli("replay", str(det), "--out-tracked", str(tracked), "--out-events", str(events))
        assert proc.returncode == 0, proc.stderr
        outs.append((tracked.read_bytes(), events.read_bytes()))
    assert outs[0] == outs[1]


def test_replay_empty_input(tmp_path):
    det = tmp_path / "empty.jsonl"
    det.write_text("", encoding="utf-8")
    tracked = tmp_path / "tracked.jsonl"
    events = tmp_path / "events.jsonl"
    proc = run_cli("replay", str(det), "--out-tracked", str(tracked), "--out-events", str(events))
    assert proc.returncode == 0, proc.stderr
    assert "frames: 0" in proc.stdout
    assert tracked.read_bytes() == b""
    assert events.read_bytes() == b""


def test_replay_parse_error_cites_the_line(tmp_path):
    det, _, _ = simulate(tmp_path)
    lines = det.read_text(encoding="utf-8").splitlines()
    lines[4] = lines[4][:-1]  # chop the closing brace
    det.write_text("\n".join(lines) + "\n", encoding="utf-8")
    proc = run_cli(
        "replay", str(det),
        "--out-tracked", str(tmp_path / "t.jsonl"), "--out-events", str(tmp_path / "e.jsonl"),
    )
    assert proc.returncode == 1
    assert "line 5" in proc.stderr


def test_replay_failure_mid_stream_leaves_no_outputs(tmp_path):
    det, _, _ = simulate(tmp_path)
    lines = det.read_text(encoding="utf-8").splitlines()
    data = json.loads(lines[5])
    data["detections"][0]["bbox"]["w"] = -1.0
    lines[5] = json.dumps(data)
    det.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tracked = tmp_path / "t.jsonl"
    events = tmp_path / "e.jsonl"
    proc = run_cli("replay", str(det), "--out-tracked", str(tracked), "--out-events", str(events))
    assert proc.returncode == 1
    assert "line 6" in proc.stderr
    # five good frames were processed first; none of their lines may remain
    assert not tracked.exists()
    assert not events.exists()


def test_replay_out_of_order_stream_exits_two(tmp_path):
    frames = [
        make_frame(0, 0, [make_det("car")]),
        make_frame(2, 66, [make_det("car")]),
        make_frame(1, 99, [make_det("car")]),
    ]
    det = tmp_path / "detections.jsonl"
    write_lines(det, (encode_detection_frame(f) for f in frames))
    proc = run_cli(
        "replay", str(det),
        "--out-tracked", str(tmp_path / "t.jsonl"), "--out-events", str(tmp_path / "e.jsonl"),
    )
    assert proc.returncode == 2
    assert "frame_id 1" in proc.stderr


def test_replay_with_config_file(tmp_path):
    det, _, _ = simulate(tmp_path)
    config = tmp_path / "config.ini"
    config.write_text("[alarm]\ncooldown_ms = 0\n", encoding="utf-8")
    events = tmp_path / "events.jsonl"
    proc = run_cli(
        "replay", str(det), "--config", str(config),
        "--out-tracked", str(tmp_path / "t.jsonl"), "--out-events", str(events),
    )
    assert proc.returncode == 0, proc.stderr
    # without the cooldown every frame alarms once
    assert "stage 1 events: 40" in proc.stdout


def test_replay_bad_config_exits_one(tmp_path):
    det, _, _ = simulate(tmp_path)
    config = tmp_path / "config.ini"
    config.write_text("[alarm]\ncooldown_ms = never\n", encoding="utf-8")
    proc = run_cli(
        "replay", str(det), "--config", str(config),
        "--out-tracked", str(tmp_path / "t.jsonl"), "--out-events", str(tmp_path / "e.jsonl"),
    )
    assert proc.returncode == 1
    assert "cooldown_ms" in proc.stderr


def test_eval_writes_a_report(tmp_path):
    det, truth, _ = simulate(tmp_path)
    tracked = tmp_path / "tracked.jsonl"
    events = tmp_path / "events.jsonl"
    proc = run_cli("replay", str(det), "--out-tracked", str(tracked), "--out-events", str(events))
    assert proc.returncode == 0, proc.stderr

    report_path = tmp_path / "report.json"
    proc = run_cli("eval", str(tracked), str(truth), "--report", str(report_path))
    assert proc.returncode == 0, proc.stderr
    assert "category accuracy:" in proc.stdout
    assert "n/a" in proc.stdout
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["category_accuracy"] == 1.0
    assert report["direction_accuracy_overall"] == 1.0
    assert report["id_switches"] == 0
    assert report["assumptions"]["direction_scoring"] == "strict"
    assert report["assumptions"]["alignment"] == "positional"


def test_eval_with_config_enables_excuse_and_projection(tmp_path):
    det, truth, _ = simulate(tmp_path)
    tracked = tmp_path / "tracked.jsonl"
    proc = run_cli("replay", str(det), "--out-tracked", str(tracked), "--out-events", str(tmp_path / "e.jsonl"))
    assert proc.returncode == 0, proc.stderr
    config = tmp_path / "config.ini"
    config.write_text("", encoding="utf-8")
    report_path = tmp_path / "report.json"
    proc = run_cli("eval", str(tracked), str(truth), "--config", str(config), "--report", str(report_path))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["assumptions"]["direction_scoring"] == "excusable-forward"
    assert report["assumptions"]["alignment"] == "projected-center"
    assert report["direction_accuracy_overall"] == 1.0


def test_eval_custom_bands(tmp_path):
    det, truth, _ = simulate(tmp_path)
    tracked = tmp_path / "tracked.jsonl"
    proc = run_cli("replay", str(det), "--out-tracked", str(tracked), "--out-events", str(tmp_path / "e.jsonl"))
    assert proc.returncode == 0, proc.stderr
    report_path = tmp_path / "report.json"
    proc = run_cli("eval", str(tracked), str(truth), "--bands", "500,1000", "--report", str(report_path))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert list(report["direction_accuracy_by_band"]) == ["0-500", "500-1000", "1000+"]
    # the crosser sits at 580 cm: only the middle band has data
    assert report["direction_accuracy_by_band"]["0-500"] is None
    assert report["direction_accuracy_by_band"]["500-1000"] == 1.0


def test_eval_misaligned_streams_exit_two(tmp_path):
    det, truth, _ = simulate(tmp_path)
    tracked = tmp_path / "tracked.jsonl"
    proc = run_cli("replay", str(det), "--out-tracked", str(tracked), "--out-events", str(tmp_path / "e.jsonl"))
    assert proc.returncode == 0, proc.stderr
    lines = tracked.read_text(encoding="utf-8").splitlines()
    tracked.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    proc = run_cli("eval", str(tracked), str(truth), "--report", str(tmp_path / "r.json"))
    assert proc.returncode == 2
    assert "frame 39" in proc.stderr


def test_eval_bad_bands_exit_one(tmp_path):
    det, truth, _ = simulate(tmp_path)
    tracked = tmp_path / "tracked.jsonl"
    proc = run_cli("replay", str(det), "--out-tracked", str(tracked), "--out-events", str(tmp_path / "e.jsonl"))
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("eval", str(tracked), str(truth), "--bands", "600,300", "--report", str(tmp_path / "r.json"))
    assert proc.returncode == 1
    proc = run_cli("eval", str(tracked), str(truth), "--bands", "abc", "--report", str(tmp_path / "r.json"))
    assert proc.returncode == 1


@pytest.mark.parametrize(
    "distance,expected",
    [
        ("580", "stage 1, vibration 0.8 s"),
        ("400", "none"),
        ("290", "stage 2, vibration 1.2 s"),
        ("150", "stage 3, vibration 1.6 s"),
    ],
)
def test_stage_command(distance, expected):
    proc = run_cli("stage", distance)
    assert proc.returncode == 0
    assert proc.stdout.strip() == expected


def test_stage_rejects_non_positive_distance():
    proc = run_cli("stage", "--", "-5")
    assert proc.returncode == 1
    assert "distance" in proc.stderr


def test_stage_with_cumulative_config(tmp_path):
    config = tmp_path / "config.ini"
    config.write_text("[alarm]\ncumulative_bands = true\n", encoding="utf-8")
    proc = run_cli("stage", "400", "--config", str(config))
    assert proc.returncode == 0
    assert proc.stdout.strip() == "stage 1, vibration 0.8 s"


def test_usage_errors_exit_one():
    proc = run_cli("simulate")
    assert proc.returncode == 1
    proc = run_cli("no-such-command")
    assert proc.returncode == 1
    proc = run_cli()
    assert proc.returncode == 1
