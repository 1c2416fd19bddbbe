"""The benchmark's own tests: python3 -m pytest bench/test_bench.py -q

A reduced-size smoke run of every workload must emit exactly the metric
names BENCHMARK.json declares, and the correctness checks must catch a
corrupted stream.
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402
from streetwatch import jsonl  # noqa: E402
from streetwatch.config import load_config  # noqa: E402
from streetwatch.pipeline import Pipeline  # noqa: E402
from streetwatch.simulator import generate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def replay(name, seed=5, frames=150):
    cfg = load_config()
    spec = workloads.build(name, seed, frames)
    det_frames, _ = generate(spec)
    pipe = Pipeline(cfg)
    tracked, events = [], []
    for frame in det_frames:
        t, e = pipe.process_frame(frame)
        tracked.append(t)
        events.append(e)
    return cfg, spec, det_frames, tracked, events


def group_events_by_frame(frames, events):
    """Split a flat event stream into per-frame lists by t_ms (distinct per frame here)."""
    pos_by_t = {f.t_ms: pos for pos, f in enumerate(frames)}
    grouped = [[] for _ in frames]
    for ev in events:
        grouped[pos_by_t.get(ev.t_ms, len(frames) - 1)].append(ev)
    return grouped


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_declared_metric(trace, section):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "all", "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--frames", "150"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    for name in workloads.NAMES:
        got = {key.split("/", 1)[1]: m for key, m in result["metrics"].items() if key.startswith(name + "/")}
        assert set(got) == set(declared), name
        assert all(got[key]["unit"] == unit for key, unit in declared.items()), name


def test_declared_workloads_match_the_runner():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY


@pytest.mark.parametrize("name", workloads.NAMES)
def test_clean_stream_passes_the_checks(name):
    cfg, _, frames, tracked, events = replay(name)
    assert checks.check_stream(frames, tracked, events, cfg.alarm) == []


def test_duplicated_event_inside_its_cooldown_is_caught():
    cfg, _, frames, tracked, events = replay("curbside-alarms")
    pos = next(k for k, e in enumerate(events) if e and k + 1 < len(frames))
    # the same alarm again one frame later, through the JSONL codec
    line = jsonl.encode_alarm_event(dataclasses.replace(events[pos][0], t_ms=frames[pos + 1].t_ms))
    flat = [e for frame_events in events for e in frame_events]
    flat.insert(sum(len(e) for e in events[: pos + 1]), jsonl.decode_alarm_event(line))
    corrupted = group_events_by_frame(frames, flat)
    problems = checks.check_stream(frames, tracked, corrupted, cfg.alarm)
    assert any(p == pos + 1 and "fired again" in reason for p, reason in problems), problems


def test_event_outside_its_band_and_over_the_cap_are_caught():
    cfg, _, frames, tracked, events = replay("curbside-alarms")
    pos = next(k for k, e in enumerate(events) if len(e) == cfg.alarm.max_events_per_frame)
    moved = dataclasses.replace(events[pos][0], distance_cm=events[pos][0].distance_cm + 1000.0)
    corrupted = list(events)
    corrupted[pos] = [moved, *events[pos], dataclasses.replace(events[pos][0], object_id=10**9)]
    reasons = " ".join(r for p, r in checks.check_stream(frames, tracked, corrupted, cfg.alarm) if p == pos)
    assert "outside its band" in reasons and "cap is" in reasons and "does not belong" in reasons


def test_reused_fresh_id_is_caught():
    cfg, _, frames, tracked, events = replay("noisy-churn")
    pos = len(frames) - 1
    reused = dataclasses.replace(tracked[pos][0], object_id=tracked[0][0].object_id, matched_from=None, direction=None)
    corrupted = list(tracked)
    corrupted[pos] = [reused, *tracked[pos][1:]]
    assert any("fresh id" in r for _, r in checks.check_stream(frames, corrupted, events, cfg.alarm))


def test_differing_cli_output_marks_the_frame():
    reference = [["a", "b"], [], ["c"]]
    assert checks.differing_frames(reference, ["a", "b", "c"]) == []
    assert checks.differing_frames(reference, ["a", "b", "x"]) == [2]
    assert checks.differing_frames(reference, ["a", "b"]) == [2]


@pytest.mark.parametrize("seed", [11, 12])
def test_workload_properties_hold_on_fresh_seeds(seed):
    for name in workloads.NAMES:
        cfg, spec, frames, tracked, events = replay(name, seed=seed, frames=300)
        props = workloads.properties(spec, frames, tracked, events, cfg.alarm, cfg.direction.gap)
        assert workloads.property_violations(name, props) == [], name


def test_property_guard_flags_a_lost_property():
    cfg, spec, frames, tracked, events = replay("dense-30")
    props = workloads.properties(spec, frames, tracked, events, cfg.alarm, cfg.direction.gap)
    assert workloads.property_violations("dense-30", dict(props, events=3))
    assert workloads.property_violations("curbside-alarms", dict(props, events=0))
    assert workloads.property_violations("noisy-churn", dict(props, bridge_matches=0))


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "dense-30", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
