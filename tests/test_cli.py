"""Command-line behavior through real subprocesses: outputs and exit codes."""
import json
import subprocess
import sys

import pytest

from streetwatch.jsonl import (
    decode_alarm_event,
    decode_detection_frame,
    decode_tracked_object,
    encode_detection_frame,
    read_records,
    write_lines,
)
from streetwatch.simulator import scenario_by_name, scenario_to_dict

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
    frames = list(read_records(det, decode_detection_frame))
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


@pytest.mark.parametrize("command", ["simulate", "replay"])
def test_failed_second_output_leaves_neither_file(tmp_path, command):
    first = tmp_path / "first.jsonl"
    second = tmp_path / "no-such-dir" / "second.jsonl"
    if command == "simulate":
        args = ("simulate", "--suite", "single-crosser", "--out-detections", str(first), "--out-truth", str(second))
    else:
        det, _, _ = simulate(tmp_path)
        args = ("replay", str(det), "--out-tracked", str(first), "--out-events", str(second))
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert "error:" in proc.stderr
    assert not first.exists()
    assert not second.exists()


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


@pytest.mark.parametrize(
    "old,new,key",
    [
        ('"seed": 101}', '"seed": 101, "seed": 7}', "seed"),
        ('"vx_cm_s": 150.0', '"vx_cm_s": 150.0, "vx_cm_s": -150.0', "vx_cm_s"),
    ],
    ids=["top-level", "in-trajectory"],
)
def test_simulate_refuses_a_repeated_scenario_key(tmp_path, old, new, key):
    text = json.dumps(scenario_to_dict(scenario_by_name("single-crosser")))
    assert text.count(old) == 1
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(text.replace(old, new), encoding="utf-8")
    det = tmp_path / "d.jsonl"
    proc = run_cli("simulate", str(scenario_path), "--out-detections", str(det), "--out-truth", str(tmp_path / "t.jsonl"))
    assert proc.returncode == 1
    assert proc.stderr == f"error: {scenario_path}: repeated key {key!r}\n"
    assert not det.exists()


def test_simulate_non_utf8_scenario_names_the_file_and_line(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    text = json.dumps(scenario_to_dict(scenario_by_name("single-crosser")), indent=1)
    scenario_path.write_bytes(text.encode("ascii").replace(b'"single-crosser"', b'"caf\xe9"', 1))
    det = tmp_path / "d.jsonl"
    truth = tmp_path / "t.jsonl"
    proc = run_cli("simulate", str(scenario_path), "--out-detections", str(det), "--out-truth", str(truth))
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {scenario_path}: line 2: not UTF-8"), proc.stderr
    assert not det.exists()
    assert not truth.exists()


HUGE = 10**400  # an integer too large for a float


@pytest.mark.parametrize(
    "path,value,text",
    [
        (("actors", 0, "trajectory", "z0_cm"), -50.0, "actor 0: depth at t=0.0 must be a positive finite number, got -50.0"),
        (("actors", 0, "trajectory", "x0_cm"), HUGE, "x0_cm must be a finite number"),
        (("actors", 0, "trajectory", "x0_cm"), True, "x0_cm must be a finite number, got True"),
        (("camera", "focal_px"), HUGE, "focal_px must be a positive finite number"),
        (("noise", "center_jitter_px"), HUGE, "center_jitter_px must be a non-negative finite number"),
        (("duration_s",), "4", "duration_s must be a positive finite number, got '4'"),
        (("frame_rate_hz",), "4", "frame_rate_hz must be a positive finite number, got '4'"),
        (("camera_height_cm",), "4", "camera_height_cm must be a positive finite number, got '4'"),
        (("actors", 0, "real_height_cm"), "140", "actor 0: real_height_cm must be a positive finite number, got '140'"),
        (("actors", 0, "enter_s"), "1", "actor 0: enter_s must be a finite number or null, got '1'"),
        (("actors", 3, "category"), "", "actor 3: category label must be a non-empty string, got ''"),
        (("actors", 3, "trajectory", "x0_cm"), "0", "actor 3 trajectory: x0_cm must be a finite number, got '0'"),
        (("noise", "height_jitter_frac"), 1e308, "actor 2, frame 0: box x must be a finite number, got -inf"),
    ],
    ids=[
        "negative-z0_cm", "huge-x0_cm", "bool-x0_cm", "huge-focal_px", "huge-center_jitter_px", "str-duration_s",
        "str-frame_rate_hz", "str-camera_height_cm", "str-real_height_cm", "str-enter_s", "empty-category-actor-3",
        "str-x0_cm-actor-3", "overflowing-height_jitter_frac",
    ],
)
def test_simulate_rejects_invalid_scenario_values(tmp_path, path, value, text):
    # six actors, so that a value of a later one can be spoiled
    spec = scenario_to_dict(scenario_by_name("crowded-midrange"))
    node = spec
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = run_cli(
        "simulate", str(scenario_path),
        "--out-detections", str(tmp_path / "d.jsonl"), "--out-truth", str(tmp_path / "t.jsonl"),
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and text in proc.stderr
    assert "Traceback" not in proc.stderr


def test_replay_produces_tracks_and_events(tmp_path):
    det, _, _ = simulate(tmp_path)
    tracked = tmp_path / "tracked.jsonl"
    events = tmp_path / "events.jsonl"
    proc = run_cli("replay", str(det), "--out-tracked", str(tracked), "--out-events", str(events))
    assert proc.returncode == 0, proc.stderr
    assert "frames: 40" in proc.stdout
    assert "stage 1 events: 3" in proc.stdout
    assert "total events: 3\nno-height detections: 0\n" in proc.stdout
    objs = list(read_records(tracked, decode_tracked_object))
    assert len(objs) == 40
    assert {o.object_id for o in objs} == {0}
    evs = list(read_records(events, decode_alarm_event))
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


def test_replay_distance_overflow_names_the_frame_and_detection(tmp_path):
    det, _, _ = simulate(tmp_path)
    lines = det.read_text(encoding="utf-8").splitlines()
    data = json.loads(lines[5])
    # a valid positive box height, so small that f * H / h overflows
    data["detections"][0]["bbox"]["h"] = 5e-324
    lines[5] = json.dumps(data)
    det.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tracked = tmp_path / "t.jsonl"
    events = tmp_path / "e.jsonl"
    proc = run_cli("replay", str(det), "--out-tracked", str(tracked), "--out-events", str(events))
    assert proc.returncode == 1
    assert proc.stderr == (
        f"error: frame_id {data['frame_id']}, detection 0: distance estimate inf cm"
        " from box h=5e-324 is not a positive finite number\n"
    )
    assert not tracked.exists()
    assert not events.exists()


def test_replay_non_utf8_byte_cites_the_line(tmp_path):
    det, _, _ = simulate(tmp_path)
    lines = det.read_bytes().splitlines()
    lines[4] = lines[4].replace(b'"car"', b'"c\xe9r"', 1)
    det.write_bytes(b"\n".join(lines) + b"\n")
    tracked = tmp_path / "t.jsonl"
    events = tmp_path / "e.jsonl"
    proc = run_cli("replay", str(det), "--out-tracked", str(tracked), "--out-events", str(events))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: line 5: not UTF-8"), proc.stderr
    assert not tracked.exists()
    assert not events.exists()


@pytest.mark.parametrize("field", ["x", "confidence"])
def test_replay_integer_too_large_for_a_float_is_a_parse_error(tmp_path, field):
    det, _, _ = simulate(tmp_path)
    lines = det.read_text(encoding="utf-8").splitlines()
    data = json.loads(lines[0])
    first = data["detections"][0]
    (first["bbox"] if field == "x" else first)[field] = 10**400
    lines[0] = json.dumps(data)
    det.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tracked = tmp_path / "t.jsonl"
    events = tmp_path / "e.jsonl"
    proc = run_cli("replay", str(det), "--out-tracked", str(tracked), "--out-events", str(events))
    assert proc.returncode == 1
    rule = {"x": "a finite number", "confidence": "a number in [0, 1]"}[field]
    assert proc.stderr.startswith(f"error: line 1: detection 0: {field} must be {rule}, got 1000"), proc.stderr
    assert not tracked.exists()
    assert not events.exists()


def test_replay_refuses_an_output_that_is_the_input(tmp_path):
    det, _, _ = simulate(tmp_path)
    before = det.read_bytes()
    events = tmp_path / "events.jsonl"
    proc = run_cli("replay", str(det), "--out-tracked", str(det), "--out-events", str(events))
    assert proc.returncode == 1
    assert "--out-tracked" in proc.stderr and "input" in proc.stderr
    assert det.read_bytes() == before
    assert not events.exists()


def test_replay_refuses_one_path_for_both_outputs(tmp_path):
    det, _, _ = simulate(tmp_path)
    before = det.read_bytes()
    out = tmp_path / "out.jsonl"
    # the same file under two spellings
    proc = run_cli("replay", str(det), "--out-tracked", str(out), "--out-events", str(tmp_path / "." / "out.jsonl"))
    assert proc.returncode == 1
    assert "--out-tracked" in proc.stderr and "--out-events" in proc.stderr
    assert det.read_bytes() == before
    assert not out.exists()


@pytest.mark.parametrize(
    "case", ["simulate-scenario", "simulate-outputs", "replay", "eval", "replay-config", "eval-config"]
)
def test_writing_commands_refuse_aliased_paths(tmp_path, case):
    det, truth, _ = simulate(tmp_path)
    tracked = tmp_path / "tracked.jsonl"
    proc = run_cli("replay", str(det), "--out-tracked", str(tracked), "--out-events", str(tmp_path / "events.jsonl"))
    assert proc.returncode == 0, proc.stderr
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(scenario_to_dict(scenario_by_name("single-crosser"))), encoding="utf-8")
    config = tmp_path / "config.ini"
    config.write_text("[alarm]\ncooldown_ms = 0\n", encoding="utf-8")
    fresh = str(tmp_path / "fresh.jsonl")
    args, text = {
        "simulate-scenario": (
            ("simulate", str(scenario), "--out-detections", str(scenario), "--out-truth", fresh),
            "--out-detections and the scenario",
        ),
        "simulate-outputs": (
            ("simulate", "--suite", "single-crosser", "--out-detections", str(det), "--out-truth", str(det)),
            "--out-truth and --out-detections",
        ),
        "replay": (("replay", str(det), "--out-tracked", fresh, "--out-events", str(det)), "--out-events and the input"),
        "eval": (("eval", str(tracked), str(truth), "--report", str(tracked)), "--report and the tracked stream"),
        "replay-config": (
            ("replay", str(det), "--config", str(config), "--out-tracked", fresh, "--out-events", str(config)),
            "--out-events and --config",
        ),
        "eval-config": (
            ("eval", str(tracked), str(truth), "--config", str(config), "--report", str(config)),
            "--report and --config",
        ),
    }[case]
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {text} name the same file: ")
    # nothing overwritten, nothing written
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


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


def test_replay_counts_detections_without_a_height(tmp_path):
    frames = [make_frame(i, 100 * i, [make_det("dog", cx=100.0 + 5 * i), make_det("car", cx=400.0)]) for i in range(3)]
    det = tmp_path / "detections.jsonl"
    write_lines(det, (encode_detection_frame(f) for f in frames))
    tracked = tmp_path / "t.jsonl"
    proc = run_cli("replay", str(det), "--out-tracked", str(tracked), "--out-events", str(tmp_path / "e.jsonl"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("total events: 0\nno-height detections: 3\n")
    assert [o.distance_cm is None for o in read_records(tracked, decode_tracked_object)] == [True, False] * 3


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


def test_eval_with_config_enables_only_the_excuse(tmp_path):
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
    assert report["assumptions"]["alignment"] == "positional"
    assert report["direction_accuracy_overall"] == 1.0


def test_eval_with_an_empty_config_path_is_refused(tmp_path):
    det, truth, _ = simulate(tmp_path)
    tracked = tmp_path / "tracked.jsonl"
    proc = run_cli("replay", str(det), "--out-tracked", str(tracked), "--out-events", str(tmp_path / "e.jsonl"))
    assert proc.returncode == 0, proc.stderr
    report_path = tmp_path / "report.json"
    # as replay refuses it: an empty path names no file, not the defaults
    proc = run_cli("eval", str(tracked), str(truth), "--config", "", "--report", str(report_path))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot read config : "), proc.stderr
    assert not report_path.exists()


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


def test_eval_empty_bands_exit_one(tmp_path):
    # an empty --bands is refused like a blank one, not read as "use the defaults"
    det, truth, _ = simulate(tmp_path)
    tracked = tmp_path / "tracked.jsonl"
    proc = run_cli("replay", str(det), "--out-tracked", str(tracked), "--out-events", str(tmp_path / "e.jsonl"))
    assert proc.returncode == 0, proc.stderr
    report = tmp_path / "r.json"
    proc = run_cli("eval", str(tracked), str(truth), "--bands", "", "--report", str(report))
    assert proc.returncode == 1
    assert "--bands must be comma-separated numbers, got ''" in proc.stderr
    assert not report.exists()


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


def test_cli_import_and_config_load_leave_numpy_unloaded():
    # the package is pure stdlib: not even a noisy simulation loads numpy
    code = (
        "import sys\n"
        "import streetwatch.cli\n"
        "from streetwatch.config import load_config\n"
        "from dataclasses import replace\n"
        "from streetwatch.simulator import NoiseSpec, generate, scenario_by_name\n"
        "load_config()\n"
        "noise = NoiseSpec(center_jitter_px=2.0, height_jitter_frac=0.05, drop_prob=0.1, label_flip_prob=0.1)\n"
        "generate(replace(scenario_by_name('crowded-midrange'), noise=noise))\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_the_simulator_and_the_scorer_unloaded():
    # replay and stage run neither; simulate and eval import them when they
    # run. Nothing imports logging.
    code = (
        "import sys\n"
        "import streetwatch.cli\n"
        "print(sorted(m for m in ('streetwatch.simulator', 'streetwatch.evaluation', 'logging') if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Every name the package once exported, by the module it is imported from.
PACKAGE_NAMES = {
    "alarm": "AlarmEvent AlarmPolicy AlarmStage DEFAULT_STAGES emit_alarms render_message "
    "stage_for_distance",
    "camera": "CameraIntrinsics HeightTable estimate_distance focal_px_from_mm",
    "config": "ConfigError load_config",
    "direction": "DirectionConfig DirectionLabel classify_direction",
    "evaluation": "AlignmentError BandPartition EvalError EvalReport GapComparison ScenarioRun "
    "compare_gap_strategies config_for_scenario run_scenario score",
    "matcher": "MatchConfig MatchResult match_frames",
    "pipeline": "Pipeline PipelineConfig StreamOrderError TrackedObject WINDOW_DEPTH",
    "simulator": "ActorSpec NoiseSpec ScenarioError ScenarioSpec Trajectory TruthRecord generate scenario_by_name "
    "scenario_from_dict scenario_to_dict slow_crosser standard_suite true_direction_of",
    "types": "BoundingBox Category Detection DetectionFrame FrameValidationError KNOWN_CATEGORIES ObjectId "
    "validate_frame",
}


def test_names_are_imported_from_their_modules_and_the_package_loads_none():
    code = (
        "import importlib, json, sys\n"
        "import streetwatch\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('streetwatch.'))\n"
        f"names = {PACKAGE_NAMES!r}\n"
        "unresolved = [m + '.' + n for m, line in names.items() for n in line.split()\n"
        "              if not hasattr(importlib.import_module('streetwatch.' + m), n)]\n"
        "from streetwatch import evaluation, simulator\n"
        "missing = []\n"
        "for name in ('Pipeline', 'run_scenario', 'project_ground_point', 'with_noise', 'config_for_camera',"
        " 'with_seed', 'project_height'):\n"
        "    try:\n"
        "        getattr(streetwatch, name)\n"
        "        missing.append('resolved')\n"
        "    except AttributeError as exc:\n"
        "        missing.append(str(exc))\n"
        "from streetwatch import alarm, camera\n"
        "print(json.dumps([loaded, unresolved, evaluation.__name__, simulator.__name__, streetwatch.__version__,"
        " missing, hasattr(camera, 'project_height'), hasattr(alarm, 'CooldownLedger')]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        [],
        [],
        "streetwatch.evaluation",
        "streetwatch.simulator",
        "0.1.0",
        [
            # a public name is read from its module, never from the package
            "module 'streetwatch' has no attribute 'Pipeline'",
            "module 'streetwatch' has no attribute 'run_scenario'",
            # retired names stay retired
            "module 'streetwatch' has no attribute 'project_ground_point'",
            "module 'streetwatch' has no attribute 'with_noise'",
            "module 'streetwatch' has no attribute 'config_for_camera'",
            "module 'streetwatch' has no attribute 'with_seed'",
            "module 'streetwatch' has no attribute 'project_height'",
        ],
        # retired from their modules too
        False,
        False,
    ]
