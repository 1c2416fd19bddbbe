#!/usr/bin/env python3
"""streetwatch benchmark: end-to-end replay/eval metrics and per-layer timings.

    python3 bench/run.py --workload dense-30 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload, untraced then traced

Run it from the root of a checkout; it imports the package from ./src and
starts its own subprocesses with the same path. Load is one closed-loop
client in this process feeding frames back to back; no worker threads, and
subprocesses run one at a time.

--trace 0 measures the end-to-end metrics, --trace 1 wraps each layer's
public calls (see spans.py) and reports per-layer metrics instead. Both
check every output (see checks.py) and the workload's defining property
(see workloads.py); any failure makes the exit code non-zero.

Timings of in-process work are scaled by a stdlib calibration loop timed
around each slice of work, because a shared host drifts in speed by tens
of percent within a second; the CLI replay time is scaled by calibrations
just before and after it. Their units carry a `ref_` prefix: a `ref_s` is
a second on a host where one calibration loop takes CAL_REF_S. setup_s,
the timings taken inside child interpreters and the peak RSS are raw.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Seconds one calibration loop takes on the reference host; ref_ units are
# measured time scaled by CAL_REF_S / (calibration time on this host).
CAL_REF_S = 0.00125
# Detections per replay slice between two calibrations (about 10 ms of work).
SLICE_DETECTIONS = 300
REPLAY_PER_ROUND = 2
CLI_PER_ROUND = 2
SETUP_PER_ROUND = 3
MIN_ROUNDS = 3

# Runs a command and reports its wall time and peak RSS. The command is
# started from this small interpreter rather than from the benchmark
# process, because a child's ru_maxrss starts from the RSS of the process
# that spawned it, and the benchmark process holds the whole workload.
LAUNCH_CODE = """\
import json, os, subprocess, sys, time
t0 = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
elapsed = time.perf_counter() - t0
print(json.dumps({"s": elapsed, "maxrss_kb": usage.ru_maxrss, "exit": os.waitstatus_to_exitcode(status)}))
"""

SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
import streetwatch.cli
t1 = time.perf_counter()
from streetwatch.config import load_config
load_config()
t2 = time.perf_counter()
print(json.dumps({"import_ms": (t1 - t0) * 1e3, "load_ms": (t2 - t1) * 1e3, "numpy": "numpy" in sys.modules}))
"""


@dataclass(frozen=True)
class _CalPoint:
    x: float
    y: float


def calibrate() -> float:
    """Seconds for a fixed slice of interpreter work: JSON, a frozen dataclass, float math."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(150):
        data = json.loads(json.dumps({"i": i, "x": i * 0.25, "tag": "car"}, separators=(",", ":")))
        point = _CalPoint(data["x"], float(data["i"]))
        acc += math.hypot(point.x, point.y)
    return time.perf_counter() - t0


class Scale:
    """Scale for the work timed between two calls: CAL_REF_S over the mean calibration around it."""

    def __init__(self, repeat: int = 1) -> None:
        self.repeat = repeat
        self.last = self._cal()

    def _cal(self) -> float:
        return statistics.median(calibrate() for _ in range(self.repeat))

    def next(self) -> float:
        now = self._cal()
        scale = 2.0 * CAL_REF_S / (self.last + now)
        self.last = now
        return scale


class SpeedSampler:
    """Calibrates from a SIGALRM handler every PERIOD_S while one long call runs.

    For calls that cannot be cut into slices (the simulator, the scorer).
    factor(elapsed) takes the handler's own time out and scales the rest
    by CAL_REF_S over the mean calibration seen during the call.
    """

    PERIOD_S = 0.05

    def __enter__(self) -> "SpeedSampler":
        self.samples = [calibrate()]
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - t0

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(calibrate())

    def factor(self, elapsed: float) -> float:
        return (1.0 - self.spent / elapsed) * CAL_REF_S / statistics.mean(self.samples)


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, min(len(sorted_values) - 1, math.ceil(q / 100.0 * len(sorted_values)) - 1))
    return sorted_values[k]


def _import_program():
    """Import streetwatch from ./src and refuse any other copy."""
    if not (SRC / "streetwatch" / "__init__.py").is_file():
        raise SystemExit(f"bench: no streetwatch sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import streetwatch

    if Path(streetwatch.__file__).resolve().parent != (SRC / "streetwatch").resolve():
        raise SystemExit(f"bench: imported streetwatch from {streetwatch.__file__}, not from {SRC}")


def settle() -> None:
    """Collect, then freeze what is left out of the collector's reach.

    The benchmark holds the whole workload and its reference outputs in
    memory; frozen, they no longer lengthen the pipeline's collections,
    which is how the streaming CLI, holding none of it, runs.
    """
    gc.collect()
    gc.freeze()


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Workload:
    """One generated workload: inputs on disk, reference outputs, checks."""

    def __init__(self, name: str, seed: int, frames: int, workdir: Path) -> None:
        from streetwatch import jsonl
        from streetwatch.config import load_config
        from streetwatch.simulator import generate
        import workloads

        self.name = name
        self.seed = seed
        self.cfg = load_config()
        self.spec = workloads.build(name, seed, frames)
        self.frames, self.truth = generate(self.spec)
        self.det_lines = [jsonl.encode_detection_frame(f) for f in self.frames]
        self.truth_lines = [jsonl.encode_truth_record(r) for r in self.truth]
        self.det_path = workdir / "detections.jsonl"
        jsonl.write_lines(self.det_path, self.det_lines)
        self.n_dets = sum(len(f.detections) for f in self.frames)
        self.slice = max(1, SLICE_DETECTIONS * len(self.frames) // max(1, self.n_dets))
        self.failed = set()  # (pass label, frame position)
        self.attempted = 0
        self.problems = []
        self._reference_pass()

    def _reference_pass(self) -> None:
        from streetwatch import jsonl
        from streetwatch.pipeline import Pipeline
        import checks
        import workloads

        pipe = Pipeline(self.cfg)
        self.tracked, self.events, self.ref_tracked, self.ref_events = [], [], [], []
        for pos, line in enumerate(self.det_lines):
            try:
                tracked, events = pipe.process_frame(jsonl.decode_detection_frame(line))
            except Exception as exc:  # counted as a failed frame, reported below
                self.note("reference", pos, f"raised {type(exc).__name__}: {exc}")
                tracked, events = [], []
            self.tracked.append(tracked)
            self.events.append(events)
            self.ref_tracked.append([jsonl.encode_tracked_object(o) for o in tracked])
            self.ref_events.append([jsonl.encode_alarm_event(e) for e in events])
        self.attempted += len(self.frames)
        for pos, reason in checks.check_stream(self.frames, self.tracked, self.events, self.cfg.alarm):
            self.note("reference", pos, reason)
        self.tracked_lines = [line for lines in self.ref_tracked for line in lines]
        self.event_lines = [line for lines in self.ref_events for line in lines]
        self.tracked_bytes = "".join(line + "\n" for line in self.tracked_lines).encode()
        self.events_bytes = "".join(line + "\n" for line in self.event_lines).encode()
        self.props = workloads.properties(
            self.spec, self.frames, self.tracked, self.events, self.cfg.alarm, self.cfg.direction.gap
        )
        for reason in workloads.property_violations(self.name, self.props):
            self.problems.append(f"workload property lost: {reason}")

    def note(self, label: str, pos: int, reason: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(f"{label} frame {pos}: {reason}")
        self.failed.add((label, pos))

    def compare(self, label: str, tracked_lines, event_lines) -> None:
        """Count a pass's frames as attempted, and those whose output differs from the reference as failed."""
        import checks

        self.attempted += len(self.frames)
        for pos in checks.differing_frames(self.ref_tracked, tracked_lines):
            self.note(label, pos, "tracked lines differ from the reference pass")
        for pos in checks.differing_frames(self.ref_events, event_lines):
            self.note(label, pos, "event lines differ from the reference pass")

    # --- measured steps ---------------------------------------------------

    def replay_pass(self, label: str, tracer=None):
        """One closed-loop pass: decode, process_frame, encode, frame after frame.

        Returns (scaled ns per frame, span chunks). A calibration runs
        between slices of frames, outside the per-frame clocks.
        """
        from streetwatch import jsonl
        from streetwatch.pipeline import Pipeline

        decode, enc_t, enc_e = jsonl.decode_detection_frame, jsonl.encode_tracked_object, jsonl.encode_alarm_event
        pipe = Pipeline(self.cfg)
        process = pipe.process_frame
        clock = time.perf_counter_ns
        lat, chunks, out_t, out_e = [], [], [], []
        scale = Scale()
        lines = self.det_lines
        pos = 0
        try:
            for start in range(0, len(lines), self.slice):
                first_span = len(tracer.spans) if tracer else 0
                raw = []
                for pos in range(start, min(start + self.slice, len(lines))):
                    t0 = clock()
                    tracked, events = process(decode(lines[pos]))
                    tl = [enc_t(o) for o in tracked]
                    el = [enc_e(e) for e in events]
                    t1 = clock()
                    raw.append(t1 - t0)
                    out_t.extend(tl)
                    out_e.extend(el)
                s = scale.next()
                lat.extend(r * s for r in raw)
                if tracer:
                    chunks.append((first_span, len(tracer.spans), s))
        except Exception as exc:  # the rest of this pass counts as failed
            for k in range(pos, len(lines)):
                self.note(label, k, f"raised {type(exc).__name__}: {exc}")
        self.compare(label, out_t, out_e)
        return lat, chunks

    def replay_cli(self, workdir: Path, label: str):
        """`python -m streetwatch replay` on the workload file: (scaled s, peak RSS MB)."""
        tracked_path, events_path = workdir / "cli.tracked.jsonl", workdir / "cli.events.jsonl"
        cmd = [sys.executable, "-m", "streetwatch", "replay", str(self.det_path),
               "--out-tracked", str(tracked_path), "--out-events", str(events_path)]
        scale = Scale(repeat=3)
        # own process group, so a hung replay is killed together with its launcher
        proc = subprocess.Popen([sys.executable, "-c", LAUNCH_CODE, *cmd], cwd=ROOT, env=_child_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=150)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            stdout, stderr = proc.communicate()
        s = scale.next()
        try:
            launch = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            launch = {"exit": proc.returncode}
        if proc.returncode != 0 or launch["exit"] != 0:
            for k in range(len(self.frames)):
                self.note(label, k, f"replay exited {launch['exit']}: {stderr.strip()[:200]}")
            self.attempted += len(self.frames)
            return None
        tracked = tracked_path.read_bytes()
        events = events_path.read_bytes()
        if tracked == self.tracked_bytes and events == self.events_bytes:
            self.attempted += len(self.frames)
        else:
            self.compare(label, tracked.decode().splitlines(), events.decode().splitlines())
        return launch["s"] * s, launch["maxrss_kb"] / 1024.0

    def simulate(self) -> float:
        """Scaled seconds for simulator.generate on this workload's scenario."""
        from streetwatch import simulator

        with SpeedSampler() as sampler:
            t0 = time.perf_counter()
            _, truth = simulator.generate(self.spec)
            elapsed = time.perf_counter() - t0
        if len(truth) != len(self.truth):
            self.problems.append("simulate: truth record count changed between runs")
        return elapsed * sampler.factor(elapsed)

    def evaluate(self):
        """Decode the tracked and truth streams and score them: (elapsed s, scale, report)."""
        from streetwatch import evaluation, jsonl

        with SpeedSampler() as sampler:
            t0 = time.perf_counter()
            tracked = [jsonl.decode_tracked_object(line) for line in self.tracked_lines]
            truth = [jsonl.decode_truth_record(line) for line in self.truth_lines]
            report = evaluation.score(tracked, truth)
            elapsed = time.perf_counter() - t0
        return elapsed, sampler.factor(elapsed), report

    @property
    def n_eval_records(self) -> int:
        return len(self.tracked_lines) + len(self.truth_lines)


def run_setup(label: str, problems: list):
    """Fresh interpreter -> import streetwatch.cli -> load_config(): (wall s, child's own figures)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        problems.append(f"{label}: setup child exited {proc.returncode}: {proc.stderr.strip()[:200]}")
        return elapsed, None
    return elapsed, json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _median(values) -> float:
    """Median, or 0.0 when every attempt failed (the run is then reported as failed)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def measure_end_to_end(w: Workload, workdir: Path, seconds: float) -> dict:
    setup, fps, lat, cli, rss, sim, ev = [], [], [], [], [], [], []
    run_setup("warm-up", w.problems)
    w.replay_cli(workdir, "cli warm-up")
    report = None
    end = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < end:
        rounds += 1
        settle()
        for _ in range(SETUP_PER_ROUND):
            setup.append(run_setup(f"setup {rounds}", w.problems)[0])
        for _ in range(REPLAY_PER_ROUND):
            pass_lat, _ = w.replay_pass(f"pass {rounds}")
            fps.append(len(pass_lat) / (sum(pass_lat) * 1e-9))
            lat.append(pass_lat)
        for _ in range(CLI_PER_ROUND):
            got = w.replay_cli(workdir, f"cli {rounds}")
            if got:
                cli.append(got[0])
                rss.append(got[1])
        sim.append(len(w.truth) / w.simulate())
        elapsed, scale, report = w.evaluate()
        ev.append(w.n_eval_records / (elapsed * scale))
    # each frame's latency is its median over the passes, so a slice that a
    # host speed change mis-scaled in one pass is outvoted by the others;
    # the percentiles are over frames
    lat = sorted(statistics.median(frame) for frame in zip(*lat))
    print(f"rounds: {rounds}; latency samples: {len(lat)} frames x {len(fps)} passes; "
          f"setup launches: {len(setup)}; cli runs: {len(cli)}")
    return {
        "setup_s": _metric(_median(setup), "s"),
        "replay_fps": _metric(statistics.median(fps), "frames/ref_s"),
        "frame_latency_p50_us": _metric(percentile(lat, 50) / 1e3, "ref_us"),
        "frame_latency_p99_us": _metric(percentile(lat, 99) / 1e3, "ref_us"),
        "replay_cli_s": _metric(_median(cli), "ref_s"),
        "replay_peak_rss_mb": _metric(_median(rss), "MB"),
        "simulate_records_per_s": _metric(statistics.median(sim), "records/ref_s"),
        "eval_records_per_s": _metric(statistics.median(ev), "records/ref_s"),
        "direction_accuracy": _metric(report.direction_accuracy_overall or 0.0, "ratio"),
    }


def measure_layers(w: Workload, seconds: float) -> dict:
    import spans

    probes, plain, traced, layer_runs, sim_us, score_us, dec_t, dec_tr = [], [], [], [], [], [], [], []
    run_setup("warm-up", w.problems)
    end = time.perf_counter() + seconds
    rounds = 0
    report = None
    while rounds < MIN_ROUNDS or time.perf_counter() < end:
        rounds += 1
        settle()
        probe = run_setup(f"probe {rounds}", w.problems)[1]
        if probe:
            probes.append(probe)
        # alternate which side goes first so drift does not favour one
        for traced_side in ((False, True) if rounds % 2 else (True, False)):
            if not traced_side:
                plain.append(sum(w.replay_pass(f"plain pass {rounds}")[0]))
                continue
            tracer = spans.Tracer()
            with spans.traced_layers(tracer):
                lat, chunks = w.replay_pass(f"traced pass {rounds}", tracer)
            traced.append(sum(lat))
            layer_runs.append(spans.layer_totals(tracer, chunks))
        sim_us.append(w.simulate() * 1e6 / len(w.truth))
        tracer = spans.Tracer()
        with spans.traced_layers(tracer):
            _, scale, report = w.evaluate()
        totals = spans.layer_totals(tracer, [(0, len(tracer.spans), scale)])
        score_us.append(totals["evaluation.score.total"] / 1e3 / w.n_eval_records)
        dec_t.append(totals["jsonl.decode_tracked.total"] / 1e3 / max(1, len(w.tracked_lines)))
        dec_tr.append(totals["jsonl.decode_truth.total"] / 1e3 / max(1, len(w.truth_lines)))

    n = len(w.frames)

    def per_frame(key: str) -> float:
        return statistics.median(run.get(key, 0.0) for run in layer_runs) / 1e3 / n

    def per_call(kind: str) -> float:
        return statistics.median(run.get(kind + ".total", 0.0) / max(1, run.get(kind + ".calls", 0)) for run in layer_runs) / 1e3

    first = layer_runs[0]
    tracked_objects = sum(len(t) for t in w.tracked)
    labelled = [o.direction for t in w.tracked for o in t if o.direction is not None]
    in_band = first.get("alarm.in_band", 0)
    emitted = first.get("alarm.emitted", 0)
    out_bytes = len(w.tracked_bytes) + len(w.events_bytes)
    print(f"rounds: {rounds}; traced passes: {len(traced)}; plain passes: {len(plain)}")
    return {
        "jsonl.decode_us_per_frame": _metric(per_frame("jsonl.decode.total"), "ref_us"),
        "jsonl.encode_us_per_frame": _metric(per_frame("jsonl.encode.total"), "ref_us"),
        "jsonl.bytes_in": _metric(sum(len(line) + 1 for line in w.det_lines), "bytes"),
        "jsonl.bytes_out": _metric(out_bytes, "bytes"),
        "jsonl.lines_out": _metric(len(w.tracked_lines) + len(w.event_lines), "count"),
        "jsonl.decode_tracked_us_per_record": _metric(statistics.median(dec_t), "ref_us"),
        "jsonl.decode_truth_us_per_record": _metric(statistics.median(dec_tr), "ref_us"),
        "types.validate_us_per_frame": _metric(per_frame("types.validate_frame.total"), "ref_us"),
        "camera.distance_us_per_frame": _metric(per_frame("camera.estimate_distance.total"), "ref_us"),
        "camera.no_height_count": _metric(first.get("camera.no_height", 0), "count"),
        "matcher.gap.us_per_call": _metric(per_call("matcher.gap"), "ref_us"),
        "matcher.gap.calls": _metric(first.get("matcher.gap.calls", 0), "count"),
        "matcher.gap.match_rate": _metric(first.get("matcher.gap.pairs", 0) / max(1, first.get("matcher.gap.current", 0)), "ratio"),
        "matcher.bridge.us_per_call": _metric(per_call("matcher.bridge"), "ref_us"),
        "matcher.bridge.calls": _metric(first.get("matcher.bridge.calls", 0), "count"),
        "matcher.bridge.match_rate": _metric(first.get("matcher.bridge.pairs", 0) / max(1, first.get("matcher.bridge.current", 0)), "ratio"),
        "direction.us_per_frame": _metric(per_frame("direction.classify_direction.total"), "ref_us"),
        "direction.labelled_frac": _metric(len(labelled) / max(1, tracked_objects), "ratio"),
        "direction.forward_frac": _metric(sum(1 for d in labelled if d.value == "forward") / max(1, len(labelled)), "ratio"),
        "alarm.us_per_frame": _metric(per_frame("alarm.emit_alarms.total"), "ref_us"),
        "alarm.in_band": _metric(in_band, "count"),
        "alarm.emitted": _metric(emitted, "count"),
        "alarm.emit_ratio": _metric(emitted / max(1, in_band), "ratio"),
        "alarm.cap_frames": _metric(w.props["cap_frames"], "count"),
        "pipeline.self_us_per_frame": _metric(per_frame("pipeline.process_frame.self"), "ref_us"),
        "pipeline.fresh_id_frac": _metric(sum(1 for t in w.tracked for o in t if o.matched_from is None) / max(1, tracked_objects), "ratio"),
        "config.load_ms": _metric(_median(p["load_ms"] for p in probes), "ms"),
        "cli.import_ms": _metric(_median(p["import_ms"] for p in probes), "ms"),
        "cli.numpy_loaded": _metric(1 if all(p["numpy"] for p in probes) else 0, "bool"),
        "simulator.us_per_record": _metric(statistics.median(sim_us), "ref_us"),
        "evaluation.score_us_per_record": _metric(statistics.median(score_us), "ref_us"),
        "evaluation.id_switches": _metric(report.id_switches, "count"),
        "trace.overhead_frac": _metric(statistics.median(traced) / statistics.median(plain) - 1.0, "ratio"),
    }


def run_one(name: str, seed: int, seconds: float, trace: int, frames: int) -> int:
    import workloads

    workdir = WORK / f"{name}-seed{seed}-trace{trace}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        w = Workload(name, seed, frames, workdir)
        metrics = measure_layers(w, seconds) if trace else measure_end_to_end(w, workdir, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    failed = len({pos for _, pos in w.failed})
    correct = not w.problems and not w.failed
    print(f"workload: {name} (seed {seed}, trace {trace}, {len(w.frames)} frames, {w.n_dets} detections)")
    print(f"why: {workloads.WHY[name]}")
    print("properties: " + json.dumps({k: round(v, 4) for k, v in w.props.items()}))
    print(f"sha256 tracked: {hashlib.sha256(w.tracked_bytes).hexdigest()}")
    print(f"sha256 events:  {hashlib.sha256(w.events_bytes).hexdigest()}")
    print(f"failed_frac: {failed / w.attempted:.6f} ratio ({failed} of {w.attempted} frames)")
    for key, m in metrics.items():
        print(f"  {key:<36} {m['value']:>14.6g} {m['unit']}")
    for problem in w.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": w.attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own interpreter, untraced then traced (or as --trace says)."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.NAMES:
        for trace in ((0, 1) if args.trace is None else (args.trace,)):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.frames:
                cmd += ["--frames", str(args.frames)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            status = status or proc.returncode
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                combined["correct"] = False
                continue
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, m in result["metrics"].items():
                combined["metrics"][f"{name}/{key}"] = m
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time per run (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="0: end-to-end metrics, 1: per-layer metrics")
    parser.add_argument("--frames", type=int, default=0, help="frames per workload (default: full size)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.frames < 0:
        parser.error("--seed, --seconds and --frames must not be negative")
    _import_program()
    # one core for this process and its children, so each calibration
    # times the core that runs the work it scales
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; known: all, {', '.join(workloads.NAMES)}")
    if args.trace is None:
        parser.error("--trace is required for a single workload")
    return run_one(args.workload, args.seed, args.seconds, args.trace, args.frames)


if __name__ == "__main__":
    sys.exit(main())
