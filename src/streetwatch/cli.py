"""Command-line front end.

Four commands: simulate a scenario into detection + truth streams, replay
a detection stream through the pipeline, evaluate a tracked stream against
truth, and inspect which alarm stage a distance falls into.

Exit codes: 0 success, 1 validation or parse failure, 2 stream-order or
alignment failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import replace
from typing import List, Optional, Tuple

from .alarm import stage_for_distance
from .config import load_config
from .jsonl import (
    ParseError,
    _open_outputs,
    _undecodable_line,
    _unique_keys,
    decode_detection_frame,
    decode_tracked_object,
    decode_truth_record,
    encode_alarm_event,
    encode_detection_frame,
    encode_tracked_object,
    encode_truth_record,
    read_records,
    write_lines,
)
from .pipeline import Pipeline, StreamOrderError

# simulate and eval import the simulator and the scorer when they run, so
# that replay and stage load neither.


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streetwatch",
        description="post-detection hazard pipeline: distance, direction and staged alarms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="render a scenario into detection and truth streams")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("scenario", nargs="?", help="scenario JSON file")
    src.add_argument("--suite", metavar="NAME", help="use a bundled scenario by name")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--out-detections", required=True, metavar="PATH")
    p.add_argument("--out-truth", required=True, metavar="PATH")

    p = sub.add_parser("replay", help="run a detection stream through the pipeline")
    p.add_argument("detections", help="detection stream (JSON-Lines)")
    p.add_argument("--config", metavar="PATH", help="pipeline config INI (defaults used when omitted)")
    p.add_argument("--out-tracked", required=True, metavar="PATH")
    p.add_argument("--out-events", required=True, metavar="PATH")

    p = sub.add_parser("eval", help="score a tracked stream against simulator truth")
    p.add_argument("tracked", help="tracked stream (JSON-Lines)")
    p.add_argument("truth", help="truth stream (JSON-Lines)")
    p.add_argument("--bands", metavar="CM,CM,...", help="band boundaries in cm (default 300,600)")
    p.add_argument(
        "--config",
        metavar="PATH",
        help="pipeline config INI; enables the excusable-forward rule with its focal length, gap and dead zone",
    )
    p.add_argument("--report", required=True, metavar="PATH", help="write the report as JSON here")

    p = sub.add_parser("stage", help="show the alarm stage for a distance")
    p.add_argument("distance_cm", type=float)
    p.add_argument("--config", metavar="PATH", help="pipeline config INI (defaults used when omitted)")

    return parser


def _same_file(a: str, b: str) -> bool:
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    try:
        return os.path.samefile(a, b)
    except OSError:
        # one of them does not exist yet
        return False


def _refuse_aliases(inputs: List[Tuple[str, Optional[str]]], outputs: List[Tuple[str, str]]) -> None:
    """Raise ValueError when an output names an input or an earlier output.

    Opening an output truncates it, so an alias would destroy the input or
    the other output before a record is read. Takes (name, path) pairs; an
    input left out (path None) is skipped.
    """
    for k, (name_b, b) in enumerate(outputs):
        for name_a, a in inputs + outputs[:k]:
            if a is not None and _same_file(a, b):
                raise ValueError(f"{name_b} and {name_a} name the same file: {b}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .simulator import ScenarioError, generate, scenario_by_name, scenario_from_dict

    inputs = [("the scenario", args.scenario)]
    _refuse_aliases(inputs, [("--out-detections", args.out_detections), ("--out-truth", args.out_truth)])
    if args.suite:
        spec = scenario_by_name(args.suite)
    else:
        try:
            with open(args.scenario, "r", encoding="utf-8") as fh:
                data = json.load(fh, object_pairs_hook=_unique_keys)
        except ParseError as exc:
            raise ScenarioError(f"{args.scenario}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{args.scenario}: invalid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            where = _undecodable_line(args.scenario) or f"not UTF-8 ({exc})"
            raise ScenarioError(f"{args.scenario}: {where}") from None
        spec = scenario_from_dict(data)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    frames, truth = generate(spec)
    with _open_outputs(args.out_detections, args.out_truth) as (detections_out, truth_out):
        for frame in frames:
            detections_out.write(encode_detection_frame(frame) + "\n")
        for record in truth:
            truth_out.write(encode_truth_record(record) + "\n")
    print(f"scenario: {spec.name}")
    print(f"frames: {len(frames)}")
    print(f"actors: {len(spec.actors)}")
    print(f"emitted detections: {sum(len(f.detections) for f in frames)}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    inputs = [("the input", args.detections), ("--config", args.config)]
    _refuse_aliases(inputs, [("--out-tracked", args.out_tracked), ("--out-events", args.out_events)])
    pipeline = Pipeline(load_config(args.config))
    stage_counts: Counter = Counter()
    frames = 0
    with _open_outputs(args.out_tracked, args.out_events) as (tracked_out, events_out):
        for tracked, events in pipeline.run(read_records(args.detections, decode_detection_frame)):
            frames += 1
            if tracked:
                tracked_out.write("".join([encode_tracked_object(obj) + "\n" for obj in tracked]))
            for event in events:
                events_out.write(encode_alarm_event(event) + "\n")
                stage_counts[event.stage] += 1
    print(f"frames: {frames}")
    for stage in (1, 2, 3):
        print(f"stage {stage} events: {stage_counts.get(stage, 0)}")
    print(f"total events: {sum(stage_counts.values())}")
    print(f"no-height detections: {pipeline.no_height}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from .evaluation import AlignmentError, BandPartition, EvalError, score

    inputs = [("the tracked stream", args.tracked), ("the truth stream", args.truth), ("--config", args.config)]
    _refuse_aliases(inputs, [("--report", args.report)])
    tracked = list(read_records(args.tracked, decode_tracked_object))
    truth = list(read_records(args.truth, decode_truth_record))
    bands = None
    if args.bands is not None:
        try:
            boundaries = tuple(float(part) for part in args.bands.split(","))
        except ValueError:
            raise EvalError(f"--bands must be comma-separated numbers, got {args.bands!r}") from None
        bands = BandPartition(boundaries)
    cfg = None if args.config is None else load_config(args.config)
    try:
        report = score(tracked, truth, bands, excuse=cfg)
    except AlignmentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    write_lines(args.report, [json.dumps(report.to_dict(), indent=2)])
    print(report.render_text())
    return 0


def _cmd_stage(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    st = stage_for_distance(args.distance_cm, cfg.alarm)
    if st is None:
        print("none")
    else:
        print(f"stage {st.stage}, vibration {st.vibration_s:g} s")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "replay": _cmd_replay,
    "eval": _cmd_eval,
    "stage": _cmd_stage,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that code is reserved for
        # stream-order/alignment failures here
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except StreamOrderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # every refusal (ConfigError, ParseError, FrameValidationError,
    # ScenarioError, EvalError) is a ValueError; an AlignmentError exits 2
    # from _cmd_eval
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
