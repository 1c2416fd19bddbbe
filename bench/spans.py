"""Spans recorded from outside the program, around each layer's public calls.

`traced_layers` swaps the module attributes through which the pipeline,
the codec and the scorer reach each layer for wrappers that append a
span (name, start, end, parent, info) to an in-memory list, and puts the
originals back on exit. Nothing inside `streetwatch` is edited or copied.
A layer's self time is its span minus the time its child spans cover.
"""
from __future__ import annotations

import contextlib
import time
from typing import Callable, Dict, List, Optional, Tuple

from streetwatch import alarm, evaluation, jsonl, pipeline

# span fields
NAME, START, END, PARENT, INFO = range(5)


class Tracer:
    """In-memory span list plus the stack of spans currently open."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable, info: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if info is not None:
                # charged to the parent span, like any caller-side work
                span[INFO] = info(args, result)
            return result

        return traced

    def self_times(self, first: int, last: int) -> List[int]:
        """Self time in ns of each span in [first, last)."""
        child = [0] * (last - first)
        for k in range(first, last):
            span = self.spans[k]
            if span[PARENT] >= first:
                child[span[PARENT] - first] += span[END] - span[START]
        return [self.spans[k][END] - self.spans[k][START] - child[k - first] for k in range(first, last)]


# (owner, attribute, span name, info) for every wrapped call. The pipeline
# reaches its layers through names bound in streetwatch.pipeline, and the
# alarm layer reaches stage lookup through streetwatch.alarm, so those are
# the attributes swapped. info(args, result) keeps what the counters need.
TARGETS = (
    (jsonl, "decode_detection_frame", "jsonl.decode", None),
    (jsonl, "encode_tracked_object", "jsonl.encode", None),
    (jsonl, "encode_alarm_event", "jsonl.encode", None),
    (jsonl, "decode_tracked_object", "jsonl.decode_tracked", None),
    (jsonl, "decode_truth_record", "jsonl.decode_truth", None),
    (pipeline.Pipeline, "process_frame", "pipeline.process_frame", lambda a, r: id(a[1])),
    (pipeline, "validate_frame", "types.validate_frame", None),
    (pipeline, "estimate_distance", "camera.estimate_distance", lambda a, r: r is None),
    (pipeline, "match_frames", "matcher.match_frames", lambda a, r: (id(a[0]), len(a[0].detections), len(r.pairs))),
    (pipeline, "classify_direction", "direction.classify_direction", None),
    (pipeline, "emit_alarms", "alarm.emit_alarms", lambda a, r: len(r)),
    (alarm, "stage_for_distance", "alarm.stage_for_distance", lambda a, r: r is not None),
    (evaluation, "score", "evaluation.score", None),
)


@contextlib.contextmanager
def traced_layers(tracer: Tracer):
    saved: List[Tuple[object, str, Callable]] = []
    try:
        for owner, attr, name, info in TARGETS:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, info))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_totals(tracer: Tracer, chunks: List[Tuple[int, int, float]]) -> Dict[str, float]:
    """Scaled self/inclusive ns per span name, plus the match counts.

    chunks are (first span, end span, scale) ranges; each span's time is
    multiplied by the scale of the chunk it fell in, so times recorded
    while the host ran slow are put on the same footing as the rest.
    Keys: '<name>.self', '<name>.total', '<name>.count', and for the
    matcher the gap/bridge split with pairs and current detections.
    """
    out: Dict[str, float] = {}
    spans = tracer.spans

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0) + value

    for first, last, scale in chunks:
        selfs = tracer.self_times(first, last)
        for k in range(first, last):
            name, start, end, parent, info = spans[k]
            add(name + ".self", selfs[k - first] * scale)
            add(name + ".total", (end - start) * scale)
            add(name + ".count", 1)
            if name == "matcher.match_frames":
                cur_id, n_cur, n_pairs = info
                gap = parent >= 0 and spans[parent][NAME] == "pipeline.process_frame" and spans[parent][INFO] == cur_id
                kind = "matcher.gap" if gap else "matcher.bridge"
                add(kind + ".total", (end - start) * scale)
                add(kind + ".calls", 1)
                add(kind + ".pairs", n_pairs)
                add(kind + ".current", n_cur)
            elif name == "camera.estimate_distance" and info:
                add("camera.no_height", 1)
            elif name == "alarm.stage_for_distance" and info:
                add("alarm.in_band", 1)
            elif name == "alarm.emit_alarms":
                add("alarm.emitted", info)
    return out
