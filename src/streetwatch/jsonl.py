"""JSON-Lines stream formats: detections, truth, tracked objects, events.

One record per line, compact separators, fixed key order. Encoding a
decoded canonical line (one this module wrote) reproduces it byte for
byte, so files can be diffed and golden-tested; any other valid line comes
back in canonical form (an integer 1 in a float field re-encodes as 1.0).
Decoders are strict: unknown, missing or repeated keys and out-of-range
values are errors that cite the offending line.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
from collections import Counter
from dataclasses import fields
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, Optional, TextIO, TypeVar, Union

from .alarm import AlarmEvent, _checked_event
from .direction import DirectionLabel
from .pipeline import TrackedObject, _checked_tracked, _match_error
from .types import KNOWN_CATEGORIES, BoundingBox, Category, Detection, DetectionFrame, TruthRecord, key_mismatch
from .types import _box_error, _checked_box, _checked_detection, _checked_frame, _checked_truth, _refusal

T = TypeVar("T")
PathLike = Union[str, Path]


class ParseError(ValueError):
    """A stream line failed to parse or validate."""


# The error text for JSON nested deeper than the parser's recursion limit
_TOO_DEEP = "invalid JSON: nested too deeply"


# Each writer formats its record with one f-string in the canonical key
# order, through _num for numbers and _str for strings, so its line is the
# one json.dumps(..., separators=(",", ":"), allow_nan=False) writes.
_INF = math.inf


def _num(v) -> str:
    """A number as json.dumps writes it: a float by its shortest repr, an
    int as is. NaN/inf raise ValueError; anything else, a bool included,
    raises TypeError."""
    t = type(v)
    if t is int:
        return repr(v)
    if t is float:
        if -_INF < v < _INF:
            return repr(v)
        raise ValueError("Out of range float values are not JSON compliant")
    if isinstance(v, float):
        # a float subclass, which the constructors accept, is written as
        # the float it holds
        return _num(float(v))
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


# Labels and messages: quoted, with every non-ASCII or control character
# escaped, as json.dumps writes them.
_str = encode_basestring_ascii

_LABEL_JSON = {d: f'"{d.value}"' for d in DirectionLabel}
_DIRECTION = {d.value: d for d in DirectionLabel}
_DIRECTION_JSON = {None: "null", **_LABEL_JSON}


# A known label decodes to one shared frozen Category rather than a new,
# re-checked one per record.
_KNOWN_CATEGORY = {label: Category(label) for label in KNOWN_CATEGORIES}

# Each record's keys are its type's field names. Its getter reads them all in
# one C call: a dict of as many keys, each of which it finds, has exactly those.
# A dict of another size is read as {}, so every miss is the getter's KeyError.
_RECORD_TYPES = (DetectionFrame, Detection, BoundingBox, TruthRecord, TrackedObject, AlarmEvent)
_FRAME_KEYS, _DETECTION_KEYS, _BBOX_KEYS, _TRUTH_KEYS, _TRACKED_KEYS, _EVENT_KEYS = (
    frozenset(f.name for f in fields(cls)) for cls in _RECORD_TYPES
)
_FRAME_GET, _DETECTION_GET, _BBOX_GET, _TRUTH_GET, _TRACKED_GET, _EVENT_GET = (
    itemgetter(*[f.name for f in fields(cls)]) for cls in _RECORD_TYPES
)


# The C scanner that json.loads runs, called directly
_scan = json.decoder.JSONDecoder().scan_once


def _record(line, get: itemgetter, keys: frozenset, what: str, colons: int, items: str = "") -> tuple:
    """The values of the JSON object on line in field order, checked as one
    record of what: parsed, its key set proved by its size and one call of
    get, then the shape of its items array, if it has one, then repeats.

    A str line that is one JSON object from its first character to its
    last is taken from the scanner. Anything else, whitespace around the
    object included, goes through json.loads, which words the error.
    Once its key sets check out, a record without a repeat has exactly one
    ":" per key at every depth: colons, plus seven for each entry of items
    (a detection with its box). A colon inside a string only adds to the
    count, so only a line with more is read again, through _unique_keys.
    """
    data = None
    if type(line) is str:
        try:
            data, end = _scan(line, 0)
        except (StopIteration, ValueError):
            pass
        except RecursionError:
            raise ParseError(_TOO_DEEP) from None
        else:
            if end != len(line) or type(data) is not dict:
                data = None
    if data is None:
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}") from None
        except RecursionError:
            raise ParseError(_TOO_DEEP) from None
        if not isinstance(data, dict):
            raise ParseError(f"record must be a JSON object, got {type(data).__name__}")
    try:
        values = get(data if len(data) == len(keys) else {})
    except KeyError:
        raise ParseError(f"{what}: {key_mismatch(data, keys)}") from None
    if items:
        raw = data[items]
        if not isinstance(raw, list):
            raise _shape_error(items, "an array", raw)
        colons += 7 * len(raw)
    if not isinstance(line, str) or line.count(":") > colons:
        try:
            json.loads(line, object_pairs_hook=_unique_keys)
        except RecursionError:
            # the hook's frames can tip a line the scan passed
            raise ParseError(_TOO_DEEP) from None
    return values


def _field_error(key: str, rule: str, v, nullable: bool = False) -> ParseError:
    """v under key refused by the types rule named rule."""
    return ParseError(_refusal(rule, key, v, nullable))


def _shape_error(key: str, want: str, v) -> ParseError:
    """v under key refused by a rule the types table does not hold: a JSON
    array or object, or a direction label."""
    return ParseError(f"{key} must be {want}, got {v!r}")


# Each decoder states a field's rule once, inline: an exact type and
# range, or a table lookup. A value that misses is refused in the words of
# its types rule, except where a second read still gives a value:
# _num_field turns an int in a float field into a float, and
# _category_field makes an unknown non-empty label its own Category. Each
# takes the value v read under key.

def _num_field(key: str, v, rule: str = "finite", nullable: bool = False) -> float:
    if text := _refusal(rule, key, v, nullable):
        raise ParseError(text)
    return float(v)


def _category_field(key: str, v) -> Category:
    """The label v under key when it is not a known one: a non-empty string
    becomes its own Category."""
    if type(v) is not str or not v:
        raise _field_error(key, "text", v)
    return Category(v)


def _bbox_field(key: str, box) -> BoundingBox:
    """The box under key, each number checked once: four floats that pass
    _box_error are taken as they are. Anything else is read again through
    _num_field, which words the error and turns ints into floats."""
    if type(box) is not dict:
        raise _shape_error(key, "an object", box)
    # the key proof inline: a call per box shows in the decode time
    try:
        x, y, w, h = _BBOX_GET(box if len(box) == 4 else {})
    except KeyError:
        raise ParseError(f"{key}: {key_mismatch(box, _BBOX_KEYS)}") from None
    if (
        type(x) is not float or type(y) is not float or type(w) is not float or type(h) is not float
        or _box_error(x, y, w, h)
    ):
        x, y = _num_field("x", x), _num_field("y", y)
        w, h = _num_field("w", w, "positive"), _num_field("h", h, "positive")
    return _checked_box(x, y, w, h)


# --- detection stream ---------------------------------------------------

def encode_detection_frame(frame: DetectionFrame) -> str:
    detections = []
    for d in frame.detections:
        b = d.bbox
        detections.append(
            f'{{"category":{_str(d.category.label)},'
            f'"bbox":{{"x":{_num(b.x)},"y":{_num(b.y)},"w":{_num(b.w)},"h":{_num(b.h)}}},'
            f'"confidence":{_num(d.confidence)}}}'
        )
    return (
        f'{{"frame_id":{_num(frame.frame_id)},"t_ms":{_num(frame.t_ms)},'
        f'"detections":[{",".join(detections)}]}}'
    )


def _decode_detection(k: int, item) -> Detection:
    """Detection k of a frame, each value checked once."""
    try:
        if type(item) is not dict:
            raise ParseError("must be an object")
        try:
            label, box, confidence = _DETECTION_GET(item if len(item) == 3 else {})
        except KeyError:
            raise ParseError(key_mismatch(item, _DETECTION_KEYS)) from None
        # one pass, as in decode_truth_record; _bbox_field checks the box once
        if type(label) is not str or (category := _KNOWN_CATEGORY.get(label)) is None:
            category = _category_field("category", label)
        bbox = _bbox_field("bbox", box)
        if type(confidence) is not float or not 0.0 <= confidence <= 1.0:
            confidence = _num_field("confidence", confidence, "fraction")
    except ParseError as exc:
        raise ParseError(f"detection {k}: {exc}") from None
    return _checked_detection(category, bbox, confidence)


def decode_detection_frame(line: str) -> DetectionFrame:
    # three keys, and seven for each detection with its box
    frame_id, t_ms, items = _record(line, _FRAME_GET, _FRAME_KEYS, "detection frame", 3, "detections")
    detections = tuple([_decode_detection(k, item) for k, item in enumerate(items)])
    if type(frame_id) is not int or frame_id < 0:
        raise _field_error("frame_id", "int>=0", frame_id)
    if type(t_ms) is not int or t_ms < 0:
        raise _field_error("t_ms", "int>=0", t_ms)
    # every value is checked by now, so the frame is marked for
    # validate_frame to trust
    return _checked_frame(frame_id, t_ms, detections)


# --- truth stream -------------------------------------------------------

def encode_truth_record(rec: TruthRecord) -> str:
    emitted = rec.emitted
    if type(emitted) is not bool:
        raise TypeError(_refusal("bool", "emitted", emitted))
    return (
        f'{{"frame_id":{_num(rec.frame_id)},"actor_id":{_num(rec.actor_id)},'
        f'"true_depth_cm":{_num(rec.true_depth_cm)},"true_lateral_cm":{_num(rec.true_lateral_cm)},'
        f'"true_direction":{_LABEL_JSON[rec.true_direction]},"emitted":{"true" if emitted else "false"},'
        f'"true_category":{_str(rec.true_category.label)}}}'
    )


def decode_truth_record(line: str) -> TruthRecord:
    frame_id, actor_id, depth, lateral, way, emitted, label = _record(line, _TRUTH_GET, _TRUTH_KEYS, "truth record", 7)
    # one pass: each value is checked once, and a miss raises or goes to
    # _num_field or _category_field
    if type(way) is not str or (direction := _DIRECTION.get(way)) is None:
        raise _shape_error("true_direction", "left/right/forward", way)
    if type(depth) is not float or not 0.0 < depth < _INF:
        depth = _num_field("true_depth_cm", depth, "positive")
    if type(frame_id) is not int or frame_id < 0:
        raise _field_error("frame_id", "int>=0", frame_id)
    if type(actor_id) is not int or actor_id < 0:
        raise _field_error("actor_id", "int>=0", actor_id)
    if type(lateral) is not float or not -_INF < lateral < _INF:
        lateral = _num_field("true_lateral_cm", lateral)
    if type(emitted) is not bool:
        raise _field_error("emitted", "bool", emitted)
    if type(label) is not str or (category := _KNOWN_CATEGORY.get(label)) is None:
        category = _category_field("true_category", label)
    return _checked_truth(frame_id, actor_id, depth, lateral, direction, emitted, category)


# --- tracked stream -----------------------------------------------------

def encode_tracked_object(obj: TrackedObject) -> str:
    b = obj.bbox
    frame_id, object_id, matched_from = obj.frame_id, obj.object_id, obj.matched_from
    x, y, w, h, distance = b.x, b.y, b.w, b.h, obj.distance_cm
    # One guard for the whole record: exact ints and finite exact floats
    # are written by their repr, which is what _num writes for them. Any
    # other record takes the _num path, for its output and its errors.
    if (
        type(frame_id) is int and type(object_id) is int
        and (matched_from is None or type(matched_from) is int)
        and type(x) is float and type(y) is float and type(w) is float and type(h) is float
        and -_INF < x < _INF and -_INF < y < _INF and -_INF < w < _INF and -_INF < h < _INF
        and (distance is None or (type(distance) is float and -_INF < distance < _INF))
    ):
        return (
            f'{{"frame_id":{frame_id!r},"object_id":{object_id!r},'
            f'"category":{_str(obj.category.label)},'
            f'"bbox":{{"x":{x!r},"y":{y!r},"w":{w!r},"h":{h!r}}},'
            f'"distance_cm":{"null" if distance is None else repr(distance)},'
            f'"direction":{_DIRECTION_JSON[obj.direction]},'
            f'"matched_from":{"null" if matched_from is None else repr(matched_from)}}}'
        )
    return (
        f'{{"frame_id":{_num(frame_id)},"object_id":{_num(object_id)},'
        f'"category":{_str(obj.category.label)},'
        f'"bbox":{{"x":{_num(x)},"y":{_num(y)},"w":{_num(w)},"h":{_num(h)}}},'
        f'"distance_cm":{"null" if distance is None else _num(distance)},'
        f'"direction":{_DIRECTION_JSON[obj.direction]},'
        f'"matched_from":{"null" if matched_from is None else _num(matched_from)}}}'
    )


def decode_tracked_object(line: str) -> TrackedObject:
    object_id, frame_id, label, box, distance, way, matched_from = _record(
        line, _TRACKED_GET, _TRACKED_KEYS, "tracked object", 11
    )
    # one pass, as in decode_truth_record; _bbox_field checks the box once
    if distance is not None and (type(distance) is not float or not 0.0 < distance < _INF):
        distance = _num_field("distance_cm", distance, "positive", nullable=True)
    if matched_from is not None and (type(matched_from) is not int or matched_from < 0):
        raise _field_error("matched_from", "int>=0", matched_from, nullable=True)
    if type(object_id) is not int or object_id < 0:
        raise _field_error("object_id", "int>=0", object_id)
    if type(frame_id) is not int or frame_id < 0:
        raise _field_error("frame_id", "int>=0", frame_id)
    if type(label) is not str or (category := _KNOWN_CATEGORY.get(label)) is None:
        category = _category_field("category", label)
    bbox = _bbox_field("bbox", box)
    direction = _DIRECTION.get(way) if type(way) is str else None
    if direction is None and way is not None:
        raise _shape_error("direction", "left/right/forward or null", way)
    # only a direction can lack its match
    if direction is not None and (text := _match_error(direction, matched_from)):
        raise ParseError(text)
    return _checked_tracked(object_id, frame_id, category, bbox, distance, direction, matched_from)


# --- event stream -------------------------------------------------------

def encode_alarm_event(event: AlarmEvent) -> str:
    return (
        f'{{"t_ms":{_num(event.t_ms)},"object_id":{_num(event.object_id)},'
        f'"category":{_str(event.category.label)},"stage":{_num(event.stage)},'
        f'"vibration_s":{_num(event.vibration_s)},"distance_cm":{_num(event.distance_cm)},'
        f'"direction":{_DIRECTION_JSON[event.direction]},"message":{_str(event.message)}}}'
    )


def decode_alarm_event(line: str) -> AlarmEvent:
    t_ms, object_id, label, stage, vibration, distance, way, message = _record(
        line, _EVENT_GET, _EVENT_KEYS, "alarm event", 8
    )
    # one pass, as in decode_truth_record
    if type(vibration) is not float or not 0.0 < vibration < _INF:
        vibration = _num_field("vibration_s", vibration, "positive")
    if type(distance) is not float or not 0.0 < distance < _INF:
        distance = _num_field("distance_cm", distance, "positive")
    if type(t_ms) is not int or t_ms < 0:
        raise _field_error("t_ms", "int>=0", t_ms)
    if type(object_id) is not int or object_id < 0:
        raise _field_error("object_id", "int>=0", object_id)
    if type(label) is not str or (category := _KNOWN_CATEGORY.get(label)) is None:
        category = _category_field("category", label)
    if type(stage) is not int or stage < 1:
        raise _field_error("stage", "int>=1", stage)
    direction = _DIRECTION.get(way) if type(way) is str else None
    if direction is None and way is not None:
        raise _shape_error("direction", "left/right/forward or null", way)
    if type(message) is not str or not message:
        raise _field_error("message", "text", message)
    return _checked_event(t_ms, object_id, category, stage, vibration, distance, direction, message)


# --- file helpers -------------------------------------------------------

def _unique_keys(pairs: list) -> dict:
    """The object_pairs_hook that refuses a key given twice in one object,
    of which json alone keeps the last without a word."""
    data = dict(pairs)
    if len(data) < len(pairs):
        key = next(key for key, n in Counter(key for key, _ in pairs).items() if n > 1)
        raise ParseError(f"repeated key {key!r}")
    return data


def read_records(path: PathLike, decoder: Callable[[str], T]) -> Iterator[T]:
    """Decode a JSON-Lines file, citing the line number on any failure."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                # only JSON's own whitespace: str.strip() would also take
                # form feed, NBSP and other characters json.loads refuses
                line = line.strip(" \t\r\n")
                if not line:
                    continue
                try:
                    yield decoder(line)
                except ParseError as exc:
                    raise ParseError(f"line {lineno}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ParseError(_undecodable_line(path) or f"not UTF-8 ({exc})") from None


def _undecodable_line(path: PathLike) -> Optional[str]:
    """The error text for the first line of path that is not UTF-8.

    The text reader decodes in blocks, so its error position does not give
    the line; the bytes are scanned again, split into lines the way the
    text reader splits them.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh.read().splitlines(), start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return f"line {lineno}: not UTF-8 ({exc.reason}, byte {exc.start + 1} of the line)"
    return None


@contextlib.contextmanager
def _open_outputs(*paths: PathLike) -> Iterator[List[TextIO]]:
    """Open each path for writing and yield the handles.

    If an open or the block fails, every file opened here is removed:
    cut-off streams would look complete.
    """
    handles: List[TextIO] = []
    try:
        with contextlib.ExitStack() as stack:
            for path in paths:
                handles.append(stack.enter_context(open(path, "w", encoding="utf-8", newline="")))
            yield handles
    except BaseException:
        # the handles opened so far are those of the first paths
        for path in paths[: len(handles)]:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def write_lines(path: PathLike, lines: Iterable[str]) -> int:
    """Write records one per line with a trailing newline. Returns the count.
    If a line fails, the file is removed rather than left cut off."""
    n = 0
    with _open_outputs(path) as (fh,):
        for line in lines:
            fh.write(line)
            fh.write("\n")
            n += 1
    return n
