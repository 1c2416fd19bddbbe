"""JSON-Lines stream formats: detections, truth, tracked objects, events.

One record per line, compact separators, fixed key order. Encoding a
decoded canonical line (one this module wrote) reproduces it byte for
byte, so files can be diffed and golden-tested; any other valid line comes
back in canonical form (an integer 1 in a float field re-encodes as 1.0).
Decoders are strict: unknown or missing keys and out-of-range values are
errors that cite the offending line.
"""
from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, Optional, TypeVar, Union

from .alarm import AlarmEvent
from .direction import DirectionLabel
from .pipeline import TrackedObject, _checked_tracked, _match_error
from .types import KNOWN_CATEGORIES, BoundingBox, Category, Detection, DetectionFrame, TruthRecord, key_mismatch
from .types import _box_error, _checked_box, _checked_detection, _checked_frame, _confidence_error, _is_finite_number

T = TypeVar("T")
PathLike = Union[str, Path]


class ParseError(ValueError):
    """A stream line failed to parse or validate."""


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

_FRAME_KEYS = frozenset(("frame_id", "t_ms", "detections"))
_DETECTION_KEYS = frozenset(("category", "bbox", "confidence"))
_BBOX_KEYS = frozenset(("x", "y", "w", "h"))
_TRUTH_KEYS = frozenset(
    ("frame_id", "actor_id", "true_depth_cm", "true_lateral_cm", "true_direction", "emitted", "true_category")
)
_TRACKED_KEYS = frozenset(("frame_id", "object_id", "category", "bbox", "distance_cm", "direction", "matched_from"))
_EVENT_KEYS = frozenset(
    ("t_ms", "object_id", "category", "stage", "vibration_s", "distance_cm", "direction", "message")
)


def _expect_keys(data: dict, expected: frozenset, what: str) -> None:
    if data.keys() != expected:
        raise ParseError(f"{what}: {key_mismatch(data, expected)}")


def _int_field(data: dict, key: str, minimum: int = 0) -> int:
    v = data[key]
    if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
        raise ParseError(f"{key} must be an integer >= {minimum}, got {v!r}")
    return v


def _num_field(data: dict, key: str) -> float:
    v = data[key]
    if not _is_finite_number(v):
        raise ParseError(f"{key} must be a finite number, got {v!r}")
    return float(v)


def _str_field(data: dict, key: str) -> str:
    v = data[key]
    if not isinstance(v, str) or not v:
        raise ParseError(f"{key} must be a non-empty string, got {v!r}")
    return v


def _category_field(data: dict, key: str) -> Category:
    v = data[key]
    # type check first: an unhashable value must reach the ParseError below
    if type(v) is str:
        known = _KNOWN_CATEGORY.get(v)
        if known is not None:
            return known
    return Category(_str_field(data, key))


def _bool_field(data: dict, key: str) -> bool:
    v = data[key]
    if not isinstance(v, bool):
        raise ParseError(f"{key} must be a boolean, got {v!r}")
    return v


def _direction_field(data: dict, key: str) -> Optional[DirectionLabel]:
    v = data[key]
    if v is None:
        return None
    # type check first: an unhashable value must reach the ParseError below
    if type(v) is str:
        label = _DIRECTION.get(v)
        if label is not None:
            return label
    raise ParseError(f"{key} must be left/right/forward or null, got {v!r}")


def _bbox_field(data: dict, key: str) -> BoundingBox:
    """The box under key, each number checked once: four floats that pass
    _box_error are taken as they are. Anything else is read again through
    _num_field, which words the error and turns ints into floats."""
    box = data[key]
    if type(box) is not dict:
        raise ParseError(f"{key} must be an object, got {box!r}")
    _expect_keys(box, _BBOX_KEYS, key)
    x, y, w, h = box["x"], box["y"], box["w"], box["h"]
    if (
        type(x) is not float or type(y) is not float or type(w) is not float or type(h) is not float
        or _box_error(x, y, w, h)
    ):
        x, y, w, h = _num_field(box, "x"), _num_field(box, "y"), _num_field(box, "w"), _num_field(box, "h")
        text = _box_error(x, y, w, h)
        if text:
            raise ParseError(text)
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
        if item.keys() != _DETECTION_KEYS:
            raise ParseError(key_mismatch(item, _DETECTION_KEYS))
        category = _category_field(item, "category")
        bbox = _bbox_field(item, "bbox")
        confidence = item["confidence"]
        if type(confidence) is not float:
            confidence = _num_field(item, "confidence")
        text = _confidence_error(confidence)
        if text:
            raise ParseError(text)
    except ParseError as exc:
        raise ParseError(f"detection {k}: {exc}") from None
    return _checked_detection(category, bbox, confidence)


def decode_detection_frame(line: str) -> DetectionFrame:
    data = _loads(line)
    _expect_keys(data, _FRAME_KEYS, "detection frame")
    raw = data["detections"]
    if not isinstance(raw, list):
        raise ParseError(f"detections must be an array, got {raw!r}")
    detections = tuple([_decode_detection(k, item) for k, item in enumerate(raw)])
    # every value is checked by now, so the frame is marked for
    # validate_frame to trust
    return _checked_frame(_int_field(data, "frame_id"), _int_field(data, "t_ms"), detections)


# --- truth stream -------------------------------------------------------

def encode_truth_record(rec: TruthRecord) -> str:
    emitted = rec.emitted
    if type(emitted) is not bool:
        raise TypeError(f"emitted must be a bool, got {emitted!r}")
    return (
        f'{{"frame_id":{_num(rec.frame_id)},"actor_id":{_num(rec.actor_id)},'
        f'"true_depth_cm":{_num(rec.true_depth_cm)},"true_lateral_cm":{_num(rec.true_lateral_cm)},'
        f'"true_direction":{_LABEL_JSON[rec.true_direction]},"emitted":{"true" if emitted else "false"},'
        f'"true_category":{_str(rec.true_category.label)}}}'
    )


def decode_truth_record(line: str) -> TruthRecord:
    data = _loads(line)
    _expect_keys(data, _TRUTH_KEYS, "truth record")
    # One pass. Each value is checked once, by exact type and range or by
    # label lookup; one that fails goes to its field's reader, which words
    # the error or returns what to use (a float for an int, a new Category).
    direction = data["true_direction"]
    if type(direction) is not str or (direction := _DIRECTION.get(direction)) is None:
        direction = _direction_field(data, "true_direction")
        if direction is None:
            raise ParseError("true_direction cannot be null")
    depth = data["true_depth_cm"]
    if type(depth) is not float or not 0.0 < depth < _INF:
        depth = _num_field(data, "true_depth_cm")
        if not depth > 0:
            raise ParseError(f"true_depth_cm must be positive, got {depth!r}")
    frame_id = data["frame_id"]
    if type(frame_id) is not int or frame_id < 0:
        frame_id = _int_field(data, "frame_id")
    actor_id = data["actor_id"]
    if type(actor_id) is not int or actor_id < 0:
        actor_id = _int_field(data, "actor_id")
    lateral = data["true_lateral_cm"]
    if type(lateral) is not float or not -_INF < lateral < _INF:
        lateral = _num_field(data, "true_lateral_cm")
    emitted = data["emitted"]
    if type(emitted) is not bool:
        emitted = _bool_field(data, "emitted")
    category = data["true_category"]
    if type(category) is not str or (category := _KNOWN_CATEGORY.get(category)) is None:
        category = _category_field(data, "true_category")
    return TruthRecord(frame_id, actor_id, depth, lateral, direction, emitted, category)


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
    data = _loads(line)
    _expect_keys(data, _TRACKED_KEYS, "tracked object")
    # one pass, as in decode_truth_record; _bbox_field checks the box once
    distance = data["distance_cm"]
    if distance is not None and (type(distance) is not float or not 0.0 < distance < _INF):
        distance = _num_field(data, "distance_cm")
        if not distance > 0:
            raise ParseError(f"distance_cm must be positive or null, got {distance!r}")
    matched_from = data["matched_from"]
    if matched_from is not None and (type(matched_from) is not int or matched_from < 0):
        raise ParseError(f"matched_from must be a non-negative integer or null, got {matched_from!r}")
    object_id = data["object_id"]
    if type(object_id) is not int or object_id < 0:
        object_id = _int_field(data, "object_id")
    frame_id = data["frame_id"]
    if type(frame_id) is not int or frame_id < 0:
        frame_id = _int_field(data, "frame_id")
    category = data["category"]
    if type(category) is not str or (category := _KNOWN_CATEGORY.get(category)) is None:
        category = _category_field(data, "category")
    bbox = _bbox_field(data, "bbox")
    direction = data["direction"]
    if direction is not None and (type(direction) is not str or (direction := _DIRECTION.get(direction)) is None):
        direction = _direction_field(data, "direction")
    if text := _match_error(direction, matched_from):
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
    data = _loads(line)
    _expect_keys(data, _EVENT_KEYS, "alarm event")
    vibration = _num_field(data, "vibration_s")
    if not vibration > 0:
        raise ParseError(f"vibration_s must be positive, got {vibration!r}")
    distance = _num_field(data, "distance_cm")
    if not distance > 0:
        raise ParseError(f"distance_cm must be positive, got {distance!r}")
    return AlarmEvent(
        t_ms=_int_field(data, "t_ms"),
        object_id=_int_field(data, "object_id"),
        category=_category_field(data, "category"),
        stage=_int_field(data, "stage", minimum=1),
        vibration_s=vibration,
        distance_cm=distance,
        direction=_direction_field(data, "direction"),
        message=_str_field(data, "message"),
    )


# --- file helpers -------------------------------------------------------

# The C scanner that json.loads runs, called directly
_scan = json.decoder.JSONDecoder().scan_once


def _loads(line: str) -> dict:
    # A str line that is one JSON object from its first character to its
    # last is taken from the scanner. Anything else, whitespace around the
    # object included, goes through json.loads, which words the error.
    if type(line) is str:
        try:
            data, end = _scan(line, 0)
        except (StopIteration, ValueError):
            pass
        else:
            if end == len(line) and type(data) is dict:
                return data
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}") from None
    if not isinstance(data, dict):
        raise ParseError(f"record must be a JSON object, got {type(data).__name__}")
    return data


def read_records(path: PathLike, decoder: Callable[[str], T]) -> Iterator[T]:
    """Decode a JSON-Lines file, citing the line number on any failure."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
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


def write_lines(path: PathLike, lines: Iterable[str]) -> int:
    """Write records one per line with a trailing newline. Returns the count."""
    n = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")
            n += 1
    return n


def read_detection_frames(path: PathLike) -> List[DetectionFrame]:
    return list(read_records(path, decode_detection_frame))


def read_truth_records(path: PathLike) -> List[TruthRecord]:
    return list(read_records(path, decode_truth_record))


def read_tracked_objects(path: PathLike) -> List[TrackedObject]:
    return list(read_records(path, decode_tracked_object))


def read_alarm_events(path: PathLike) -> List[AlarmEvent]:
    return list(read_records(path, decode_alarm_event))
