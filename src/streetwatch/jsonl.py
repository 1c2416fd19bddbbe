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
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, Optional, TypeVar, Union

from .alarm import AlarmEvent
from .direction import DirectionLabel
from .pipeline import TrackedObject
from .simulator import TruthRecord
from .types import BoundingBox, Category, Detection, DetectionFrame, key_mismatch

T = TypeVar("T")
PathLike = Union[str, Path]


class ParseError(ValueError):
    """A stream line failed to parse or validate."""


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


def _expect_keys(data: dict, expected: tuple, what: str) -> None:
    if data.keys() != set(expected):
        raise ParseError(f"{what}: {key_mismatch(data, expected)}")


def _int_field(data: dict, key: str, minimum: int = 0) -> int:
    v = data[key]
    if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
        raise ParseError(f"{key} must be an integer >= {minimum}, got {v!r}")
    return v


def _num_field(data: dict, key: str) -> float:
    v = data[key]
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
        raise ParseError(f"{key} must be a finite number, got {v!r}")
    return float(v)


def _str_field(data: dict, key: str) -> str:
    v = data[key]
    if not isinstance(v, str) or not v:
        raise ParseError(f"{key} must be a non-empty string, got {v!r}")
    return v


def _bool_field(data: dict, key: str) -> bool:
    v = data[key]
    if not isinstance(v, bool):
        raise ParseError(f"{key} must be a boolean, got {v!r}")
    return v


def _direction_field(data: dict, key: str) -> Optional[DirectionLabel]:
    v = data[key]
    if v is None:
        return None
    try:
        return DirectionLabel(v)
    except ValueError:
        raise ParseError(f"{key} must be left/right/forward or null, got {v!r}") from None


def _bbox_dict(box: BoundingBox) -> dict:
    return {"x": box.x, "y": box.y, "w": box.w, "h": box.h}


def _bbox_from(data: dict) -> BoundingBox:
    if not isinstance(data, dict):
        raise ParseError(f"bbox must be an object, got {data!r}")
    _expect_keys(data, ("x", "y", "w", "h"), "bbox")
    try:
        return BoundingBox(
            x=_num_field(data, "x"),
            y=_num_field(data, "y"),
            w=_num_field(data, "w"),
            h=_num_field(data, "h"),
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from None


# --- detection stream ---------------------------------------------------

def encode_detection_frame(frame: DetectionFrame) -> str:
    return _dumps(
        {
            "frame_id": frame.frame_id,
            "t_ms": frame.t_ms,
            "detections": [
                {
                    "category": d.category.label,
                    "bbox": _bbox_dict(d.bbox),
                    "confidence": d.confidence,
                }
                for d in frame.detections
            ],
        }
    )


def decode_detection_frame(line: str) -> DetectionFrame:
    data = _loads(line)
    _expect_keys(data, ("frame_id", "t_ms", "detections"), "detection frame")
    raw = data["detections"]
    if not isinstance(raw, list):
        raise ParseError(f"detections must be an array, got {raw!r}")
    detections = []
    for k, item in enumerate(raw):
        if not isinstance(item, dict):
            raise ParseError(f"detection {k}: must be an object")
        _expect_keys(item, ("category", "bbox", "confidence"), f"detection {k}")
        try:
            detections.append(
                Detection(
                    category=Category(_str_field(item, "category")),
                    bbox=_bbox_from(item["bbox"]),
                    confidence=_num_field(item, "confidence"),
                )
            )
        except ValueError as exc:
            raise ParseError(f"detection {k}: {exc}") from None
    try:
        return DetectionFrame(
            frame_id=_int_field(data, "frame_id"),
            t_ms=_int_field(data, "t_ms"),
            detections=tuple(detections),
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from None


# --- truth stream -------------------------------------------------------

def encode_truth_record(rec: TruthRecord) -> str:
    return _dumps(
        {
            "frame_id": rec.frame_id,
            "actor_id": rec.actor_id,
            "true_depth_cm": rec.true_depth_cm,
            "true_lateral_cm": rec.true_lateral_cm,
            "true_direction": rec.true_direction.value,
            "emitted": rec.emitted,
            "true_category": rec.true_category.label,
        }
    )


def decode_truth_record(line: str) -> TruthRecord:
    data = _loads(line)
    _expect_keys(
        data,
        ("frame_id", "actor_id", "true_depth_cm", "true_lateral_cm", "true_direction", "emitted", "true_category"),
        "truth record",
    )
    direction = _direction_field(data, "true_direction")
    if direction is None:
        raise ParseError("true_direction cannot be null")
    depth = _num_field(data, "true_depth_cm")
    if not depth > 0:
        raise ParseError(f"true_depth_cm must be positive, got {depth!r}")
    try:
        return TruthRecord(
            frame_id=_int_field(data, "frame_id"),
            actor_id=_int_field(data, "actor_id"),
            true_depth_cm=depth,
            true_lateral_cm=_num_field(data, "true_lateral_cm"),
            true_direction=direction,
            emitted=_bool_field(data, "emitted"),
            true_category=Category(_str_field(data, "true_category")),
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from None


# --- tracked stream -----------------------------------------------------

def encode_tracked_object(obj: TrackedObject) -> str:
    return _dumps(
        {
            "frame_id": obj.frame_id,
            "object_id": obj.object_id,
            "category": obj.category.label,
            "bbox": _bbox_dict(obj.bbox),
            "distance_cm": obj.distance_cm,
            "direction": None if obj.direction is None else obj.direction.value,
            "matched_from": obj.matched_from,
        }
    )


def decode_tracked_object(line: str) -> TrackedObject:
    data = _loads(line)
    _expect_keys(
        data,
        ("frame_id", "object_id", "category", "bbox", "distance_cm", "direction", "matched_from"),
        "tracked object",
    )
    distance = data["distance_cm"]
    if distance is not None:
        distance = _num_field(data, "distance_cm")
        if not distance > 0:
            raise ParseError(f"distance_cm must be positive or null, got {distance!r}")
    matched_from = data["matched_from"]
    if matched_from is not None and (not isinstance(matched_from, int) or isinstance(matched_from, bool) or matched_from < 0):
        raise ParseError(f"matched_from must be a non-negative integer or null, got {matched_from!r}")
    try:
        return TrackedObject(
            object_id=_int_field(data, "object_id"),
            frame_id=_int_field(data, "frame_id"),
            category=Category(_str_field(data, "category")),
            bbox=_bbox_from(data["bbox"]),
            distance_cm=distance,
            direction=_direction_field(data, "direction"),
            matched_from=matched_from,
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from None


# --- event stream -------------------------------------------------------

def encode_alarm_event(event: AlarmEvent) -> str:
    return _dumps(
        {
            "t_ms": event.t_ms,
            "object_id": event.object_id,
            "category": event.category.label,
            "stage": event.stage,
            "vibration_s": event.vibration_s,
            "distance_cm": event.distance_cm,
            "direction": None if event.direction is None else event.direction.value,
            "message": event.message,
        }
    )


def decode_alarm_event(line: str) -> AlarmEvent:
    data = _loads(line)
    _expect_keys(
        data,
        ("t_ms", "object_id", "category", "stage", "vibration_s", "distance_cm", "direction", "message"),
        "alarm event",
    )
    vibration = _num_field(data, "vibration_s")
    if not vibration > 0:
        raise ParseError(f"vibration_s must be positive, got {vibration!r}")
    distance = _num_field(data, "distance_cm")
    if not distance > 0:
        raise ParseError(f"distance_cm must be positive, got {distance!r}")
    return AlarmEvent(
        t_ms=_int_field(data, "t_ms"),
        object_id=_int_field(data, "object_id"),
        category=Category(_str_field(data, "category")),
        stage=_int_field(data, "stage", minimum=1),
        vibration_s=vibration,
        distance_cm=distance,
        direction=_direction_field(data, "direction"),
        message=_str_field(data, "message"),
    )


# --- file helpers -------------------------------------------------------

def _loads(line: str) -> dict:
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
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield decoder(line)
            except ParseError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None


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
