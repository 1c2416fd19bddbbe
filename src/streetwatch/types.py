"""Shared vocabulary types for detection streams.

Pixel coordinates: x grows rightward, y grows downward, origin at the
top-left corner of the image. Coordinates are real-valued and boxes may
extend past the frame edges (objects half inside the view are normal).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Iterable, Tuple

KNOWN_CATEGORIES: Tuple[str, ...] = (
    "car",
    "bus",
    "truck",
    "motorcycle",
    "bicycle",
    "person",
)

# Identity assigned by the pipeline, unique within one stream, never reused.
ObjectId = int


class FrameValidationError(ValueError):
    """A frame or one of its detections violates a type invariant."""


@dataclass(frozen=True)
class Category:
    """Object class label.

    The detector vocabulary is the closed set in KNOWN_CATEGORIES; any
    other non-empty label is a legal open-set tag and compares by exact
    string equality like the known ones.
    """

    label: str

    def __post_init__(self):
        if not isinstance(self.label, str) or not self.label:
            raise ValueError("category label must be a non-empty string")

    @property
    def is_known(self) -> bool:
        return self.label in KNOWN_CATEGORIES

    def display(self) -> str:
        """Message form of the label: 'car' -> 'Car'."""
        return self.label[:1].upper() + self.label[1:]


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box. (x, y) is the top-left corner; w and h are strictly positive."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        for name in ("x", "y", "w", "h"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
                raise ValueError(f"box {name} must be a finite number, got {v!r}")
        if not self.w > 0 or not self.h > 0:
            raise ValueError(f"box needs w > 0 and h > 0, got w={self.w}, h={self.h}")

    def center(self) -> Tuple[float, float]:
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)


@dataclass(frozen=True)
class Detection:
    """One detector output: what, where, how sure."""

    category: Category
    bbox: BoundingBox
    confidence: float

    def __post_init__(self):
        c = self.confidence
        if not isinstance(c, (int, float)) or isinstance(c, bool) or not math.isfinite(c):
            raise ValueError(f"confidence must be a finite number, got {c!r}")
        if not 0.0 <= c <= 1.0:
            raise ValueError(f"confidence must lie in [0, 1], got {c}")


@dataclass(frozen=True)
class DetectionFrame:
    """All detections of one video frame.

    frame_id must strictly increase along a stream and t_ms must be
    non-decreasing; both are enforced where streams are consumed, not here.
    """

    frame_id: int
    t_ms: int
    detections: Tuple[Detection, ...]

    def __post_init__(self):
        if not isinstance(self.frame_id, int) or isinstance(self.frame_id, bool) or self.frame_id < 0:
            raise ValueError(f"frame_id must be a non-negative integer, got {self.frame_id!r}")
        if not isinstance(self.t_ms, int) or isinstance(self.t_ms, bool) or self.t_ms < 0:
            raise ValueError(f"t_ms must be a non-negative integer, got {self.t_ms!r}")
        if not isinstance(self.detections, tuple):
            object.__setattr__(self, "detections", tuple(self.detections))


def key_mismatch(keys: Iterable[str], required: Collection[str], optional: Collection[str] = ()) -> str:
    """How keys differ from the required ones plus any optional ones.

    Returns 'missing [...], unexpected [...]' (each part only when it
    applies), or an empty string when the keys fit.
    """
    keys = set(keys)
    missing = sorted(set(required) - keys)
    extra = sorted(keys - set(required) - set(optional))
    problems = []
    if missing:
        problems.append(f"missing {missing}")
    if extra:
        problems.append(f"unexpected {extra}")
    return ", ".join(problems)


def validate_frame(frame: DetectionFrame) -> None:
    """Re-check every invariant of a frame and its detections.

    Construction already rejects invalid values; this guards data that
    arrived through deserialization or was assembled by hand. Raises
    FrameValidationError naming the first offending detection index.
    """
    if not isinstance(frame.frame_id, int) or frame.frame_id < 0:
        raise FrameValidationError(f"frame_id must be a non-negative integer, got {frame.frame_id!r}")
    if not isinstance(frame.t_ms, int) or frame.t_ms < 0:
        raise FrameValidationError(f"t_ms must be a non-negative integer, got {frame.t_ms!r}")
    for i, det in enumerate(frame.detections):
        try:
            Category(det.category.label)
            BoundingBox(det.bbox.x, det.bbox.y, det.bbox.w, det.bbox.h)
            Detection(det.category, det.bbox, det.confidence)
        except ValueError as exc:
            raise FrameValidationError(f"detection {i}: {exc}") from exc
