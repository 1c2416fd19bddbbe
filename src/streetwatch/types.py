"""Shared vocabulary types for detection streams.

Pixel coordinates: x grows rightward, y grows downward, origin at the
top-left corner of the image. Coordinates are real-valued and boxes may
extend past the frame edges (objects half inside the view are normal).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Collection, Iterable, Tuple

if TYPE_CHECKING:
    from .direction import DirectionLabel

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

_INF = math.inf
_new = object.__new__
_set = object.__setattr__


class FrameValidationError(ValueError):
    """A frame or one of its detections violates a type invariant."""


def _is_finite_number(v) -> bool:
    """A number that is not a bool and is finite; an int too large for a float is not."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# Each single-value rule once: its test and its wording. Every constructor,
# the frame check and every decoder's miss path refuse a value by naming
# its rule here, so a refusal always reads "<field> must be <wording>, got
# <value!r>"; a field that may be None adds "or null" to the wording.
_RULES = {
    "finite": (_is_finite_number, "a finite number"),
    "positive": (lambda v: _is_finite_number(v) and v > 0, "a positive finite number"),
    "non-negative": (lambda v: _is_finite_number(v) and v >= 0, "a non-negative finite number"),
    "fraction": (lambda v: _is_finite_number(v) and 0 <= v <= 1, "a number in [0, 1]"),
    "int>=0": (lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
    "int>=1": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "text": (lambda v: isinstance(v, str) and v != "", "a non-empty string"),
}


def _refusal(rule: str, name: str, v, nullable: bool = False) -> str:
    """The text refusing v as field name under rule, or "" when v passes
    (None passes a nullable field)."""
    test, wording = _RULES[rule]
    if test(v) or (nullable and v is None):
        return ""
    return f"{name} must be {wording}{' or null' if nullable else ''}, got {v!r}"


def _check(obj, rule: str, *names: str, nullable: bool = False, error=ValueError, where: str = "") -> None:
    """Raise error, with where before the text, for the first of obj's
    fields names that rule refuses."""
    for name in names:
        text = _refusal(rule, name, getattr(obj, name), nullable)
        if text:
            raise error(where + text)


def _type_refusal(name: str, v, cls: type) -> str:
    """The text refusing v as field name when it is not a cls, or ""."""
    article = "an" if cls.__name__[0] in "AEIOU" else "a"
    return "" if isinstance(v, cls) else f"{name} must be {article} {cls.__name__}, got {v!r}"


def _check_type(obj, cls: type, name: str, each: bool = False, error=ValueError, where: str = "") -> None:
    """Raise error, with where before the text, when obj's field name does
    not hold a cls record or, with each, a tuple of them."""
    v = getattr(obj, name)
    if each and (text := _type_refusal(name, v, tuple)):
        raise error(where + text)
    for label, item in [(f"{name}[{k}]", item) for k, item in enumerate(v)] if each else [(name, v)]:
        if text := _type_refusal(label, item, cls):
            raise error(where + text)


# Each record invariant is checked in one place: these return the error
# text, or "" when the values are valid. The constructors raise ValueError
# with it and validate_frame raises FrameValidationError with it, so both
# say the same. The exact-float test before each slow path is the decode
# hot path's.

def _box_error(x, y, w, h) -> str:
    if (
        type(x) is float and type(y) is float and type(w) is float and type(h) is float
        and -_INF < x < _INF and -_INF < y < _INF and 0.0 < w < _INF and 0.0 < h < _INF
    ):
        return ""
    return (
        _refusal("finite", "box x", x) or _refusal("finite", "box y", y)
        or _refusal("positive", "box w", w) or _refusal("positive", "box h", h)
    )


def _confidence_error(c) -> str:
    if type(c) is float and 0.0 <= c <= 1.0:
        return ""
    return _refusal("fraction", "confidence", c)


def _parts_error(category, bbox) -> str:
    return _type_refusal("detection category", category, Category) or _type_refusal("detection bbox", bbox, BoundingBox)


@dataclass(frozen=True)
class Category:
    """Object class label.

    The detector vocabulary is the closed set in KNOWN_CATEGORIES; any
    other non-empty label is a legal open-set tag and compares by exact
    string equality like the known ones.
    """

    label: str

    def __post_init__(self):
        _check(self, "text", "label", where="category ")

    def display(self) -> str:
        """Message form of the label: 'car' -> 'Car'."""
        return self.label[:1].upper() + self.label[1:]


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Axis-aligned box. (x, y) is the top-left corner; w and h are strictly positive."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        text = _box_error(self.x, self.y, self.w, self.h)
        if text:
            raise ValueError(text)

    def center(self) -> Tuple[float, float]:
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)


@dataclass(frozen=True, slots=True)
class Detection:
    """One detector output: what, where, how sure."""

    category: Category
    bbox: BoundingBox
    confidence: float

    def __post_init__(self):
        text = _parts_error(self.category, self.bbox) or _confidence_error(self.confidence)
        if text:
            raise ValueError(text)


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
        _check(self, "int>=0", "frame_id", "t_ms")
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


def _refused_as(error, prefix: str, build, *args, **values):
    """build(*args, **values), a ValueError it raises re-raised as error
    with prefix, which says where the refused value sits, before its text."""
    try:
        return build(*args, **values)
    except ValueError as exc:
        raise error(f"{prefix} {exc}") from None


def validate_frame(frame: DetectionFrame) -> None:
    """Re-check every invariant of a frame and its detections.

    Construction already rejects invalid values; this guards objects that
    were assembled around the constructors. It reads the fields and builds
    nothing. Raises FrameValidationError naming the first offending
    detection index, with the text its constructor would have raised.
    A frame from _checked_frame (the detection decoder's or the
    simulator's) had every value checked as it was built, and returns at
    once.
    """
    if getattr(frame, "_checked", False):
        return
    _check(frame, "int>=0", "frame_id", "t_ms", error=FrameValidationError)
    for i, det in enumerate(frame.detections):
        if not isinstance(det, Detection):
            text = f"must be a Detection, got {det!r}"
        else:
            box = det.bbox
            text = (
                _parts_error(det.category, box)
                or _refusal("text", "category label", det.category.label)
                or _box_error(box.x, box.y, box.w, box.h)
                or _confidence_error(det.confidence)
            )
        if text:
            raise FrameValidationError(f"detection {i}: {text}")


@dataclass(frozen=True, slots=True)
class TruthRecord:
    """Ground truth for one actor at one frame, emitted or not."""

    frame_id: int
    actor_id: int
    true_depth_cm: float
    true_lateral_cm: float
    true_direction: DirectionLabel
    emitted: bool
    true_category: Category


# The builders below skip __post_init__: each takes values that its caller
# has already checked with the helpers above (the comment on each says
# which). Each field is written through its slot's setter, bound once
# here: the generated __init__ goes through object.__setattr__, which
# looks the name up on the class each time to find that same setter.

def _slot_builder(cls):
    """A function that builds the slotted dataclass cls from its field
    values, given in field order, through each field's slot setter.

    As dataclasses does for __init__, it writes the body with exec: one
    straight-line setter call per field, since a loop over the setters
    costs 60-85% more per record. Only the field names of this package's
    record classes reach exec.
    """
    names = [f.name for f in fields(cls)]
    env = {f"_set_{name}": getattr(cls, name).__set__ for name in names}
    env.update(_new=_new, _cls=cls)
    lines = [f"def build({', '.join(names)}):", "    obj = _new(_cls)"]
    lines += [f"    _set_{name}(obj, {name})" for name in names]
    lines.append("    return obj")
    exec("\n".join(lines), env)
    build = env["build"]
    build.__qualname__ = build.__name__ = f"_build_{cls.__name__}"
    return build


# four floats that pass _box_error
_checked_box = _slot_builder(BoundingBox)
# a valid Category, a box from _checked_box and a float that passes _confidence_error
_checked_detection = _slot_builder(Detection)
# nothing: TruthRecord's constructor checks nothing either
_checked_truth = _slot_builder(TruthRecord)


def _checked_frame(frame_id: int, t_ms: int, detections: Tuple[Detection, ...]) -> DetectionFrame:
    """A DetectionFrame of two stamps that pass the "int>=0" rule and a tuple of
    detections from _checked_detection or from a frame that validate_frame
    has passed, marked so that validate_frame trusts it. The mark is an
    instance attribute, not a field: ==, hash and repr ignore it, and
    dataclasses.replace drops it. DetectionFrame is not slotted, so that
    it can hold the mark."""
    frame = _new(DetectionFrame)
    _set(frame, "frame_id", frame_id)
    _set(frame, "t_ms", t_ms)
    _set(frame, "detections", detections)
    _set(frame, "_checked", True)
    return frame
