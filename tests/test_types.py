"""Vocabulary type invariants."""
import copy
import dataclasses
import math
import pickle
import re
import types

import pytest

from streetwatch.alarm import AlarmEvent, AlarmPolicy, AlarmStage, _checked_event
from streetwatch.camera import CameraIntrinsics, HeightTable
from streetwatch.direction import DirectionConfig, DirectionLabel
from streetwatch.jsonl import decode_detection_frame, encode_detection_frame
from streetwatch.matcher import MatchConfig
from streetwatch.pipeline import Pipeline, PipelineConfig, TrackedObject, _checked_tracked
from streetwatch.simulator import ActorSpec, NoiseSpec, ScenarioSpec, Trajectory
from streetwatch.types import (
    KNOWN_CATEGORIES,
    BoundingBox,
    Category,
    Detection,
    DetectionFrame,
    FrameValidationError,
    TruthRecord,
    _checked_box,
    _checked_detection,
    _checked_truth,
    validate_frame,
)

from conftest import make_det, make_frame


def test_center_is_box_midpoint():
    assert BoundingBox(0.0, 0.0, 10.0, 20.0).center() == (5.0, 10.0)
    assert BoundingBox(-4.0, 2.0, 8.0, 6.0).center() == (0.0, 5.0)


@pytest.mark.parametrize("w,h", [(0.0, 10.0), (10.0, 0.0), (-0.5, 10.0), (10.0, -3.0)])
def test_box_rejects_non_positive_size(w, h):
    with pytest.raises(ValueError):
        BoundingBox(0.0, 0.0, w, h)


def test_box_rejects_non_finite_fields():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            BoundingBox(bad, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            BoundingBox(0.0, 0.0, 1.0, bad)


def test_subpixel_and_offscreen_boxes_are_legal():
    # fractional sizes and negative corners are fine; only w > 0, h > 0 is law
    BoundingBox(-120.5, -8.0, 0.5, 0.25)


def test_confidence_bounds():
    box = BoundingBox(0.0, 0.0, 1.0, 1.0)
    cat = Category("car")
    Detection(cat, box, 0.0)
    Detection(cat, box, 1.0)
    for bad in (-0.1, 1.2, math.nan):
        with pytest.raises(ValueError):
            Detection(cat, box, bad)


def test_category_label_rules():
    # the detector vocabulary is closed; any other label is an open-set tag
    assert Category("car").label in KNOWN_CATEGORIES
    assert Category("dog").label not in KNOWN_CATEGORIES
    assert Category("dog") == Category("dog")
    assert Category("car") != Category("truck")
    with pytest.raises(ValueError):
        Category("")


def test_category_display():
    assert Category("car").display() == "Car"
    assert Category("person").display() == "Person"
    assert Category("e-scooter").display() == "E-scooter"


def test_known_categories_cover_the_detector_vocabulary():
    assert set(KNOWN_CATEGORIES) == {"car", "bus", "truck", "motorcycle", "bicycle", "person"}


def test_frame_field_rules():
    frame = make_frame(0, 0, [make_det()])
    assert frame.detections == (make_det(),)
    with pytest.raises(ValueError):
        DetectionFrame(frame_id=-1, t_ms=0, detections=())
    with pytest.raises(ValueError):
        DetectionFrame(frame_id=0, t_ms=-5, detections=())


def test_frame_coerces_detection_list_to_tuple():
    frame = DetectionFrame(frame_id=3, t_ms=99, detections=[make_det()])
    assert isinstance(frame.detections, tuple)


def test_validate_frame_accepts_well_formed():
    validate_frame(make_frame(2, 40, [make_det(), make_det("person", cx=100.0)]))


def test_validate_frame_names_the_bad_detection():
    good = make_det()
    # smuggle an out-of-range confidence past __post_init__
    bad = object.__new__(Detection)
    object.__setattr__(bad, "category", Category("car"))
    object.__setattr__(bad, "bbox", BoundingBox(0.0, 0.0, 5.0, 5.0))
    object.__setattr__(bad, "confidence", 1.7)
    frame = make_frame(0, 0, [good, good, bad])
    with pytest.raises(FrameValidationError, match="detection 2"):
        validate_frame(frame)


def test_validate_frame_catches_degenerate_box():
    det = object.__new__(Detection)
    box = object.__new__(BoundingBox)
    for name, value in (("x", 0.0), ("y", 0.0), ("w", 0.0), ("h", 10.0)):
        object.__setattr__(box, name, value)
    object.__setattr__(det, "category", Category("car"))
    object.__setattr__(det, "bbox", box)
    object.__setattr__(det, "confidence", 0.9)
    with pytest.raises(FrameValidationError, match="detection 0"):
        validate_frame(make_frame(0, 0, [det]))


def smuggle(cls, **fields):
    """An instance whose fields were never checked by its constructor."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


GOOD_BOX = dict(x=0.0, y=0.0, w=5.0, h=5.0)


@pytest.mark.parametrize(
    "field,value",
    [(name, bad) for name in ("x", "h") for bad in (math.nan, math.inf, -math.inf, True, "1")]
    + [("w", 0.0), ("w", -2.5), ("h", 0.0), ("h", -1)]
    + [("confidence", -0.1), ("confidence", 1.5), ("confidence", math.nan)]
    + [("label", "")],
)
def test_constructor_and_validate_frame_report_the_same_text(field, value, intrinsics, heights):
    box, label, confidence = dict(GOOD_BOX), "car", 0.5
    with pytest.raises(ValueError) as built:
        if field in box:
            box[field] = value
            BoundingBox(**box)
        elif field == "confidence":
            confidence = value
            Detection(Category(label), BoundingBox(**box), confidence)
        else:
            label = value
            Category(label)
    bad = smuggle(
        Detection,
        category=smuggle(Category, label=label),
        bbox=smuggle(BoundingBox, **box),
        confidence=confidence,
    )
    with pytest.raises(FrameValidationError) as validated:
        validate_frame(make_frame(0, 0, [make_det(), bad]))
    assert str(validated.value) == f"detection 1: {built.value}"
    # the pipeline checks in full a frame the decoder did not build, a
    # replace of a decoded frame included
    decoded = decode_detection_frame(encode_detection_frame(make_frame(0, 0, [make_det(), make_det()])))
    for frame in (make_frame(0, 0, [make_det(), bad]), dataclasses.replace(decoded, detections=(make_det(), bad))):
        with pytest.raises(FrameValidationError) as validated:
            Pipeline(PipelineConfig(camera=intrinsics, heights=heights)).process_frame(frame)
        assert str(validated.value) == f"detection 1: {built.value}"


def test_detection_rejects_parts_of_the_wrong_type():
    box = BoundingBox(0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="category must be a Category"):
        Detection("car", box, 0.5)
    with pytest.raises(ValueError, match="bbox must be a BoundingBox"):
        Detection(Category("car"), (0, 0, 1, 1), 0.5)


@pytest.mark.parametrize(
    "bad",
    [
        "car",
        (Category("car"), BoundingBox(0.0, 0.0, 1.0, 1.0), 0.5),
        smuggle(Detection, category="car", bbox=BoundingBox(0.0, 0.0, 1.0, 1.0), confidence=0.5),
        smuggle(Detection, category=Category("car"), bbox=(0, 0, 1, 1), confidence=0.5),
    ],
)
def test_validate_frame_rejects_what_is_not_a_detection(bad, intrinsics, heights):
    frame = make_frame(0, 0, [make_det(), bad])
    with pytest.raises(FrameValidationError, match="^detection 1: "):
        validate_frame(frame)
    pipeline = Pipeline(PipelineConfig(camera=intrinsics, heights=heights))
    with pytest.raises(FrameValidationError, match="^detection 1: "):
        pipeline.process_frame(frame)


@pytest.mark.parametrize(
    "frame",
    [None, types.SimpleNamespace(frame_id=0, t_ms=0, detections=())],
    ids=["None", "duck-typed"],
)
def test_validate_frame_refuses_what_is_not_a_detection_frame(frame, intrinsics, heights):
    text = f"frame must be a DetectionFrame, got {frame!r}"
    with pytest.raises(FrameValidationError) as info:
        validate_frame(frame)
    assert str(info.value) == text
    with pytest.raises(FrameValidationError) as info:
        Pipeline(PipelineConfig(camera=intrinsics, heights=heights)).process_frame(frame)
    assert str(info.value) == text


@pytest.mark.parametrize("field", ["frame_id", "t_ms"])
@pytest.mark.parametrize("value", [True, False, -1, 3.0, "3"])
def test_frame_constructor_and_validate_frame_agree_on_stamps(field, value, intrinsics, heights):
    stamps = dict(frame_id=0, t_ms=0)
    with pytest.raises(ValueError) as built:
        DetectionFrame(detections=(), **dict(stamps, **{field: value}))
    frame = smuggle(DetectionFrame, detections=(make_det(),), **dict(stamps, **{field: value}))
    with pytest.raises(FrameValidationError) as validated:
        validate_frame(frame)
    assert str(validated.value) == str(built.value)
    pipeline = Pipeline(PipelineConfig(camera=intrinsics, heights=heights))
    with pytest.raises(FrameValidationError):
        pipeline.process_frame(frame)


# Each record built once per detection, cell or event: its class, its
# builder and the builder's (and constructor's) positional arguments.
SLOTTED = [
    (BoundingBox, _checked_box, (1.0, -2.5, 3.0, 4.0)),
    (Detection, _checked_detection, (Category("car"), BoundingBox(1.0, -2.5, 3.0, 4.0), 0.5)),
    (TruthRecord, _checked_truth, (3, 1, 580.0, -35.5, DirectionLabel.RIGHT, False, Category("car"))),
    (TrackedObject, _checked_tracked, (4, 3, Category("person"), BoundingBox(1.0, 2.0, 3.0, 4.0), None, DirectionLabel.LEFT, 4)),
    (AlarmEvent, _checked_event, (1500, 4, Category("person"), 2, 1.2, 290.0, None, "Person ahead")),
]


@pytest.mark.parametrize("cls,build,args", SLOTTED, ids=[cls.__name__ for cls, _, _ in SLOTTED])
def test_built_records_are_slotted_and_equal_constructed_ones(cls, build, args):
    built, constructed = build(*args), cls(*args)
    assert type(built) is cls
    assert built == constructed
    assert hash(built) == hash(constructed)
    assert repr(built) == repr(constructed)
    # a dropped slots=True gives every instance a __dict__ again
    assert not hasattr(built, "__dict__")
    names = [f.name for f in dataclasses.fields(cls)]
    assert [getattr(built, name) for name in names] == list(args)
    assert dataclasses.replace(built) == built
    assert dataclasses.asdict(built) == dataclasses.asdict(constructed)
    assert list(dataclasses.asdict(built)) == names
    assert copy.copy(built) == built
    assert pickle.loads(pickle.dumps(built)) == built
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(built, names[0], args[0])



# --- one refusal table ------------------------------------------------------
#
# Every single-value rule of a constructor reads "<field> must be <rule>,
# got <value!r>", with "or null" for a field that may be None and the actor
# named before an actor's field, and <rule> is one of these.
RULE_WORDINGS = (
    "a finite number",
    "a positive finite number",
    "a non-negative finite number",
    "a number in [0, 1]",
    "an integer >= 0",
    "an integer >= 1",
    "a boolean",
    "a non-empty string",
)
CAMERA = CameraIntrinsics(focal_px=1000.0, image_w=640.0, image_h=480.0)
# valid keyword arguments for each constructor type
VALID = {
    CameraIntrinsics: dict(focal_px=1000.0, image_w=640.0, image_h=480.0),
    MatchConfig: {},
    DirectionConfig: {},
    AlarmStage: dict(stage=1, band_lo_cm=570.0, band_hi_cm=600.0, vibration_s=0.8),
    AlarmPolicy: {},
    NoiseSpec: {},
    Trajectory: dict(kind="linear", x0_cm=0.0, z0_cm=500.0),
    ActorSpec: dict(
        actor_id=3, category=Category("car"), real_height_cm=140.0, aspect_ratio=2.0,
        trajectory=Trajectory("stationary", 0.0, 500.0),
    ),
    ScenarioSpec: dict(duration_s=2.0, frame_rate_hz=10.0, camera=CAMERA, camera_height_cm=140.0, actors=()),
}
# (type, field): a value the field's rule refuses
REFUSED = {
    (CameraIntrinsics, "focal_px"): 0.0,
    (CameraIntrinsics, "image_w"): math.inf,
    (CameraIntrinsics, "image_h"): "480",
    (MatchConfig, "max_center_dist_px"): True,
    (DirectionConfig, "gap"): 0,
    (DirectionConfig, "dead_zone_px"): math.nan,
    (AlarmStage, "stage"): 1.0,
    (AlarmStage, "band_lo_cm"): -5.0,
    (AlarmStage, "band_hi_cm"): math.inf,
    (AlarmStage, "vibration_s"): 10**400,
    (AlarmPolicy, "cooldown_ms"): -1,
    (AlarmPolicy, "max_events_per_frame"): True,
    (AlarmPolicy, "cumulative_bands"): 1,
    (NoiseSpec, "center_jitter_px"): -0.5,
    (NoiseSpec, "height_jitter_frac"): math.inf,
    (NoiseSpec, "drop_prob"): 1.5,
    (NoiseSpec, "label_flip_prob"): "0.1",
    (Trajectory, "x0_cm"): math.nan,
    (Trajectory, "z0_cm"): "500",
    (Trajectory, "vx_cm_s"): 10**400,
    (Trajectory, "vz_cm_s"): True,
    (ActorSpec, "actor_id"): -1,
    (ActorSpec, "real_height_cm"): 0,
    (ActorSpec, "aspect_ratio"): "2",
    (ActorSpec, "enter_s"): "1",
    (ActorSpec, "exit_s"): math.inf,
    (ScenarioSpec, "name"): "",
    (ScenarioSpec, "duration_s"): 0,
    (ScenarioSpec, "frame_rate_hz"): -10.0,
    (ScenarioSpec, "camera_height_cm"): None,
    (ScenarioSpec, "seed"): -1,
}
# the fields whose rule is not a single-value one: a type, a set of names,
# a rule across fields or no rule at all
NOT_A_VALUE_RULE = {
    (HeightTable, "entries"),  # a mapping; its keys and heights are checked below
    (Trajectory, "kind"),
    (ActorSpec, "category"),
    (ActorSpec, "trajectory"),
    (AlarmPolicy, "stages"),
    (ScenarioSpec, "camera"),
    (ScenarioSpec, "actors"),
    (ScenarioSpec, "noise"),
}
REFUSAL = re.compile(
    rf"(actor \d+: )?(?P<field>.+) must be (?:{'|'.join(map(re.escape, RULE_WORDINGS))})( or null)?, got (?P<value>.+)"
)


def refusal_of(build) -> re.Match:
    with pytest.raises(ValueError) as info:
        build()
    match = REFUSAL.fullmatch(str(info.value))
    assert match, str(info.value)
    return match


def test_every_constructor_field_has_a_value_rule_or_is_named_as_having_none():
    classes = [*VALID, HeightTable]
    assert {(cls, f.name) for cls in classes for f in dataclasses.fields(cls)} == set(REFUSED) | NOT_A_VALUE_RULE


@pytest.mark.parametrize("cls,name", REFUSED, ids=[f"{cls.__name__}.{name}" for cls, name in REFUSED])
def test_each_constructor_refuses_a_value_in_the_words_of_the_rule_table(cls, name):
    value = REFUSED[cls, name]
    match = refusal_of(lambda: cls(**dict(VALID[cls], **{name: value})))
    assert (match["field"], match["value"]) == (name, repr(value))


@pytest.mark.parametrize(
    "entries,field,value",
    [({"": 140.0}, "height table key", ""), ({"car": 0}, "height for 'car'", 0), ({"dog": "80"}, "height for 'dog'", "80")],
)
def test_the_height_table_refuses_a_key_or_height_in_the_words_of_the_rule_table(entries, field, value):
    match = refusal_of(lambda: HeightTable(entries))
    assert (match["field"], match["value"]) == (field, repr(value))


@pytest.mark.parametrize("entries", [None, [("car", 140.0)]], ids=["None", "pairs"])
def test_the_height_table_refuses_entries_that_are_not_a_mapping(entries):
    with pytest.raises(ValueError) as info:
        HeightTable(entries)
    assert str(info.value) == f"entries must be a Mapping, got {entries!r}"
