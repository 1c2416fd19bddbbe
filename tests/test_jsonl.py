"""Wire formats: byte-exact round trips and strict decoding."""
import dataclasses
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from streetwatch.alarm import AlarmEvent
from streetwatch.direction import DirectionLabel
from streetwatch.evaluation import run_scenario
from streetwatch import jsonl
from streetwatch.jsonl import (
    ParseError,
    decode_alarm_event,
    decode_detection_frame,
    decode_tracked_object,
    decode_truth_record,
    encode_alarm_event,
    encode_detection_frame,
    encode_tracked_object,
    encode_truth_record,
    read_detection_frames,
    read_records,
    write_lines,
)
from streetwatch.pipeline import TrackedObject
from streetwatch.simulator import TruthRecord, generate, scenario_by_name
from streetwatch.types import KNOWN_CATEGORIES, BoundingBox, Category, Detection, DetectionFrame

from conftest import make_det, make_frame


def sample_frame():
    return make_frame(3, 99, [make_det("car", cx=100.0, cy=50.25, w=40.0, h=30.0, confidence=0.875)])


def sample_truth():
    return TruthRecord(
        frame_id=3,
        actor_id=1,
        true_depth_cm=580.0,
        true_lateral_cm=-35.5,
        true_direction=DirectionLabel.RIGHT,
        emitted=True,
        true_category=Category("car"),
    )


def sample_tracked(direction=DirectionLabel.LEFT):
    return TrackedObject(
        object_id=4,
        frame_id=3,
        category=Category("person"),
        bbox=BoundingBox(10.0, 20.0, 30.0, 40.0),
        distance_cm=412.5,
        direction=direction,
        matched_from=None if direction is None else 4,
    )


def sample_event():
    return AlarmEvent(
        t_ms=1500,
        object_id=4,
        category=Category("person"),
        stage=2,
        vibration_s=1.2,
        distance_cm=290.0,
        direction=DirectionLabel.LEFT,
        message="Person moving left",
    )


@pytest.mark.parametrize(
    "value,encode,decode",
    [
        (sample_frame(), encode_detection_frame, decode_detection_frame),
        (sample_truth(), encode_truth_record, decode_truth_record),
        (sample_tracked(), encode_tracked_object, decode_tracked_object),
        (sample_tracked(direction=None), encode_tracked_object, decode_tracked_object),
        (sample_event(), encode_alarm_event, decode_alarm_event),
    ],
)
def test_byte_exact_round_trip(value, encode, decode):
    line = encode(value)
    assert decode(line) == value
    assert encode(decode(line)) == line


def test_non_canonical_lines_re_encode_canonically():
    canonical = encode_detection_frame(sample_frame())
    data = json.loads(canonical)
    data["detections"][0]["bbox"]["x"] = 80  # an integer where the encoder writes 80.0
    loose = json.dumps(data)  # default ", " and ": " separators
    assert loose != canonical
    assert encode_detection_frame(decode_detection_frame(loose)) == canonical


@given(
    x=st.floats(min_value=-1e6, max_value=1e6),
    y=st.floats(min_value=-1e6, max_value=1e6),
    w=st.floats(min_value=1e-3, max_value=1e6),
    h=st.floats(min_value=1e-3, max_value=1e6),
    confidence=st.floats(min_value=0.0, max_value=1.0),
)
def test_canonical_lines_are_fixed_points(x, y, w, h, confidence):
    frame = DetectionFrame(0, 0, (Detection(Category("car"), BoundingBox(x, y, w, h), confidence),))
    line = encode_detection_frame(frame)
    assert encode_detection_frame(decode_detection_frame(line)) == line


# Each field is valid, an int (decoded as a float), or a value of another
# JSON kind; non-finite floats and ints too large for a float come often.
special = st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**400)])
other = st.one_of(
    st.floats(),
    st.integers(),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
corner = st.floats(min_value=-1e6, max_value=1e6) | st.integers(min_value=-(10**6), max_value=10**6)
side = st.floats(min_value=1e-3, max_value=1e6) | st.integers(min_value=1, max_value=10**6)
def field(valid):
    # a third each: one_of would weigh the flattened branches alike
    return st.sampled_from([valid, special, other]).flatmap(lambda strategy: strategy)


valid_fields = (
    st.sampled_from(KNOWN_CATEGORIES) | st.text(min_size=1),
    corner,
    corner,
    side,
    side,
    st.floats(min_value=0.0, max_value=1.0) | st.sampled_from([0, 1]),
)
# half the detections valid, so whole frames often decode
detection_fields = st.tuples(*valid_fields) | st.tuples(*map(field, valid_fields))


def built_by_constructors(label, x, y, w, h, confidence):
    """The Detection the public constructors make of these values after the
    decoder's int -> float step, or None when they refuse them."""
    try:
        x, y, w, h, confidence = (float(v) if type(v) in (int, float) else v for v in (x, y, w, h, confidence))
        return Detection(Category(label), BoundingBox(x, y, w, h), confidence)
    except (ValueError, OverflowError):
        return None


@given(fields=st.lists(detection_fields, max_size=3))
def test_decoder_accepts_exactly_what_the_constructors_accept(fields):
    line = json.dumps(
        {
            "frame_id": 0,
            "t_ms": 0,
            "detections": [
                {"category": label, "bbox": {"x": x, "y": y, "w": w, "h": h}, "confidence": c}
                for label, x, y, w, h, c in fields
            ],
        }
    )
    built = [built_by_constructors(*f) for f in fields]
    if None in built:
        with pytest.raises(ParseError):
            decode_detection_frame(line)
    else:
        assert decode_detection_frame(line) == DetectionFrame(0, 0, tuple(built))


# Records for the writers, built through the public constructors. Floats
# include the corners of shortest-repr formatting; strings include
# non-ASCII text and the characters JSON must escape.
finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 1e16, 1e-7])
count = st.integers(min_value=0, max_value=2**63)
direction = st.sampled_from(list(DirectionLabel))
text = (
    st.text()
    | st.text(st.characters(min_codepoint=128))
    | st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028é€😀a'))
)
category = st.builds(Category, text.filter(bool) | st.sampled_from(KNOWN_CATEGORIES))
corner_value = finite | st.integers(min_value=-(10**6), max_value=10**6)
side_value = st.floats(min_value=5e-324, max_value=1e300) | st.integers(min_value=1, max_value=10**6)
box = st.builds(BoundingBox, corner_value, corner_value, side_value, side_value)
detection_frames = st.builds(
    DetectionFrame,
    count,
    count,
    st.lists(
        st.builds(Detection, category, box, st.floats(min_value=0.0, max_value=1.0) | st.sampled_from([0, 1])),
        max_size=3,
    ).map(tuple),
)
truth_records = st.builds(TruthRecord, count, count, finite, finite, direction, st.booleans(), category)


@st.composite
def tracked_objects(draw):
    matched_from = draw(st.none() | count)
    return TrackedObject(
        object_id=draw(count),
        frame_id=draw(count),
        category=draw(category),
        bbox=draw(box),
        distance_cm=draw(st.none() | finite),
        direction=None if matched_from is None else draw(st.none() | direction),
        matched_from=matched_from,
    )


alarm_events = st.builds(
    AlarmEvent, count, count, category, st.integers(min_value=1, max_value=3), finite, finite, st.none() | direction, text
)


def _box_dict(b):
    return {"x": b.x, "y": b.y, "w": b.w, "h": b.h}


def _label(d):
    return None if d is None else d.value


# Each record type: its writer, and the record as the dict whose
# json.dumps the writer's line must equal.
WRITERS = {
    DetectionFrame: (
        encode_detection_frame,
        lambda f: {
            "frame_id": f.frame_id,
            "t_ms": f.t_ms,
            "detections": [
                {"category": d.category.label, "bbox": _box_dict(d.bbox), "confidence": d.confidence}
                for d in f.detections
            ],
        },
    ),
    TruthRecord: (
        encode_truth_record,
        lambda r: {
            "frame_id": r.frame_id,
            "actor_id": r.actor_id,
            "true_depth_cm": r.true_depth_cm,
            "true_lateral_cm": r.true_lateral_cm,
            "true_direction": r.true_direction.value,
            "emitted": r.emitted,
            "true_category": r.true_category.label,
        },
    ),
    TrackedObject: (
        encode_tracked_object,
        lambda o: {
            "frame_id": o.frame_id,
            "object_id": o.object_id,
            "category": o.category.label,
            "bbox": _box_dict(o.bbox),
            "distance_cm": o.distance_cm,
            "direction": _label(o.direction),
            "matched_from": o.matched_from,
        },
    ),
    AlarmEvent: (
        encode_alarm_event,
        lambda e: {
            "t_ms": e.t_ms,
            "object_id": e.object_id,
            "category": e.category.label,
            "stage": e.stage,
            "vibration_s": e.vibration_s,
            "distance_cm": e.distance_cm,
            "direction": _label(e.direction),
            "message": e.message,
        },
    ),
}


@given(record=detection_frames | truth_records | tracked_objects() | alarm_events)
def test_shared_encoder_writes_what_json_dumps_writes(record):
    encode, as_dict = WRITERS[type(record)]
    line = encode(record)
    assert line == json.dumps(as_dict(record), separators=(",", ":"), allow_nan=False)
    assert line.isascii()


# Records the decoders accept: float fields hold floats, and depth and
# distance are positive.
positive = st.floats(min_value=5e-324, max_value=1e300) | st.sampled_from([1.0, 412.0, 1e16])
float_box = st.builds(BoundingBox, finite, finite, positive, positive)
decodable_truth = st.builds(TruthRecord, count, count, positive, finite, direction, st.booleans(), category)


@st.composite
def decodable_tracked(draw):
    matched_from = draw(st.none() | count)
    return TrackedObject(
        object_id=draw(count),
        frame_id=draw(count),
        category=draw(category),
        bbox=draw(float_box),
        distance_cm=draw(st.none() | positive),
        direction=None if matched_from is None else draw(st.none() | direction),
        matched_from=matched_from,
    )


def integral_floats_as_ints(value):
    """value with every integer-valued float, nested ones too, as an int."""
    if type(value) is float and value.is_integer():
        return int(value)
    if type(value) is dict:
        return {k: integral_floats_as_ints(v) for k, v in value.items()}
    return value


def field_types(record):
    """The type of each field, and of each box field of a tracked object."""
    box = vars(record.bbox) if isinstance(record, TrackedObject) else {}
    return [type(v) for v in [*vars(record).values(), *box.values()]]


# Each decodable record type: its writer, its reader and its category field.
CODECS = {
    TruthRecord: (encode_truth_record, decode_truth_record, "true_category"),
    TrackedObject: (encode_tracked_object, decode_tracked_object, "category"),
}


@given(record=decodable_truth | decodable_tracked(), as_ints=st.booleans())
def test_decoded_records_equal_the_written_ones_field_type_for_field_type(record, as_ints):
    encode, decode, category_field = CODECS[type(record)]
    line = encode(record)
    if as_ints:
        line = json.dumps(integral_floats_as_ints(json.loads(line)), separators=(",", ":"))
    decoded = decode(line)
    assert decoded == record
    assert field_types(decoded) == field_types(record)
    # a known label decodes to one shared Category, an open-set one to its own
    first, second = getattr(decoded, category_field), getattr(decode(line), category_field)
    assert (first is second) == (first.label in KNOWN_CATEGORIES)


# Bad and non-canonical field values: non-finite and huge numbers, bools,
# ints where floats go, known and open-set labels, and good, int-valued,
# empty, short, long and non-finite boxes.
POOL = [
    math.nan, math.inf, -math.inf, 10**400, True, False, None, 0, 3, -1, 0.0, 2.5, -2.5, "car", "e-scooter", "",
    "left", "up", "7", [], {}, [1.0, 2.0, 3.0, 4.0],
    {"x": 1, "y": 2, "w": 3, "h": 4},
    {"x": 1.0, "y": 2.0, "w": 0.0, "h": 4.0},
    {"x": 1.0, "y": 2.0, "w": 3.0},
    {"x": 1.0, "y": 2.0, "w": 3.0, "h": 4.0, "z": 0.0},
    {"x": math.nan, "y": 2.0, "w": 3.0, "h": 4.0},
    {"x": 1.0, "y": 2.0, "w": 3.0, "h": 10**400},
]
EXTRA = "extra"
# Each decoder's record: its writer, its reader and the order in which
# its fields are checked. "keys" stands for the key set: it is replaced
# by dropping one key or by adding one.
CHECK_ORDER = {
    TruthRecord: (
        encode_truth_record,
        decode_truth_record,
        ("keys", "true_direction", "true_depth_cm", "frame_id", "actor_id", "true_lateral_cm", "emitted", "true_category"),
    ),
    TrackedObject: (
        encode_tracked_object,
        decode_tracked_object,
        ("keys", "distance_cm", "matched_from", "object_id", "frame_id", "category", "bbox", "direction"),
    ),
}
NO_MATCH = "direction requires a match; matched_from is None"


def replaced(base, changes):
    """The line for base with each (field, value) of changes applied, the
    key set's last."""
    data = dict(base)
    for name, value in sorted(changes, key=lambda change: change[0] == "keys"):
        if name != "keys":
            data[name] = value
        elif value == EXTRA:
            data[EXTRA] = 1
        else:
            del data[value]
    return json.dumps(data, separators=(",", ":"))


def error_text(decode, line):
    try:
        decode(line)
    except ParseError as exc:
        return str(exc)
    return None


@given(record=decodable_truth | decodable_tracked(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_the_earliest_failing_field_words_the_error(record, data):
    encode, decode, order = CHECK_ORDER[type(record)]
    base = json.loads(encode(record))
    if isinstance(record, TrackedObject):
        # a match without a direction: alone, each replacement meets or
        # breaks only its own field's rule
        base["direction"], base["matched_from"] = None, base["matched_from"] or 0
    names = data.draw(st.lists(st.sampled_from(order), min_size=1, max_size=2, unique=True))
    keys = st.sampled_from([*base, EXTRA])
    changes = sorted(
        ((name, data.draw(keys if name == "keys" else st.sampled_from(POOL))) for name in names),
        key=lambda change: order.index(change[0]),
    )
    alone = [error_text(decode, replaced(base, [change])) for change in changes]
    expected = next((text for text in alone if text is not None), None)
    line = replaced(base, changes)
    if expected is None and isinstance(record, TrackedObject):
        # the one rule that spans two fields is checked after every field
        fields = json.loads(line)
        if fields["direction"] is not None and fields["matched_from"] is None:
            expected = NO_MATCH
    assert error_text(decode, line) == expected


def smuggled(record, name, value):
    """A copy of record with value in field name, past the constructor's checks."""
    copy = dataclasses.replace(record)
    object.__setattr__(copy, name, value)
    return copy


def records_with(v):
    """(writer, record) for every float field of every writer, with v in that field."""
    frame, tracked = sample_frame(), sample_tracked()
    det = frame.detections[0]
    cases = [(encode_detection_frame, dataclasses.replace(frame, detections=(smuggled(det, "confidence", v),)))]
    for name in "xywh":
        det_v = dataclasses.replace(det, bbox=smuggled(det.bbox, name, v))
        cases.append((encode_detection_frame, dataclasses.replace(frame, detections=(det_v,))))
        cases.append((encode_tracked_object, dataclasses.replace(tracked, bbox=smuggled(tracked.bbox, name, v))))
    cases.append((encode_tracked_object, smuggled(tracked, "distance_cm", v)))
    cases += [(encode_truth_record, smuggled(sample_truth(), name, v)) for name in ("true_depth_cm", "true_lateral_cm")]
    cases += [(encode_alarm_event, smuggled(sample_event(), name, v)) for name in ("vibration_s", "distance_cm")]
    return cases


def test_shared_encoder_still_refuses_nan():
    for encode, record in records_with(1.5):
        assert ":1.5" in encode(record)
    for bad in (math.nan, math.inf, -math.inf):
        for encode, record in records_with(bad):
            with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
                encode(record)


def test_shared_encoder_still_refuses_unknown_objects():
    for value in (BoundingBox(0.0, 0.0, 1.0, 1.0), "1.5", None, True, [1.0]):
        with pytest.raises(TypeError):
            encode_tracked_object(smuggled(sample_tracked(), "object_id", value))
        with pytest.raises(TypeError):
            encode_alarm_event(smuggled(sample_event(), "vibration_s", value))


def test_float_subclass_is_written_as_the_float_it_holds():
    class Sub(float):
        def __repr__(self):
            return "Sub()"

    def lines(x):
        det = Detection(Category("car"), BoundingBox(x, 2.0, 3.0, 4.0), 0.5)
        tracked = sample_tracked()
        return (
            encode_detection_frame(make_frame(3, 99, [det])),
            encode_tracked_object(dataclasses.replace(tracked, bbox=det.bbox)),
            encode_tracked_object(dataclasses.replace(tracked, distance_cm=x)),
        )

    assert lines(Sub(1.5)) == lines(1.5)


def test_canonical_known_label_lines_skip_the_constructor_checks(monkeypatch):
    calls = []

    def counted(check, name):
        def counted_check(*args):
            calls.append(name)
            return check(*args)

        return counted_check

    for cls in (BoundingBox, Detection):
        monkeypatch.setattr(cls, "__post_init__", counted(cls.__post_init__, cls.__name__))
    monkeypatch.setattr(jsonl, "_box_error", counted(jsonl._box_error, "_box_error"))
    BoundingBox(0.0, 0.0, 1.0, 1.0)
    assert calls == ["BoundingBox"]  # the counter sees constructor calls
    run = run_scenario(scenario_by_name("crowded-midrange"))
    frame_lines = [encode_detection_frame(f) for f in run.frames]
    tracked_lines = [encode_tracked_object(obj) for obj in run.tracked]
    assert sum(len(f.detections) for f in run.frames) > 0 and run.tracked
    del calls[:]
    assert [decode_detection_frame(line) for line in frame_lines] == run.frames
    assert [decode_tracked_object(line) for line in tracked_lines] == run.tracked
    # one box check per decoded box, no constructor check
    assert calls == ["_box_error"] * (sum(len(f.detections) for f in run.frames) + len(run.tracked))


@pytest.mark.parametrize(
    "encode,decode,record,key",
    [
        (encode_tracked_object, decode_tracked_object, sample_tracked(), "distance_cm"),
        (encode_truth_record, decode_truth_record, sample_truth(), "true_depth_cm"),
    ],
)
def test_integer_too_large_for_a_float_is_a_parse_error(encode, decode, record, key):
    data = json.loads(encode(record))
    data[key] = 10**400
    with pytest.raises(ParseError, match=f"^{key} must be a finite number, got 1000"):
        decode(json.dumps(data))


@pytest.mark.parametrize("category", [["car"], {"car": 1}, "", 7, None])
def test_bad_category_values_are_parse_errors(category):
    data = json.loads(encode_detection_frame(sample_frame()))
    data["detections"][0]["category"] = category
    with pytest.raises(ParseError, match="detection 0: category must be a non-empty string"):
        decode_detection_frame(json.dumps(data))


def test_known_and_open_set_categories_decode_alike():
    data = json.loads(encode_detection_frame(sample_frame()))
    data["detections"].append(dict(data["detections"][0], category="e-scooter"))
    frame = decode_detection_frame(json.dumps(data))
    assert [d.category for d in frame.detections] == [Category("car"), Category("e-scooter")]
    assert frame.detections[0].category.is_known and not frame.detections[1].category.is_known


CANONICAL = '{"frame_id":3,"t_ms":99,"detections":[{"category":"car","bbox":{"x":80.0,"y":35.25,"w":40.0,"h":30.0},"confidence":0.875}]}'


@pytest.mark.parametrize(
    "old,new,text",
    [
        ('"x":80.0', '"x":NaN', "detection 0: x must be a finite number, got nan"),
        ('"y":35.25', '"y":Infinity', "detection 0: y must be a finite number, got inf"),
        ('"w":40.0', '"w":-Infinity', "detection 0: w must be a finite number, got -inf"),
        ('"h":30.0', '"h":true', "detection 0: h must be a finite number, got True"),
        ('"x":80.0', '"x":"80"', "detection 0: x must be a finite number, got '80'"),
        ('"w":40.0', '"w":0', "detection 0: box needs w > 0 and h > 0, got w=0.0, h=30.0"),
        ('"h":30.0', '"h":-30.0', "detection 0: box needs w > 0 and h > 0, got w=40.0, h=-30.0"),
        ('"confidence":0.875', '"confidence":1.5', "detection 0: confidence must lie in [0, 1], got 1.5"),
        ('"confidence":0.875', '"confidence":false', "detection 0: confidence must be a finite number, got False"),
        ('"category":"car"', '"category":""', "detection 0: category must be a non-empty string, got ''"),
        ('"category":"car"', '"category":["car"]', "detection 0: category must be a non-empty string, got ['car']"),
        ('"category":"car"', '"category":7', "detection 0: category must be a non-empty string, got 7"),
        ('"t_ms":99,', "", "detection frame: missing ['t_ms']"),
        ('"confidence":0.875', '"confidence":0.875,"score":0.5', "detection 0: unexpected ['score']"),
        ('"confidence":', '"conf":', "detection 0: missing ['confidence'], unexpected ['conf']"),
        ('"w":', '"width":', "detection 0: bbox: missing ['w'], unexpected ['width']"),
        ('{"x":80.0,"y":35.25,"w":40.0,"h":30.0}', "[80.0,35.25,40.0,30.0]", "detection 0: bbox must be an object, got [80.0, 35.25, 40.0, 30.0]"),
        ('[{"category"', '[7,{"category"', "detection 0: must be an object"),
        ('"frame_id":3', '"frame_id":3.0', "frame_id must be an integer >= 0, got 3.0"),
    ],
)
def test_bad_detection_lines_name_what_is_wrong(old, new, text):
    assert encode_detection_frame(sample_frame()) == CANONICAL
    assert old in CANONICAL
    with pytest.raises(ParseError) as info:
        decode_detection_frame(CANONICAL.replace(old, new, 1))
    assert str(info.value) == text


TRACKED = '{"frame_id":3,"object_id":4,"category":"person","bbox":{"x":10.0,"y":20.0,"w":30.0,"h":40.0},"distance_cm":412.5,"direction":"left","matched_from":4}'
HUGE = "1" * 401  # an integer too large for a float


@pytest.mark.parametrize(
    "old,new,text",
    [
        ('"x":10.0', '"x":NaN', "x must be a finite number, got nan"),
        ('"y":20.0', '"y":true', "y must be a finite number, got True"),
        ('"w":30.0', '"w":"1"', "w must be a finite number, got '1'"),
        ('"w":30.0', '"w":0', "box needs w > 0 and h > 0, got w=0.0, h=40.0"),
        ('{"x":10.0,"y":20.0,"w":30.0,"h":40.0}', "[10.0,20.0,30.0,40.0]", "bbox must be an object, got [10.0, 20.0, 30.0, 40.0]"),
        (',"h":40.0', "", "bbox: missing ['h']"),
        ('"h":40.0', f'"h":{HUGE}', f"h must be a finite number, got {HUGE}"),
        ('"object_id":4', '"object_id":4.0', "object_id must be an integer >= 0, got 4.0"),
        ('"object_id":4', '"object_id":true', "object_id must be an integer >= 0, got True"),
        ('"object_id":4', '"object_id":-1', "object_id must be an integer >= 0, got -1"),
        ('"frame_id":3', '"frame_id":3.0', "frame_id must be an integer >= 0, got 3.0"),
        ('"frame_id":3', '"frame_id":false', "frame_id must be an integer >= 0, got False"),
        ('"frame_id":3', '"frame_id":-1', "frame_id must be an integer >= 0, got -1"),
        ('"matched_from":4', '"matched_from":4.0', "matched_from must be a non-negative integer or null, got 4.0"),
        ('"matched_from":4', '"matched_from":true', "matched_from must be a non-negative integer or null, got True"),
        ('"matched_from":4', '"matched_from":-1', "matched_from must be a non-negative integer or null, got -1"),
        ('"matched_from":4', '"matched_from":null', "direction requires a match; matched_from is None"),
        ('"distance_cm":412.5', '"distance_cm":0', "distance_cm must be positive or null, got 0.0"),
        ('"distance_cm":412.5', '"distance_cm":0.0', "distance_cm must be positive or null, got 0.0"),
        ('"distance_cm":412.5', '"distance_cm":NaN', "distance_cm must be a finite number, got nan"),
        ('"distance_cm":412.5', '"distance_cm":"412.5"', "distance_cm must be a finite number, got '412.5'"),
        ('"direction":"left"', '"direction":"up"', "direction must be left/right/forward or null, got 'up'"),
        ('"direction":"left"', '"direction":{}', "direction must be left/right/forward or null, got {}"),
        ('"category":"person"', '"category":""', "category must be a non-empty string, got ''"),
        ('"category":"person"', '"category":7', "category must be a non-empty string, got 7"),
    ],
)
def test_bad_tracked_boxes_name_what_is_wrong(old, new, text):
    assert encode_tracked_object(sample_tracked()) == TRACKED
    assert old in TRACKED
    with pytest.raises(ParseError) as info:
        decode_tracked_object(TRACKED.replace(old, new, 1))
    assert str(info.value) == text


TRUTH = '{"frame_id":3,"actor_id":1,"true_depth_cm":580.0,"true_lateral_cm":-35.5,"true_direction":"right","emitted":true,"true_category":"car"}'


@pytest.mark.parametrize(
    "old,new,text",
    [
        ('"frame_id":3', '"frame_id":3.0', "frame_id must be an integer >= 0, got 3.0"),
        ('"frame_id":3', '"frame_id":-1', "frame_id must be an integer >= 0, got -1"),
        ('"actor_id":1', '"actor_id":true', "actor_id must be an integer >= 0, got True"),
        ('"actor_id":1', '"actor_id":1.5', "actor_id must be an integer >= 0, got 1.5"),
        ('"true_depth_cm":580.0', '"true_depth_cm":0', "true_depth_cm must be positive, got 0.0"),
        ('"true_depth_cm":580.0', '"true_depth_cm":0.0', "true_depth_cm must be positive, got 0.0"),
        ('"true_depth_cm":580.0', '"true_depth_cm":-1.5', "true_depth_cm must be positive, got -1.5"),
        ('"true_depth_cm":580.0', '"true_depth_cm":NaN', "true_depth_cm must be a finite number, got nan"),
        ('"true_depth_cm":580.0', f'"true_depth_cm":{HUGE}', f"true_depth_cm must be a finite number, got {HUGE}"),
        ('"true_lateral_cm":-35.5', '"true_lateral_cm":-Infinity', "true_lateral_cm must be a finite number, got -inf"),
        ('"true_lateral_cm":-35.5', '"true_lateral_cm":"x"', "true_lateral_cm must be a finite number, got 'x'"),
        ('"true_direction":"right"', '"true_direction":"up"', "true_direction must be left/right/forward or null, got 'up'"),
        ('"true_direction":"right"', '"true_direction":null', "true_direction cannot be null"),
        ('"true_direction":"right"', '"true_direction":[]', "true_direction must be left/right/forward or null, got []"),
        ('"emitted":true', '"emitted":1', "emitted must be a boolean, got 1"),
        ('"emitted":true', '"emitted":null', "emitted must be a boolean, got None"),
        ('"true_category":"car"', '"true_category":""', "true_category must be a non-empty string, got ''"),
        ('"true_category":"car"', '"true_category":7', "true_category must be a non-empty string, got 7"),
        (',"emitted":true', "", "truth record: missing ['emitted']"),
    ],
)
def test_bad_truth_records_name_what_is_wrong(old, new, text):
    assert encode_truth_record(sample_truth()) == TRUTH
    assert old in TRUTH
    with pytest.raises(ParseError) as info:
        decode_truth_record(TRUTH.replace(old, new, 1))
    assert str(info.value) == text


DECODERS = [decode_detection_frame, decode_truth_record, decode_tracked_object, decode_alarm_event]


@pytest.mark.parametrize("decode", DECODERS)
@pytest.mark.parametrize(
    "line,text",
    [
        ('{"a":1} x', "invalid JSON: Extra data"),
        ("[1]", "record must be a JSON object, got list"),
        ('"car"', "record must be a JSON object, got str"),
        ("", "invalid JSON: Expecting value"),
        ("{", "invalid JSON: Expecting property name enclosed in double quotes"),
        ('\ufeff{"a":1}', "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    ],
)
def test_lines_that_are_not_one_json_object_keep_json_error_texts(decode, line, text):
    with pytest.raises(ParseError) as info:
        decode(line)
    assert str(info.value) == text


@pytest.mark.parametrize(
    "line,decode,record",
    [
        (CANONICAL, decode_detection_frame, sample_frame()),
        (TRUTH, decode_truth_record, sample_truth()),
        (TRACKED, decode_tracked_object, sample_tracked()),
        (encode_alarm_event(sample_event()), decode_alarm_event, sample_event()),
    ],
)
def test_whitespace_around_a_line_is_skipped(line, decode, record):
    assert decode(f" {line}\t\n") == record
    assert decode(f"{line} ") == record


def test_int_box_and_confidence_fields_re_encode_canonically():
    loose = TRACKED.replace('"x":10.0', '"x":10', 1).replace('"h":40.0', '"h":40', 1)
    obj = decode_tracked_object(loose)
    assert type(obj.bbox.x) is float and type(obj.bbox.h) is float
    assert encode_tracked_object(obj) == TRACKED
    canonical = CANONICAL.replace('"confidence":0.875', '"confidence":1.0', 1)
    frame = decode_detection_frame(canonical.replace('"confidence":1.0', '"confidence":1', 1))
    assert type(frame.detections[0].confidence) is float
    assert encode_detection_frame(frame) == canonical


def test_lines_are_compact_single_objects():
    line = encode_detection_frame(sample_frame())
    assert "\n" not in line
    assert ": " not in line and ", " not in line
    assert json.loads(line)["frame_id"] == 3


def test_detection_frame_key_order_is_stable():
    line = encode_detection_frame(sample_frame())
    assert line.index('"frame_id"') < line.index('"t_ms"') < line.index('"detections"')


def test_simulator_output_round_trips_byte_exactly():
    frames, truth = generate(scenario_by_name("two-crossers-opposite"))
    for frame in frames:
        line = encode_detection_frame(frame)
        assert encode_detection_frame(decode_detection_frame(line)) == line
    for rec in truth:
        line = encode_truth_record(rec)
        assert encode_truth_record(decode_truth_record(line)) == line


def test_unknown_key_is_fatal():
    data = json.loads(encode_truth_record(sample_truth()))
    data["speed"] = 3.0
    with pytest.raises(ParseError, match="speed"):
        decode_truth_record(json.dumps(data))


def test_missing_key_is_fatal():
    data = json.loads(encode_tracked_object(sample_tracked()))
    del data["distance_cm"]
    with pytest.raises(ParseError, match="distance_cm"):
        decode_tracked_object(json.dumps(data))


def test_invalid_json_is_a_parse_error():
    with pytest.raises(ParseError, match="invalid JSON"):
        decode_detection_frame("{not json")
    with pytest.raises(ParseError, match="object"):
        decode_detection_frame("[1, 2, 3]")


def test_out_of_range_values_are_rejected():
    data = json.loads(encode_detection_frame(sample_frame()))
    data["detections"][0]["confidence"] = 1.5
    with pytest.raises(ParseError, match="detection 0"):
        decode_detection_frame(json.dumps(data))

    data = json.loads(encode_truth_record(sample_truth()))
    data["true_depth_cm"] = -10.0
    with pytest.raises(ParseError, match="true_depth_cm"):
        decode_truth_record(json.dumps(data))

    data = json.loads(encode_alarm_event(sample_event()))
    data["vibration_s"] = 0.0
    with pytest.raises(ParseError, match="vibration_s"):
        decode_alarm_event(json.dumps(data))

    data = json.loads(encode_tracked_object(sample_tracked()))
    data["direction"] = "sideways"
    with pytest.raises(ParseError, match="direction"):
        decode_tracked_object(json.dumps(data))


def test_nulls_where_they_belong():
    line = encode_tracked_object(sample_tracked(direction=None))
    data = json.loads(line)
    assert data["direction"] is None
    assert data["matched_from"] is None

    data = json.loads(encode_truth_record(sample_truth()))
    data["true_direction"] = None
    with pytest.raises(ParseError, match="true_direction"):
        decode_truth_record(json.dumps(data))


def test_read_records_cites_the_line_number(tmp_path):
    frames, _ = generate(scenario_by_name("single-crosser"))
    path = tmp_path / "stream.jsonl"
    lines = [encode_detection_frame(f) for f in frames[:5]]
    lines[2] = lines[2].replace('"t_ms"', '"tms"')
    write_lines(path, lines)
    with pytest.raises(ParseError, match="line 3"):
        list(read_records(path, decode_detection_frame))


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_read_records_line_endings_and_non_utf8_lines(tmp_path, newline):
    frames, _ = generate(scenario_by_name("single-crosser"))
    lines = [encode_detection_frame(f).encode("ascii") for f in frames[:5]]
    path = tmp_path / "stream.jsonl"
    path.write_bytes(newline.join(lines) + newline)
    assert read_detection_frames(path) == frames[:5]
    lines[2] = lines[2].replace(b'"car"', b'"c\xe9r"', 1)
    path.write_bytes(newline.join(lines) + newline)
    with pytest.raises(ParseError, match=r"^line 3: not UTF-8 \(invalid continuation byte, byte \d+ of the line\)$"):
        read_detection_frames(path)


def test_write_then_read_lists(tmp_path):
    frames, _ = generate(scenario_by_name("single-crosser"))
    path = tmp_path / "frames.jsonl"
    count = write_lines(path, (encode_detection_frame(f) for f in frames))
    assert count == len(frames)
    raw = path.read_bytes()
    assert raw.endswith(b"\n")
    assert b"\r" not in raw
    assert read_detection_frames(path) == frames


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "frames.jsonl"
    frame_line = encode_detection_frame(sample_frame())
    path.write_text(f"\n{frame_line}\n\n", encoding="utf-8")
    assert read_detection_frames(path) == [sample_frame()]
