"""Wire formats: byte-exact round trips and strict decoding."""
import json

import pytest
from hypothesis import given, strategies as st

from streetwatch.alarm import AlarmEvent
from streetwatch.direction import DirectionLabel
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
from streetwatch.types import BoundingBox, Category, Detection, DetectionFrame

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
