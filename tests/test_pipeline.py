"""End-to-end per-frame behavior: ids, direction, alarms, stream order."""
import pytest

from streetwatch.alarm import AlarmPolicy
from streetwatch.camera import CameraIntrinsics, HeightTable
from streetwatch.direction import DirectionConfig, DirectionLabel
from streetwatch.pipeline import (
    WINDOW_DEPTH,
    Pipeline,
    PipelineConfig,
    StreamOrderError,
    TrackedObject,
)
from streetwatch.types import BoundingBox, Category

from conftest import make_det, make_frame


def make_config(**overrides) -> PipelineConfig:
    defaults = dict(
        camera=CameraIntrinsics(focal_px=1000.0, image_w=640.0, image_h=480.0),
        camera_height_cm=140.0,
        heights=HeightTable({"car": 140.0, "person": 165.0}),
        direction=DirectionConfig(gap=2, dead_zone_px=8.0),
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def car_at(cx: float, depth_cm: float = 580.0):
    # h = f * H / Z, so the pipeline's estimate lands exactly on depth_cm
    h = 1000.0 * 140.0 / depth_cm
    return make_det("car", cx=cx, cy=240.0, w=2.0 * h, h=h)


def test_first_frame_gets_fresh_ids_and_no_direction():
    pipeline = Pipeline(make_config())
    tracked, _ = pipeline.process_frame(make_frame(0, 0, [car_at(100.0), car_at(300.0)]))
    assert [t.object_id for t in tracked] == [0, 1]
    assert all(t.direction is None for t in tracked)
    assert all(t.matched_from is None for t in tracked)


def test_distance_is_estimated_per_detection():
    pipeline = Pipeline(make_config())
    tracked, _ = pipeline.process_frame(make_frame(0, 0, [car_at(100.0, depth_cm=580.0)]))
    assert tracked[0].distance_cm == pytest.approx(580.0)


def test_three_frame_crosser_alarms_with_direction():
    # car at 580 cm sliding right 30 px per frame; by frame 2 the gap-2
    # displacement is 60 px, far past the dead zone
    cfg = make_config(alarm=AlarmPolicy(cooldown_ms=0))
    pipeline = Pipeline(cfg)

    tracked, events = pipeline.process_frame(make_frame(0, 0, [car_at(100.0)]))
    assert tracked[0].direction is None
    assert len(events) == 1 and events[0].message == "Car ahead"

    tracked, events = pipeline.process_frame(make_frame(1, 100, [car_at(130.0)]))
    # bridged to the previous frame: same id, still no direction
    assert tracked[0].object_id == 0
    assert tracked[0].direction is None
    assert len(events) == 1 and events[0].message == "Car ahead"

    tracked, events = pipeline.process_frame(make_frame(2, 200, [car_at(160.0)]))
    assert tracked[0].object_id == 0
    assert tracked[0].direction is DirectionLabel.RIGHT
    assert len(events) == 1
    assert events[0].stage == 1
    assert events[0].message == "Car moving right"
    assert events[0].distance_cm == pytest.approx(580.0)


def test_default_cooldown_quiets_a_lingering_object():
    pipeline = Pipeline(make_config())
    emitted = []
    for i in range(10):
        _, events = pipeline.process_frame(make_frame(i, i * 100, [car_at(100.0 + i)]))
        emitted.extend(events)
    # 10 frames * 100 ms with a 1500 ms cooldown: one alarm only
    assert len(emitted) == 1
    assert emitted[0].t_ms == 0


def test_identity_survives_ten_frames():
    pipeline = Pipeline(make_config())
    ids = set()
    for i in range(10):
        tracked, _ = pipeline.process_frame(make_frame(i, i * 33, [car_at(100.0 + 5.0 * i)]))
        ids.add(tracked[0].object_id)
    assert ids == {0}


def test_identity_survives_a_one_frame_occlusion():
    pipeline = Pipeline(make_config())
    pipeline.process_frame(make_frame(0, 0, [car_at(100.0)]))
    pipeline.process_frame(make_frame(1, 33, []))
    tracked, _ = pipeline.process_frame(make_frame(2, 66, [car_at(120.0)]))
    # the gap-2 reference is frame 0, so the hole at frame 1 does not matter
    assert tracked[0].object_id == 0
    assert tracked[0].direction is DirectionLabel.RIGHT


def test_long_absence_retires_the_id():
    pipeline = Pipeline(make_config())
    pipeline.process_frame(make_frame(0, 0, [car_at(100.0)]))
    for i in (1, 2, 3):
        pipeline.process_frame(make_frame(i, i * 33, []))
    tracked, _ = pipeline.process_frame(make_frame(4, 132, [car_at(100.0)]))
    # both lookbacks hit empty frames; ids are never reused
    assert tracked[0].object_id == 1
    assert tracked[0].direction is None


def test_direction_only_comes_from_the_gap_match():
    pipeline = Pipeline(make_config())
    pipeline.process_frame(make_frame(0, 0, [car_at(100.0)]))
    tracked, _ = pipeline.process_frame(make_frame(1, 33, [car_at(150.0)]))
    # id bridged via the previous frame, but direction stays unset: the
    # one-frame displacement is not what the gap classifier measures
    assert tracked[0].object_id == 0
    assert tracked[0].direction is None
    assert tracked[0].matched_from == 0


def test_unknown_category_tracks_without_distance_or_alarms():
    cfg = make_config(alarm=AlarmPolicy(cooldown_ms=0))
    pipeline = Pipeline(cfg)
    dog = make_det("dog", cx=100.0, cy=240.0, w=80.0, h=241.4)
    pipeline.process_frame(make_frame(0, 0, [dog]))
    dog2 = make_det("dog", cx=150.0, cy=240.0, w=80.0, h=241.4)
    pipeline.process_frame(make_frame(1, 33, [dog2]))
    dog3 = make_det("dog", cx=200.0, cy=240.0, w=80.0, h=241.4)
    tracked, events = pipeline.process_frame(make_frame(2, 66, [dog3]))
    assert tracked[0].object_id == 0
    assert tracked[0].distance_cm is None
    assert tracked[0].direction is DirectionLabel.RIGHT
    assert events == []


def test_two_objects_keep_separate_identities():
    pipeline = Pipeline(make_config())
    for i in range(6):
        frame = make_frame(
            i,
            i * 33,
            [
                car_at(100.0 + 10.0 * i),
                make_det("person", cx=500.0 - 10.0 * i, cy=240.0, w=60.0, h=150.0),
            ],
        )
        tracked, _ = pipeline.process_frame(frame)
        assert [t.object_id for t in tracked] == [0, 1]
    assert tracked[0].direction is DirectionLabel.RIGHT
    assert tracked[1].direction is DirectionLabel.LEFT


def test_frame_id_must_increase():
    pipeline = Pipeline(make_config())
    pipeline.process_frame(make_frame(5, 100, []))
    with pytest.raises(StreamOrderError, match="frame_id"):
        pipeline.process_frame(make_frame(5, 200, []))
    with pytest.raises(StreamOrderError, match="frame_id"):
        pipeline.process_frame(make_frame(3, 300, []))


def test_time_must_not_go_backwards():
    pipeline = Pipeline(make_config())
    pipeline.process_frame(make_frame(0, 100, []))
    with pytest.raises(StreamOrderError, match="t_ms"):
        pipeline.process_frame(make_frame(1, 99, []))
    # equal timestamps are allowed
    pipeline.process_frame(make_frame(1, 100, []))


def test_frame_ids_may_skip_numbers():
    pipeline = Pipeline(make_config())
    pipeline.process_frame(make_frame(0, 0, [car_at(100.0)]))
    tracked, _ = pipeline.process_frame(make_frame(7, 700, [car_at(105.0)]))
    # the window is positional, so the skip lands on the previous entry
    assert tracked[0].object_id == 0


def test_empty_stream_is_fine():
    pipeline = Pipeline(make_config())
    for i in range(4):
        tracked, events = pipeline.process_frame(make_frame(i, i * 33, []))
        assert tracked == [] and events == []


def test_direction_requires_a_match_invariant():
    with pytest.raises(ValueError):
        TrackedObject(
            object_id=0,
            frame_id=0,
            category=Category("car"),
            bbox=BoundingBox(0.0, 0.0, 10.0, 10.0),
            distance_cm=None,
            direction=DirectionLabel.LEFT,
            matched_from=None,
        )


def test_gap_cannot_exceed_the_window():
    with pytest.raises(ValueError):
        make_config(direction=DirectionConfig(gap=WINDOW_DEPTH + 1, dead_zone_px=8.0))


def test_replaying_a_stream_is_deterministic():
    frames = [
        make_frame(i, i * 33, [car_at(100.0 + 7.0 * i), make_det("person", cx=400.0 - 6.0 * i, cy=240.0, w=60.0, h=150.0)])
        for i in range(8)
    ]
    runs = []
    for _ in range(2):
        pipeline = Pipeline(make_config())
        out = []
        for frame in frames:
            tracked, events = pipeline.process_frame(frame)
            out.append((tuple(tracked), tuple(events)))
        runs.append(out)
    assert runs[0] == runs[1]
