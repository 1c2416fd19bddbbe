"""End-to-end per-frame behavior: ids, direction, alarms, stream order."""
import dataclasses
import hashlib
import types

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

import streetwatch.pipeline as sw_pipeline
import streetwatch.types as sw_types
from streetwatch import simulator
from streetwatch.alarm import AlarmPolicy
from streetwatch.camera import CameraIntrinsics, HeightTable
from streetwatch.direction import DirectionConfig, DirectionLabel
from streetwatch.evaluation import config_for_scenario, run_scenario
from streetwatch.jsonl import decode_detection_frame, encode_alarm_event, encode_detection_frame, encode_tracked_object
from streetwatch.matcher import MatchConfig
from streetwatch.pipeline import (
    WINDOW_DEPTH,
    Pipeline,
    PipelineConfig,
    StreamOrderError,
    TrackedObject,
)
from streetwatch.simulator import NoiseSpec, generate, scenario_by_name
from streetwatch.types import BoundingBox, Category, DetectionFrame

from conftest import make_det, make_frame


def make_config(**overrides) -> PipelineConfig:
    defaults = dict(
        camera=CameraIntrinsics(focal_px=1000.0, image_w=640.0, image_h=480.0),
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
    # matched to the previous frame, ids only: same id, still no direction
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


@pytest.mark.parametrize("gap", [1, 2, 3])
def test_long_absence_retires_the_id(gap):
    pipeline = Pipeline(make_config(direction=DirectionConfig(gap=gap, dead_zone_px=8.0)))
    pipeline.process_frame(make_frame(0, 0, [car_at(100.0)]))
    for i in (1, 2, 3):
        pipeline.process_frame(make_frame(i, i * 33, []))
    tracked, _ = pipeline.process_frame(make_frame(4, 132, [car_at(100.0)]))
    # every window frame is empty; ids are never reused
    assert tracked[0].object_id == 1
    assert tracked[0].direction is None


def seen_ids(gap, missed, frames):
    """The ids of one stationary car over frames 0..frames-1, absent in missed."""
    pipeline = Pipeline(make_config(direction=DirectionConfig(gap=gap, dead_zone_px=8.0)))
    seen = []
    for i in range(frames):
        tracked, _ = pipeline.process_frame(make_frame(i, i * 100, [] if i in missed else [car_at(100.0)]))
        seen += [t.object_id for t in tracked]
    return seen


@pytest.mark.parametrize("gap", [1, 2, 3])
@pytest.mark.parametrize("missed", [{1}, {1, 2}])
def test_ids_reach_back_the_whole_window_across_missed_detections(gap, missed):
    # the window holds three frames, so one or two missed frames in a row
    # keep the id at every gap
    assert seen_ids(gap, missed, 6) == [0] * (6 - len(missed))


def test_a_car_missed_before_the_window_fills_keeps_its_id_at_gap_3():
    # frame 2 has no gap frame yet and frame 1 is empty, so only frame 0
    # can carry the id over; a fresh id there would come back every third
    # frame, because each gap match copies the id of three frames before
    assert seen_ids(3, {1}, 12) == [0] * 11


@pytest.mark.parametrize(
    "focal_px, h, estimate",
    [
        (1000.0, 5e-324, "inf"),  # f * H / h overflows
        (5e-324, 1000.0, "0.0"),  # f * H / h underflows
    ],
)
def test_a_distance_that_is_not_positive_and_finite_is_refused_untouched(focal_px, h, estimate):
    camera = CameraIntrinsics(focal_px=focal_px, image_w=640.0, image_h=480.0)
    pipeline = Pipeline(make_config(camera=camera))
    bad = make_frame(4, 0, [make_det("dog"), make_det("car", h=h)])
    with pytest.raises(sw_types.FrameValidationError) as info:
        pipeline.process_frame(bad)
    assert str(info.value) == (
        f"frame_id 4, detection 1: distance estimate {estimate} cm from box h={h!r} is not a positive finite number"
    )
    # nothing moved: no count, no id, no window entry
    assert pipeline.no_height == 0
    tracked, _ = pipeline.process_frame(make_frame(4, 0, [make_det("car")]))
    assert [(t.object_id, t.matched_from) for t in tracked] == [(0, None)]


def test_direction_only_comes_from_the_gap_match():
    pipeline = Pipeline(make_config())
    pipeline.process_frame(make_frame(0, 0, [car_at(100.0)]))
    tracked, _ = pipeline.process_frame(make_frame(1, 33, [car_at(150.0)]))
    # id carried over from the previous frame, but direction stays unset: the
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
    assert pipeline.no_height == 3


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


def test_config_fields_cannot_be_assigned_past_the_window_check():
    cfg = make_config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.direction = DirectionConfig(gap=WINDOW_DEPTH + 1)
    assert cfg.direction.gap == 2
    with pytest.raises(ValueError):
        dataclasses.replace(cfg, direction=DirectionConfig(gap=WINDOW_DEPTH + 1))


def test_pipeline_config_scales_with_width():
    heights = HeightTable({"car": 140.0})
    for width, gate, dead_zone in ((640.0, 160.0, 8.0), (1280.0, 320.0, 16.0), (320.0, 80.0, 4.0)):
        camera = CameraIntrinsics(focal_px=1000.0, image_w=width, image_h=480.0)
        cfg = PipelineConfig(camera, heights)
        assert cfg.matcher == MatchConfig(max_center_dist_px=gate)
        assert cfg.direction == DirectionConfig(dead_zone_px=dead_zone)
        assert cfg.camera == camera and cfg.heights is heights and cfg.alarm == AlarmPolicy()
    for width in (0.0, -640.0):
        # a width the intrinsics refuse scales to a gate the matcher refuses
        camera = types.SimpleNamespace(focal_px=1000.0, image_w=width, image_h=480.0)
        with pytest.raises(ValueError, match="max_center_dist_px must be a positive finite number, got "):
            PipelineConfig(camera, heights)


def test_pipeline_config_keeps_a_matcher_or_direction_it_is_given():
    wide = CameraIntrinsics(focal_px=1000.0, image_w=1280.0, image_h=480.0)
    heights = HeightTable({"car": 140.0})
    matcher = MatchConfig(max_center_dist_px=100.0)
    direction = DirectionConfig(gap=1, dead_zone_px=5.0)
    cfg = PipelineConfig(wide, heights, matcher=matcher)
    assert cfg.matcher is matcher and cfg.direction == DirectionConfig(dead_zone_px=16.0)
    cfg = PipelineConfig(wide, heights, direction=direction)
    assert cfg.direction is direction and cfg.matcher == MatchConfig(max_center_dist_px=320.0)
    # the 640 px defaults, given outright, are kept too
    cfg = PipelineConfig(wide, heights, matcher=MatchConfig(), direction=DirectionConfig())
    assert (cfg.matcher, cfg.direction) == (MatchConfig(), DirectionConfig())


def test_replacing_the_camera_keeps_the_fields_already_set():
    heights = HeightTable({"car": 140.0})
    cfg = PipelineConfig(CameraIntrinsics(focal_px=1000.0, image_w=640.0, image_h=480.0), heights)
    wide = CameraIntrinsics(focal_px=1000.0, image_w=1280.0, image_h=480.0)
    moved = dataclasses.replace(cfg, camera=wide)
    assert moved.camera == wide
    assert (moved.matcher, moved.direction, moved.alarm) == (cfg.matcher, cfg.direction, cfg.alarm)
    assert moved.matcher == MatchConfig(max_center_dist_px=160.0)


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


@pytest.mark.parametrize("name", ["crowded-midrange", "approach-head-on"])
def test_pipeline_built_objects_pass_the_constructor_checks(name):
    # process_frame builds its objects without __post_init__; replace runs it
    run = run_scenario(scenario_by_name(name))
    assert any(o.direction is not None for o in run.tracked)
    assert [dataclasses.replace(o) for o in run.tracked] == run.tracked


# --- each detection is checked once ----------------------------------------


def decoded(frame):
    return decode_detection_frame(encode_detection_frame(frame))


def test_the_decoded_mark_leaves_equality_hash_and_repr_alone():
    frame = make_frame(3, 99, [car_at(100.0), make_det("person", cx=400.0)])
    twin = decoded(frame)
    assert twin == frame and hash(twin) == hash(frame) and repr(twin) == repr(frame)


def test_process_frame_does_not_check_a_decoded_frame_again(monkeypatch):
    frames = [make_frame(i, 100 * i, [car_at(100.0 + 7.0 * i), make_det("person", cx=400.0)]) for i in range(3)]
    twins = [decoded(f) for f in frames]
    # built first: their configs' constructors check values through _refusal too
    twin_pipeline, pipeline = Pipeline(make_config()), Pipeline(make_config())
    calls = []
    for name in ("_refusal", "_box_error", "_confidence_error"):
        check = getattr(sw_types, name)
        monkeypatch.setattr(sw_types, name, lambda *args, check=check, name=name: calls.append(name) or check(*args))
    for twin in twins:
        twin_pipeline.process_frame(twin)
    assert calls == []
    for frame in frames:
        pipeline.process_frame(frame)
    # the two stamps, then each detection's label, box and confidence
    assert calls == (["_refusal"] * 2 + ["_refusal", "_box_error", "_confidence_error"] * 2) * 3


def test_a_generated_box_is_checked_once_where_the_simulator_builds_it(monkeypatch):
    calls = []
    check = sw_types._box_error
    for module in (sw_types, simulator):
        monkeypatch.setattr(module, "_box_error", lambda *args: calls.append(args) or check(*args))
    run = run_scenario(scenario_by_name("crowded-midrange"))
    assert len(run.truth) == 240 and all(r.emitted for r in run.truth)
    assert len(calls) == len(run.truth)


def test_a_replaced_generated_frame_is_checked_again():
    spec = scenario_by_name("crowded-midrange")
    frame = generate(spec)[0][0]
    det = frame.detections[0]
    box = dataclasses.replace(det.bbox)
    object.__setattr__(box, "w", -1.0)
    bad = dataclasses.replace(frame, detections=(dataclasses.replace(det, bbox=box),) + frame.detections[1:])
    Pipeline(config_for_scenario(spec)).process_frame(frame)
    with pytest.raises(sw_types.FrameValidationError) as info:
        Pipeline(config_for_scenario(spec)).process_frame(bad)
    assert str(info.value) == "detection 0: box w must be a positive finite number, got -1.0"


def noisy_churn():
    """enter-exit-churn under drops, jitter and label flips: (spec, frames)."""
    noise = NoiseSpec(center_jitter_px=3.0, height_jitter_frac=0.05, drop_prob=0.2, label_flip_prob=0.05)
    spec = dataclasses.replace(scenario_by_name("enter-exit-churn"), noise=noise)
    return spec, generate(spec)[0]


def test_a_decoded_frame_and_its_python_built_twin_give_the_same_lines():
    spec, frames = noisy_churn()
    runs = []
    for stream in (frames, [decoded(f) for f in frames]):
        pipeline = Pipeline(config_for_scenario(spec))
        lines = []
        for tracked, events in pipeline.run(stream):
            lines += [encode_tracked_object(o) for o in tracked] + [encode_alarm_event(e) for e in events]
        runs.append(lines)
    assert runs[0] == runs[1]
    # drops and flips leave fresh ids after the first frames, and the
    # person at 430 cm alarms, so the leftover rounds and the alarm layer ran
    assert any('"matched_from":null' in line for line in runs[0][100:])
    assert any('"stage":' in line for line in runs[0])


# sha256 of the tracked lines and of the event lines that noisy_churn()
# replays to at each gap, pinned from the association before its rounds
# were trimmed (whole-tuple candidate sort, per-frame round sort)
NOISY_CHURN_DIGESTS = {
    1: (
        "c62b9be5c6e02de6e5bf41e901cadbb86deafa6077635621eee0e7e16dfb0ed0",
        "8490bc7a02499a3801140728fd0846ebd4d258d688b1dcda06bf6ec17ba414e2",
    ),
    2: (
        "76d400663fe125be80ef6da81dadc774f2b6f001f1d40574904a2455463da519",
        "a6ce275779748c4c3532a6bf24d475d1d6b7ac464af692986c33fe09671d942a",
    ),
    3: (
        "9e8458d38ed320da435d1662d209561c08e997d3dc18b2b0b88c32b76a01417e",
        "a6ce275779748c4c3532a6bf24d475d1d6b7ac464af692986c33fe09671d942a",
    ),
}


@pytest.mark.parametrize("gap", sorted(NOISY_CHURN_DIGESTS))
def test_noisy_association_output_is_pinned(gap):
    spec, frames = noisy_churn()
    cfg = config_for_scenario(spec)
    pipeline = Pipeline(dataclasses.replace(cfg, direction=dataclasses.replace(cfg.direction, gap=gap)))
    tracked_lines, event_lines = [], []
    for tracked, events in pipeline.run(frames):
        tracked_lines += [encode_tracked_object(o) + "\n" for o in tracked]
        event_lines += [encode_alarm_event(e) + "\n" for e in events]
    digests = tuple(hashlib.sha256("".join(lines).encode("ascii")).hexdigest() for lines in (tracked_lines, event_lines))
    assert digests == NOISY_CHURN_DIGESTS[gap]


# --- one association loop over the window ----------------------------------


@pytest.mark.parametrize("gap", [1, 2, 3])
def test_only_the_gap_round_gets_the_processed_frame(monkeypatch, gap):
    # bench/spans.py tells the gap match from the ids-only rounds by
    # whether match_frames gets the very frame process_frame was called with
    calls = []
    match = sw_pipeline.match_frames
    monkeypatch.setattr(sw_pipeline, "match_frames", lambda cur, ref, *args: calls.append((cur, ref)) or match(cur, ref, *args))
    spec, frames = noisy_churn()
    cfg = config_for_scenario(spec)
    pipeline = Pipeline(dataclasses.replace(cfg, direction=dataclasses.replace(cfg.direction, gap=gap)))
    one_call_frames = 0
    for pos, frame in enumerate(frames):
        calls.clear()
        tracked, _ = pipeline.process_frame(frame)
        row_of = {id(d): i for i, d in enumerate(frame.detections)}
        rows = list(range(len(tracked)))
        if pos >= gap:
            cur, ref = calls.pop(0)
            assert cur is frame and ref is frames[pos - gap]
            # a gap-matched object always carries a direction
            rows = [i for i in rows if tracked[i].direction is None]
            if not rows:
                assert calls == []
                one_call_frames += 1
        backs = [back for back in range(1, min(pos, WINDOW_DEPTH) + 1) if back != gap]
        assert len(calls) <= len(backs)
        for (cur, ref), back in zip(calls, backs):
            assert cur is not frame and ref is frames[pos - back]
            # the processed frame's stamps, around the leftover detections
            assert cur.frame_id == frame.frame_id and cur.t_ms == frame.t_ms
            assert cur == DetectionFrame(frame.frame_id, frame.t_ms, cur.detections)
            sub_rows = [row_of[id(d)] for d in cur.detections]
            # the leftovers of the rounds before, less what those rounds matched
            assert sub_rows and set(sub_rows) <= set(rows) and sub_rows == sorted(sub_rows)
            assert all(tracked[i].matched_from is not None for i in set(rows) - set(sub_rows))
            rows = sub_rows
        # the loop stops early only when nothing is left unmatched
        fresh = [i for i, o in enumerate(tracked) if o.matched_from is None]
        assert set(fresh) <= set(rows)
        if fresh:
            assert len(calls) == len(backs)
    assert one_call_frames > 0


actor_specs = st.lists(
    st.tuples(st.sampled_from(["car", "person"]), st.floats(40.0, 600.0), st.floats(-25.0, 25.0)),
    min_size=1,
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, WINDOW_DEPTH), actor_specs, st.lists(st.lists(st.booleans(), min_size=4, max_size=4), max_size=8))
def test_association_invariants_hold_on_random_streams(gap, actors, shown):
    pipeline = Pipeline(make_config(direction=DirectionConfig(gap=gap, dead_zone_px=8.0)))
    history = []  # each processed frame's ids, oldest first
    top = -1
    for f, keep in enumerate(shown):
        dets = [
            make_det(label, cx=x0 + v * f, cy=240.0, w=40.0, h=60.0 if label == "car" else 90.0)
            for (label, x0, v), kept in zip(actors, keep)
            if kept
        ]
        tracked, _ = pipeline.process_frame(make_frame(f, 100 * f, dets))
        ids = [o.object_id for o in tracked]
        assert len(set(ids)) == len(ids)
        for o in tracked:
            if o.matched_from is None:
                assert o.object_id > top
            else:
                assert o.object_id == o.matched_from
                assert any(o.matched_from in earlier for earlier in history[-WINDOW_DEPTH:])
            if o.direction is not None:
                assert len(history) >= gap and o.matched_from in history[-gap]
            top = max(top, o.object_id)
        history.append(ids)


# --- the pipeline as a state machine ----------------------------------------

HEIGHT_CM = {"car": 140.0, "person": 165.0}  # make_config's table; "dog" has no height
# depths on and around the three alarm bands, so events fire, repeat and get capped
depths = st.sampled_from([120.0, 135.0, 150.0, 270.0, 285.0, 300.0, 570.0, 585.0, 600.0]) | st.floats(100.0, 700.0)
detections = st.lists(st.tuples(st.sampled_from(["car", "person", "dog"]), st.floats(-200.0, 200.0), depths), max_size=5)


class PipelineMachine(RuleBasedStateMachine):
    """Valid and invalid frames into one Pipeline. Every valid frame's
    events keep to the cap, the cooldown and their band; every refused
    frame leaves the pipeline as it was."""

    @initialize(cooldown_ms=st.sampled_from([0, 200, 1500]), cap=st.integers(1, 3), cumulative=st.booleans())
    def start(self, cooldown_ms, cap, cumulative):
        self.policy = AlarmPolicy(cooldown_ms=cooldown_ms, max_events_per_frame=cap, cumulative_bands=cumulative)
        self.pipeline = Pipeline(make_config(alarm=self.policy))
        self.frame_id, self.t_ms = -1, 0
        self.last_fired = {}  # (object_id, stage) -> t_ms of its last event

    def state(self):
        p = self.pipeline
        window = [(e.frame, e.ids, tuple(e.centers)) for e in p._window]
        return p.no_height, p._next_id, dict(p._ledger), window

    def in_band(self, event) -> bool:
        band = self.policy.stages[event.stage - 1]
        if not self.policy.cumulative_bands:
            return band.band_lo_cm <= event.distance_cm <= band.band_hi_cm
        floor = self.policy.stages[event.stage].band_hi_cm if event.stage < 3 else 0.0
        return floor < event.distance_cm <= band.band_hi_cm

    @rule(step=st.integers(1, 3), dt_ms=st.integers(0, 400), objects=detections)
    def valid_frame(self, step, dt_ms, objects):
        self.frame_id += step
        self.t_ms += dt_ms
        dets = [
            make_det(label, cx=320.0 + x, cy=240.0, w=40.0, h=1000.0 * HEIGHT_CM.get(label, 50.0) / depth)
            for label, x, depth in objects
        ]
        _, events = self.pipeline.process_frame(make_frame(self.frame_id, self.t_ms, dets))
        assert len(events) <= self.policy.max_events_per_frame
        for event in events:
            last = self.last_fired.get((event.object_id, event.stage))
            assert last is None or event.t_ms - last >= self.policy.cooldown_ms
            self.last_fired[event.object_id, event.stage] = event.t_ms
            assert self.in_band(event), event

    @precondition(lambda self: self.frame_id >= 0)
    @rule(back=st.integers(0, 2), t_back=st.booleans())
    def out_of_order_frame(self, back, t_back):
        before = self.state()
        if t_back and self.t_ms > 0:
            frame = make_frame(self.frame_id + 1, self.t_ms - 1, [car_at(100.0)])
        else:
            frame = make_frame(max(self.frame_id - back, 0), self.t_ms, [car_at(100.0)])
        with pytest.raises(StreamOrderError):
            self.pipeline.process_frame(frame)
        assert self.state() == before

    @rule(kind=st.sampled_from(["box", "confidence", "stamp", "overflow"]))
    def invalid_frame(self, kind):
        before = self.state()
        det = car_at(100.0)
        frame = make_frame(self.frame_id + 1, self.t_ms, [car_at(300.0), det])
        if kind == "box":
            object.__setattr__(det.bbox, "w", -1.0)
        elif kind == "confidence":
            object.__setattr__(det, "confidence", 1.5)
        elif kind == "stamp":
            object.__setattr__(frame, "t_ms", -1)
        else:
            # a valid box so flat that f * H / h overflows, after one with no height
            frame = make_frame(self.frame_id + 1, self.t_ms, [make_det("dog"), make_det("car", h=5e-324)])
        with pytest.raises(sw_types.FrameValidationError):
            self.pipeline.process_frame(frame)
        assert self.state() == before


PipelineMachine.TestCase.settings = settings(max_examples=40, stateful_step_count=20, deadline=None)
TestPipelineMachine = PipelineMachine.TestCase
