"""Staged alarms: bands, cooldown, per-frame budget, message wording."""
import math

import pytest
from hypothesis import given, strategies as st

from streetwatch import alarm
from streetwatch.alarm import (
    DEFAULT_STAGES,
    AlarmEvent,
    AlarmPolicy,
    AlarmStage,
    emit_alarms,
    render_message,
    stage_for_distance,
)
from streetwatch.direction import DirectionLabel
from streetwatch.pipeline import TrackedObject
from streetwatch.types import BoundingBox, Category

from conftest import reference_stage_for_distance


def tracked(object_id, distance_cm, label="car", direction=None, frame_id=0):
    return TrackedObject(
        object_id=object_id,
        frame_id=frame_id,
        category=Category(label),
        bbox=BoundingBox(0.0, 0.0, 10.0, 10.0),
        distance_cm=distance_cm,
        direction=direction,
        matched_from=None if direction is None else object_id,
    )


@pytest.mark.parametrize(
    "distance,expected",
    [
        (585.0, 1),
        (600.0, 1),
        (570.0, 1),
        (600.001, None),
        (569.999, None),
        (285.0, 2),
        (300.0, 2),
        (270.0, 2),
        (269.999, None),
        (135.0, 3),
        (150.0, 3),
        (120.0, 3),
        (119.999, None),
        (450.0, None),
        (60.0, None),
    ],
)
def test_stage_band_edges(distance, expected):
    st = stage_for_distance(distance, AlarmPolicy())
    assert (None if st is None else st.stage) == expected


def test_stage_rejects_non_positive_distance():
    with pytest.raises(ValueError):
        stage_for_distance(0.0, AlarmPolicy())
    with pytest.raises(ValueError):
        stage_for_distance(-10.0, AlarmPolicy())


def test_default_vibrations_grow_with_urgency():
    by_stage = {s.stage: s.vibration_s for s in DEFAULT_STAGES}
    assert by_stage == {1: 0.8, 2: 1.2, 3: 1.6}


@pytest.mark.parametrize(
    "distance,expected",
    [
        (600.0, 1),
        (450.0, 1),
        (300.001, 1),
        (300.0, 2),
        (200.0, 2),
        (150.001, 2),
        (150.0, 3),
        (50.0, 3),
        (0.5, 3),
        (600.001, None),
    ],
)
def test_cumulative_bands_fill_the_gaps(distance, expected):
    policy = AlarmPolicy(cumulative_bands=True)
    st = stage_for_distance(distance, policy)
    assert (None if st is None else st.stage) == expected


@st.composite
def policies(draw):
    """A valid three-stage policy with random edges and vibrations, its
    stages given in random order, in either band mode."""
    edges = sorted(draw(st.lists(st.floats(1e-3, 1e4), min_size=6, max_size=6, unique=True)), reverse=True)
    vibrations = sorted(draw(st.lists(st.floats(0.1, 5.0), min_size=3, max_size=3, unique=True)))
    stages = [AlarmStage(k + 1, edges[2 * k + 1], edges[2 * k], vibrations[k]) for k in range(3)]
    return AlarmPolicy(stages=tuple(draw(st.permutations(stages))), cumulative_bands=draw(st.booleans()))


@given(data=st.data(), policy=policies())
def test_stage_lookup_matches_the_reference_loops(data, policy):
    # every band edge, one ulp either side of it, and random distances
    edges = [edge for s in policy.stages for edge in (s.band_lo_cm, s.band_hi_cm)]
    near_edges = [math.nextafter(edge, toward) for edge in edges for toward in (0.0, math.inf)]
    randoms = data.draw(st.lists(st.floats(1e-6, 2e4), max_size=8))
    for distance in edges + near_edges + randoms:
        assert stage_for_distance(distance, policy) is reference_stage_for_distance(distance, policy), distance


def test_policy_validation():
    with pytest.raises(ValueError):
        AlarmPolicy(stages=DEFAULT_STAGES[:2])
    bad_numbering = (
        AlarmStage(1, 570.0, 600.0, 0.8),
        AlarmStage(2, 270.0, 300.0, 1.2),
        AlarmStage(4, 120.0, 150.0, 1.6),
    )
    with pytest.raises(ValueError):
        AlarmPolicy(stages=bad_numbering)
    overlapping = (
        AlarmStage(1, 570.0, 600.0, 0.8),
        AlarmStage(2, 270.0, 580.0, 1.2),
        AlarmStage(3, 120.0, 150.0, 1.6),
    )
    with pytest.raises(ValueError):
        AlarmPolicy(stages=overlapping)
    flat_vibration = (
        AlarmStage(1, 570.0, 600.0, 0.8),
        AlarmStage(2, 270.0, 300.0, 0.8),
        AlarmStage(3, 120.0, 150.0, 1.6),
    )
    with pytest.raises(ValueError):
        AlarmPolicy(stages=flat_vibration)
    with pytest.raises(ValueError):
        AlarmPolicy(cooldown_ms=-1)
    with pytest.raises(ValueError):
        AlarmPolicy(max_events_per_frame=0)
    # a field that holds the wrong record type is refused by name
    with pytest.raises(ValueError, match=r"^stages must be a tuple, got None$"):
        AlarmPolicy(stages=None)
    with pytest.raises(ValueError, match=r"^stages\[0\] must be an AlarmStage, got 1$"):
        AlarmPolicy(stages=(1, 2, 3))
    with pytest.raises(ValueError, match=r"^stages\[2\] must be an AlarmStage, got None$"):
        AlarmPolicy(stages=DEFAULT_STAGES[:2] + (None,))


def test_stage_validation():
    with pytest.raises(ValueError):
        AlarmStage(0, 570.0, 600.0, 0.8)
    with pytest.raises(ValueError):
        AlarmStage(1, 600.0, 570.0, 0.8)
    with pytest.raises(ValueError):
        AlarmStage(1, -5.0, 600.0, 0.8)
    with pytest.raises(ValueError):
        AlarmStage(1, 570.0, 600.0, 0.0)


def test_messages():
    assert render_message(Category("car"), DirectionLabel.LEFT) == "Car moving left"
    assert render_message(Category("person"), DirectionLabel.FORWARD) == "Person moving forward"
    assert render_message(Category("bus"), None) == "Bus ahead"
    assert render_message(Category("dog"), None) == "Dog ahead"


def test_emitted_event_carries_stage_payload():
    events = emit_alarms([tracked(7, 585.0, direction=DirectionLabel.RIGHT)], 0, AlarmPolicy(), {})
    assert len(events) == 1
    ev = events[0]
    assert ev.object_id == 7
    assert ev.stage == 1
    assert ev.vibration_s == 0.8
    assert ev.distance_cm == 585.0
    assert ev.message == "Car moving right"
    assert ev.t_ms == 0


def test_objects_without_distance_never_alarm():
    events = emit_alarms([tracked(0, None)], 0, AlarmPolicy(), {})
    assert events == []


def test_cooldown_suppresses_then_releases():
    policy = AlarmPolicy()  # cooldown 1500 ms
    ledger = {}
    assert len(emit_alarms([tracked(0, 585.0)], 0, policy, ledger)) == 1
    assert emit_alarms([tracked(0, 585.0)], 100, policy, ledger) == []
    assert emit_alarms([tracked(0, 585.0)], 1499, policy, ledger) == []
    # cooldown boundary: exactly cooldown_ms later may fire again
    assert len(emit_alarms([tracked(0, 585.0)], 1500, policy, ledger)) == 1


def test_cooldown_is_per_object_and_per_stage():
    policy = AlarmPolicy()
    ledger = {}
    assert len(emit_alarms([tracked(0, 585.0)], 0, policy, ledger)) == 1
    # other object, same stage: fires
    assert len(emit_alarms([tracked(1, 590.0)], 50, policy, ledger)) == 1
    # same object, nearer stage: fires
    assert len(emit_alarms([tracked(0, 290.0)], 100, policy, ledger)) == 1


def test_frame_budget_keeps_the_most_urgent():
    policy = AlarmPolicy()  # max 2 per frame
    ledger = {}
    objs = [tracked(0, 585.0), tracked(1, 290.0), tracked(2, 140.0)]
    events = emit_alarms(objs, 0, policy, ledger)
    assert [e.stage for e in events] == [3, 2]
    assert [e.object_id for e in events] == [2, 1]


def test_a_capped_frame_builds_only_the_events_it_emits(monkeypatch):
    calls = []
    monkeypatch.setattr(alarm, "render_message", lambda *args: calls.append(args) or render_message(*args))
    objs = [tracked(k, 149.0 - k) for k in range(5)]
    events = emit_alarms(objs, 0, AlarmPolicy(), {})  # max 2 per frame
    assert [e.object_id for e in events] == [4, 3]
    assert len(calls) == 2


def test_capped_candidate_fires_next_frame():
    policy = AlarmPolicy()
    ledger = {}
    objs = [tracked(0, 585.0), tracked(1, 290.0), tracked(2, 140.0)]
    emit_alarms(objs, 0, policy, ledger)
    # the stage-1 candidate was capped out, so its ledger slot stayed clean
    events = emit_alarms(objs, 33, policy, ledger)
    assert [e.object_id for e in events] == [0]
    assert [e.stage for e in events] == [1]


def test_same_stage_orders_by_distance_then_id():
    policy = AlarmPolicy(max_events_per_frame=3)
    ledger = {}
    objs = [tracked(5, 595.0), tracked(1, 580.0), tracked(3, 580.0)]
    events = emit_alarms(objs, 0, policy, ledger)
    assert [(e.object_id, e.distance_cm) for e in events] == [(1, 580.0), (3, 580.0), (5, 595.0)]


def test_ledger_prunes_expired_entries():
    ledger = {(0, 1): 0, (1, 1): 900, (2, 3): 1499}
    # pruned before the lookup, whether or not anything is in a band
    assert emit_alarms([tracked(5, 450.0)], 1500, AlarmPolicy(), ledger) == []
    assert ledger == {(1, 1): 900, (2, 3): 1499}
    assert emit_alarms([], 2999, AlarmPolicy(), ledger) == []
    assert ledger == {}


def test_emit_alarms_writes_the_ledger_only_for_what_it_emits():
    ledger = {}
    objs = [tracked(0, 585.0), tracked(1, 290.0), tracked(2, 140.0)]
    emit_alarms(objs, 40, AlarmPolicy(), ledger)  # max 2 per frame
    assert ledger == {(2, 3): 40, (1, 2): 40}


def test_zero_cooldown_fires_every_frame():
    policy = AlarmPolicy(cooldown_ms=0)
    ledger = {}
    for t in (0, 33, 66):
        assert len(emit_alarms([tracked(0, 585.0)], t, policy, ledger)) == 1


def emit_alarms_oracle(objects, t_ms, policy, ledger):
    """emit_alarms as documented, with a stage lookup for every object that
    has a distance."""
    for key in [key for key, last in ledger.items() if t_ms - last >= policy.cooldown_ms]:
        del ledger[key]
    candidates = []
    for obj in objects:
        if obj.distance_cm is None:
            continue
        stage = stage_for_distance(obj.distance_cm, policy)
        if stage is None:
            continue
        last = ledger.get((obj.object_id, stage.stage))
        if not (last is None or t_ms - last >= policy.cooldown_ms):
            continue
        message = render_message(obj.category, obj.direction)
        event = AlarmEvent(
            t_ms, obj.object_id, obj.category, stage.stage, stage.vibration_s, obj.distance_cm, obj.direction, message
        )
        candidates.append(((-stage.stage, obj.distance_cm, obj.object_id), event))
    candidates.sort(key=lambda c: c[0])
    emitted = [event for _key, event in candidates[: policy.max_events_per_frame]]
    for event in emitted:
        ledger[event.object_id, event.stage] = t_ms
    return emitted


band_edges = sorted({edge for s in DEFAULT_STAGES for edge in (s.band_lo_cm, s.band_hi_cm)} | {600.0000001})
distances = st.none() | st.sampled_from(band_edges) | st.floats(min_value=1e-3, max_value=2000.0)


@given(
    cumulative=st.booleans(),
    cap=st.integers(min_value=1, max_value=3),
    frames=st.lists(
        st.tuples(st.integers(min_value=0, max_value=2000), st.lists(distances, max_size=6)), min_size=1, max_size=6
    ),
)
def test_emit_alarms_matches_a_lookup_for_every_object(cumulative, cap, frames):
    policy = AlarmPolicy(max_events_per_frame=cap, cumulative_bands=cumulative)
    ledger, oracle_ledger = {}, {}
    t_ms = 0
    for frame_id, (step_ms, frame_distances) in enumerate(frames):
        t_ms += step_ms
        objects = [tracked(k, d, frame_id=frame_id) for k, d in enumerate(frame_distances)]
        assert emit_alarms(objects, t_ms, policy, ledger) == emit_alarms_oracle(objects, t_ms, policy, oracle_ledger)
        assert ledger == oracle_ledger


@pytest.mark.parametrize("cumulative", [False, True])
@pytest.mark.parametrize("distance", [float("nan"), 0.0, -5.0])
def test_emit_alarms_refuses_what_the_stage_lookup_refuses(distance, cumulative):
    policy = AlarmPolicy(cumulative_bands=cumulative)
    with pytest.raises(ValueError, match="distance_cm must be positive"):
        emit_alarms([tracked(0, distance)], 0, policy, {})
