"""Scoring harness: alignment, bands, excusable-forward, gap comparison."""
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from streetwatch.direction import DirectionLabel
from streetwatch.evaluation import (
    AlignmentError,
    BandPartition,
    EvalError,
    GapComparison,
    compare_gap_strategies,
    config_for_scenario,
    run_scenario,
    score,
)
from streetwatch.pipeline import Pipeline, TrackedObject
from streetwatch.simulator import (
    ActorSpec,
    Category,
    Trajectory,
    TruthRecord,
    generate,
    scenario_by_name,
    slow_crosser,
    standard_suite,
)
from streetwatch.jsonl import decode_truth_record
from streetwatch.types import KNOWN_CATEGORIES, BoundingBox

from conftest import reference_score
from test_simulator import small_scenario


def test_band_partition_labels_and_edges():
    bands = BandPartition()
    assert bands.labels() == ["0-300", "300-600", "600+"]
    assert bands.index_for(299.0) == 0
    assert bands.index_for(300.0) == 0
    assert bands.index_for(300.001) == 1
    assert bands.index_for(600.0) == 1
    assert bands.index_for(600.001) == 2
    custom = BandPartition((100.0,))
    assert custom.labels() == ["0-100", "100+"]


def test_band_partition_validation():
    with pytest.raises(EvalError):
        BandPartition(())
    with pytest.raises(EvalError):
        BandPartition((600.0, 300.0))
    with pytest.raises(EvalError):
        BandPartition((0.0,))
    with pytest.raises(EvalError):
        BandPartition((100.0, 100.0))
    for boundary in (10**400, True, "300"):  # an int too large for a float, a bool, a string
        with pytest.raises(EvalError, match="band boundaries must be positive and strictly ascending"):
            BandPartition((boundary,))


def test_single_crosser_scores_perfectly():
    run = run_scenario(scenario_by_name("single-crosser"))
    report = run.report
    assert report.category_accuracy == 1.0
    assert report.direction_accuracy_overall == 1.0
    assert report.id_switches == 0
    # frames 0 and 1 cannot carry a direction yet: 38 of 40
    assert report.matched_fraction == pytest.approx(0.95)
    assert report.counts["aligned"] == 40
    assert report.direction_accuracy_by_band == {"0-300": None, "300-600": 1.0, "600+": None}


def test_single_crosser_event_sequence():
    run = run_scenario(scenario_by_name("single-crosser"))
    assert [e.t_ms for e in run.events] == [0, 1500, 3000]
    assert [e.stage for e in run.events] == [1, 1, 1]
    assert [e.message for e in run.events] == ["Car ahead", "Car moving right", "Car moving right"]
    assert all(e.distance_cm == pytest.approx(580.0) for e in run.events)


def test_strict_scoring_matches_on_a_clean_run():
    run = run_scenario(scenario_by_name("single-crosser"), strict=True)
    assert run.report.direction_accuracy_overall == 1.0
    assert run.report.assumptions["direction_scoring"] == "strict"


def test_empty_direction_cells_read_not_applicable():
    # two frames: no track can reach across the gap yet
    run = run_scenario(small_scenario(duration_s=0.2))
    report = run.report
    assert report.direction_accuracy_overall is None
    assert report.matched_fraction == 0.0
    assert report.category_accuracy == 1.0
    text = report.render_text()
    assert "n/a" in text
    assert "0.0000" in text


def test_alignment_error_names_the_frame():
    run = run_scenario(scenario_by_name("single-crosser"))
    truncated = [t for t in run.tracked if t.frame_id != 3]
    with pytest.raises(AlignmentError, match="frame 3"):
        score(truncated, run.truth)


def test_frame_order_of_the_streams_does_not_matter():
    run = run_scenario(scenario_by_name("single-crosser"))
    base = score(run.tracked, run.truth)
    shuffled = score(list(reversed(run.tracked)), list(reversed(run.truth)))
    assert shuffled == base


def _flat_track(object_id, frame_id, label="car"):
    return TrackedObject(
        object_id=object_id,
        frame_id=frame_id,
        category=Category(label),
        bbox=BoundingBox(0.0, 0.0, 10.0, 10.0),
        distance_cm=None,
        direction=None,
        matched_from=None,
    )


def _truth(frame_id, actor_id=0, depth=500.0, label="car"):
    return TruthRecord(
        frame_id=frame_id,
        actor_id=actor_id,
        true_depth_cm=depth,
        true_lateral_cm=0.0,
        true_direction=DirectionLabel.FORWARD,
        emitted=True,
        true_category=Category(label),
    )


def test_id_switches_count_identity_changes():
    tracked = [_flat_track(0, 0), _flat_track(0, 1), _flat_track(5, 2), _flat_track(5, 3)]
    truth = [_truth(i) for i in range(4)]
    report = score(tracked, truth)
    assert report.id_switches == 1


def test_category_accuracy_counts_surviving_labels():
    tracked = [_flat_track(0, 0, "car"), _flat_track(0, 1, "bus"), _flat_track(0, 2, "car")]
    truth = [_truth(i) for i in range(3)]
    report = score(tracked, truth)
    assert report.category_accuracy == pytest.approx(2.0 / 3.0)


def test_unemitted_truth_rows_are_skipped():
    tracked = [_flat_track(0, 0)]
    truth = [
        _truth(0),
        TruthRecord(
            frame_id=0, actor_id=1, true_depth_cm=400.0, true_lateral_cm=50.0,
            true_direction=DirectionLabel.FORWARD, emitted=False, true_category=Category("bus"),
        ),
    ]
    report = score(tracked, truth)
    assert report.counts["aligned"] == 1
    assert report.category_accuracy == 1.0


def test_excusable_forward_rule():
    spec = slow_crosser(dead_zone_px=8.0)
    base = config_for_scenario(spec)
    cfg = replace(base, direction=replace(base.direction, gap=1))
    frames, truth = generate(spec)
    pipeline = Pipeline(cfg)
    tracked = []
    for frame in frames:
        t, _ = pipeline.process_frame(frame)
        tracked.extend(t)
    strict = score(tracked, truth)
    # every gap-1 label is 'forward' on a truly rightward actor
    assert strict.direction_accuracy_overall == 0.0
    excused = score(tracked, truth, excuse=cfg)
    # the actor's one-frame displacement hides inside the dead zone, so
    # those same labels are excusable
    assert excused.direction_accuracy_overall == 1.0
    # over two frames the displacement clears the zone: no excuse
    wide = score(tracked, truth, excuse=replace(base, direction=replace(base.direction, gap=2)))
    assert wide.direction_accuracy_overall == 0.0


def test_gap_comparison_on_the_slow_crosser():
    comparison = compare_gap_strategies(slow_crosser(8.0))
    assert comparison.gap2.direction_accuracy_overall == 1.0
    assert comparison.gap1.direction_accuracy_overall == 0.0


@pytest.mark.parametrize("spec", [slow_crosser()] + standard_suite(), ids=lambda spec: spec.name)
def test_gap_comparison_is_two_strict_runs(spec):
    cfg = config_for_scenario(spec)
    gap1, gap2 = (
        run_scenario(spec, config=replace(cfg, direction=replace(cfg.direction, gap=gap)), strict=True).report
        for gap in (1, 2)
    )
    assert compare_gap_strategies(spec) == GapComparison(gap1=gap1, gap2=gap2)
    assert gap1.assumptions["direction_scoring"] == gap2.assumptions["direction_scoring"] == "strict"


def test_gap_comparison_ties_on_fast_and_stationary_motion():
    fast = compare_gap_strategies(scenario_by_name("single-crosser"))
    assert fast.gap1.direction_accuracy_overall == 1.0
    assert fast.gap2.direction_accuracy_overall == 1.0
    parked = compare_gap_strategies(scenario_by_name("stationary-clutter"))
    assert parked.gap1.direction_accuracy_overall == 1.0
    assert parked.gap2.direction_accuracy_overall == 1.0


def test_config_for_scenario_rejects_conflicting_heights():
    spec = small_scenario(
        actors=(
            ActorSpec(0, Category("car"), 140.0, 2.0, Trajectory("stationary", -100.0, 500.0)),
            ActorSpec(1, Category("car"), 150.0, 2.0, Trajectory("stationary", 100.0, 500.0)),
        )
    )
    with pytest.raises(EvalError, match="car"):
        config_for_scenario(spec)


def test_report_counts_are_consistent():
    run = run_scenario(scenario_by_name("crowded-midrange"))
    counts = run.report.counts
    per_band = counts["direction_by_band"]
    assert sum(c["classified"] for c in per_band.values()) == counts["direction"]["classified"]
    assert sum(c["correct"] for c in per_band.values()) == counts["direction"]["correct"]


def test_trailing_empty_frames_change_nothing():
    spec = scenario_by_name("single-crosser")
    cfg = config_for_scenario(spec)
    frames, truth = generate(spec)
    base_run = run_scenario(spec, config=cfg)

    from streetwatch.types import DetectionFrame

    pipeline = Pipeline(cfg)
    tracked = []
    for frame in frames:
        t, _ = pipeline.process_frame(frame)
        tracked.extend(t)
    for i in range(3):
        t, _ = pipeline.process_frame(DetectionFrame(frame_id=40 + i, t_ms=4000 + 100 * i, detections=()))
        tracked.extend(t)
    report = score(tracked, truth)
    assert report.direction_accuracy_overall == base_run.report.direction_accuracy_overall
    assert report.counts["aligned"] == base_run.report.counts["aligned"]


# The decoders' one shared Category per known label, read back from a line
SHARED = {
    label: decode_truth_record(
        '{"frame_id":0,"actor_id":0,"true_depth_cm":1.0,"true_lateral_cm":0.0,'
        f'"true_direction":"left","emitted":true,"true_category":"{label}"}}'
    ).true_category
    for label in KNOWN_CATEGORIES
}
# known labels and one open-set label, each built on either side
LABELS = (*KNOWN_CATEGORIES, "kiosk")
# on and around both default boundaries, and custom bands' edges
DEPTHS = (1.0, 150.0, 299.99999999999994, 300.0, 300.00000000000006, 450.0, 599.9999999999999, 600.0,
          600.0000000000001, 900.0)


def category(label, shared):
    """The decoder's shared Category for a known label when asked, else a
    fresh one: equal but not the same object."""
    return SHARED[label] if shared and label in SHARED else Category(label)


@st.composite
def scored_runs(draw):
    """A tracked stream and its truth stream: per frame, truth rows for
    distinct actors and one tracked object per emitted row, in row order.
    Labels flip, ids switch, and directions and depths vary."""
    tracked, truth = [], []
    for frame_id in range(draw(st.integers(0, 6))):
        actors = draw(st.lists(st.integers(0, 3), unique=True, max_size=4))
        for actor_id in actors:
            label = draw(st.sampled_from(LABELS))
            emitted = draw(st.booleans())
            truth.append(TruthRecord(
                frame_id=frame_id,
                actor_id=actor_id,
                true_depth_cm=draw(st.sampled_from(DEPTHS)),
                true_lateral_cm=draw(st.sampled_from((-40.0, -0.5, 0.0, 0.25, 60.0))),
                true_direction=draw(st.sampled_from(DirectionLabel)),
                emitted=emitted,
                true_category=category(label, draw(st.booleans())),
            ))
            if not emitted:
                continue
            flipped = draw(st.sampled_from(LABELS)) if draw(st.booleans()) else label
            direction = draw(st.none() | st.sampled_from(DirectionLabel))
            object_id = draw(st.integers(0, 4))
            tracked.append(TrackedObject(
                object_id=object_id,
                frame_id=frame_id,
                category=category(flipped, draw(st.booleans())),
                bbox=BoundingBox(0.0, 0.0, 10.0, 10.0),
                distance_cm=None,
                direction=direction,
                matched_from=None if direction is None else object_id,
            ))
    return tracked, truth


def interleaved(records, rng):
    """records with the frames' turns shuffled and each frame's own order kept."""
    queues = {}
    for rec in records:
        queues.setdefault(rec.frame_id, []).append(rec)
    out = []
    while queues:
        frame_id = rng.choice(sorted(queues))
        out.append(queues[frame_id].pop(0))
        if not queues[frame_id]:
            del queues[frame_id]
    return out


@given(
    run=scored_runs(),
    shuffle=st.none() | st.randoms(use_true_random=False),
    bands=st.sampled_from((None, BandPartition((300.0, 600.0)), BandPartition((150.0, 450.0, 900.0)))),
    gap=st.sampled_from((None, 1, 2)),
    dead_zone=st.sampled_from((0.5, 8.0, 200.0)),
)
@settings(max_examples=300, deadline=None)
def test_score_matches_the_reference_loop(run, shuffle, bands, gap, dead_zone):
    tracked, truth = run
    if shuffle is not None:
        tracked, truth = interleaved(tracked, shuffle), interleaved(truth, shuffle)
    # strict scoring without a gap, excusable-forward scoring with one
    excuse = None
    if gap is not None:
        cfg = config_for_scenario(small_scenario())
        excuse = replace(cfg, direction=replace(cfg.direction, gap=gap, dead_zone_px=dead_zone))
    assert score(tracked, truth, bands, excuse=excuse).to_dict() == reference_score(tracked, truth, bands, excuse=excuse)


def test_equal_categories_that_are_not_the_same_object_score_as_equal():
    # a fresh car against the decoder's shared one, and an open-set label
    # built on each side
    tracked = [_flat_track(0, 0, "car"), _flat_track(0, 1, "kiosk")]
    truth = [replace(_truth(0), true_category=SHARED["car"]), _truth(1, label="kiosk")]
    assert all(obj.category is not rec.true_category for obj, rec in zip(tracked, truth))
    assert score(tracked, truth).category_accuracy == 1.0
