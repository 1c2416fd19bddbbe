"""Scoring harness: alignment, bands, excusable-forward, gap comparison."""
from dataclasses import replace

import pytest

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
from streetwatch.types import BoundingBox

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
