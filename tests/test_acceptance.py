"""Acceptance gate: one test per headline requirement, one verdict line each.

Run with plain pytest; each test prints `[PASS] ...` (or `[FAIL] ...`)
outside the capture so the verdicts land in the terminal log.
"""
import math
import random
import time

from streetwatch.alarm import AlarmPolicy, stage_for_distance
from streetwatch.camera import CameraIntrinsics, HeightTable, estimate_distance
from streetwatch.evaluation import compare_gap_strategies, run_scenario
from streetwatch.jsonl import (
    encode_alarm_event,
    encode_detection_frame,
    encode_tracked_object,
    encode_truth_record,
)
from streetwatch.matcher import MatchConfig, match_frames
from streetwatch.pipeline import Pipeline
from streetwatch.simulator import (
    SUITE_CAMERA,
    SUITE_CAMERA_HEIGHT_CM,
    SUITE_HEIGHTS_CM,
    ActorSpec,
    NoiseSpec,
    ScenarioSpec,
    Trajectory,
    generate,
    scenario_by_name,
    slow_crosser,
    standard_suite,
)
from streetwatch.types import Category

from conftest import (
    best_assignment_bruteforce,
    is_mutual_nn_instance,
    make_det,
    make_frame,
)


def verdict(capsys, name):
    """Print one PASS/FAIL line per criterion, visible despite capture."""
    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            with capsys.disabled():
                print(f"\n[{'FAIL' if exc_type else 'PASS'}] {name}")
            return False

    return _Reporter()


def test_distance_round_trip_accuracy_and_speed(capsys):
    with verdict(capsys, "distance round trip: 1000 random cameras, rel err <= 1e-12, < 1 s"):
        rng = random.Random(20250816)
        table_cases = []
        for _ in range(1000):
            f = rng.uniform(200.0, 4000.0)
            real_h = rng.uniform(50.0, 400.0)
            depth = rng.uniform(100.0, 5000.0)
            table_cases.append((f, real_h, depth))
        start = time.perf_counter()
        worst = 0.0
        for f, real_h, depth in table_cases:
            intr = CameraIntrinsics(focal_px=f, image_w=640.0, image_h=480.0)
            table = HeightTable({"car": real_h})
            # the projection h = f * H / Z
            h = f * real_h / depth
            est = estimate_distance(intr, table, make_det("car", h=h))
            worst = max(worst, abs(est - depth) / depth)
        elapsed = time.perf_counter() - start
        assert worst <= 1e-12, f"worst relative error {worst}"
        assert elapsed < 1.0, f"took {elapsed:.3f} s"


def test_alarm_band_edge_sweep(capsys):
    with verdict(capsys, "alarm bands: 12-point boundary sweep exact, vibrations 0.8/1.2/1.6"):
        policy = AlarmPolicy()
        sweep = [
            (119.999, None),
            (120.0, 3),
            (150.0, 3),
            (150.001, None),
            (269.999, None),
            (270.0, 2),
            (300.0, 2),
            (300.001, None),
            (569.999, None),
            (570.0, 1),
            (600.0, 1),
            (600.001, None),
        ]
        vibrations = {1: 0.8, 2: 1.2, 3: 1.6}
        for distance, expected in sweep:
            st = stage_for_distance(distance, policy)
            got = None if st is None else st.stage
            assert got == expected, f"{distance} cm: stage {got}, expected {expected}"
            if st is not None:
                assert st.vibration_s == vibrations[st.stage], f"{distance} cm: vibration {st.vibration_s}"


def test_association_against_exhaustive_oracle(capsys):
    with verdict(
        capsys,
        "association: 500 random pairs hold the invariants; mutual-NN instances equal the exhaustive optimum; < 5 s",
    ):
        rng = random.Random(31337)
        cfg = MatchConfig()
        mutual_checked = 0
        start = time.perf_counter()
        for trial in range(500):
            def rand_frame(frame_id):
                dets = [
                    make_det(
                        "car",
                        cx=rng.uniform(0.0, 640.0),
                        cy=rng.uniform(0.0, 480.0),
                        w=rng.uniform(10.0, 80.0),
                        h=rng.uniform(10.0, 80.0),
                    )
                    for _ in range(rng.randint(0, 4))
                ]
                return make_frame(frame_id, frame_id * 33, dets)

            cur, ref = rand_frame(1), rand_frame(0)
            result = match_frames(cur, ref, cfg)

            cur_idx = [i for i, _, _ in result.pairs]
            ref_idx = [j for _, j, _ in result.pairs]
            assert len(set(cur_idx)) == len(cur_idx), f"trial {trial}: duplicate current index"
            assert len(set(ref_idx)) == len(ref_idx), f"trial {trial}: duplicate reference index"
            for i, j, cost in result.pairs:
                assert cur.detections[i].category == ref.detections[j].category, f"trial {trial}: category mixed"
                assert cost <= cfg.max_center_dist_px, f"trial {trial}: gate violated"

            if is_mutual_nn_instance(cur, ref, cfg):
                mutual_checked += 1
                count, total = best_assignment_bruteforce(cur, ref, cfg)
                assert len(result.pairs) == count, f"trial {trial}: cardinality {len(result.pairs)} vs optimum {count}"
                greedy_total = sum(p[2] for p in result.pairs)
                assert math.isclose(greedy_total, total, rel_tol=1e-9, abs_tol=1e-9), (
                    f"trial {trial}: cost {greedy_total} vs optimum {total}"
                )
        elapsed = time.perf_counter() - start
        assert mutual_checked > 0, "no mutual-NN instance in the sample"
        assert elapsed < 5.0, f"took {elapsed:.3f} s"


def test_gap_lookback_beats_single_frame_on_slow_crossers(capsys):
    with verdict(capsys, "slow crosser: gap-2 direction accuracy 1.0, gap-1 accuracy 0.0"):
        comparison = compare_gap_strategies(slow_crosser(dead_zone_px=8.0))
        assert comparison.gap2.direction_accuracy_overall == 1.0, (
            f"gap-2 accuracy {comparison.gap2.direction_accuracy_overall}"
        )
        assert comparison.gap1.direction_accuracy_overall == 0.0, (
            f"gap-1 accuracy {comparison.gap1.direction_accuracy_overall}"
        )
        assert comparison.gap2.direction_accuracy_overall > comparison.gap1.direction_accuracy_overall


def test_noise_free_suite_is_scored_perfectly(capsys):
    with verdict(
        capsys,
        "noise-free suite: direction and category accuracy 1.0 everywhere, zero id switches off the crossing scenario, byte-identical reruns",
    ):
        crossing = {"two-crossers-opposite"}
        for spec in standard_suite():
            report = run_scenario(spec).report
            assert report.category_accuracy == 1.0, f"{spec.name}: category {report.category_accuracy}"
            assert report.direction_accuracy_overall == 1.0, f"{spec.name}: direction {report.direction_accuracy_overall}"
            if spec.name not in crossing:
                assert report.id_switches == 0, f"{spec.name}: {report.id_switches} id switches"

        def run_bytes(name):
            spec = scenario_by_name(name)
            frames, truth = generate(spec)
            run = run_scenario(spec)
            return (
                "\n".join(encode_detection_frame(f) for f in frames),
                "\n".join(encode_truth_record(r) for r in truth),
                "\n".join(encode_tracked_object(t) for t in run.tracked),
                "\n".join(encode_alarm_event(e) for e in run.events),
            )

        for name in ("single-crosser", "approach-head-on"):
            assert run_bytes(name) == run_bytes(name), f"{name}: rerun differs"


def _label_flip_scenario() -> ScenarioSpec:
    labels = ["car", "bus", "truck", "motorcycle", "bicycle", "person"]
    actors = []
    for k in range(12):
        label = labels[k % 6]
        actors.append(
            ActorSpec(
                actor_id=k,
                category=Category(label),
                real_height_cm=SUITE_HEIGHTS_CM[label],
                aspect_ratio=1.0,
                trajectory=Trajectory(
                    "stationary",
                    x0_cm=-450.0 + 80.0 * k,
                    z0_cm=350.0 + 70.0 * k,
                ),
            )
        )
    return ScenarioSpec(
        name="label-flip-field",
        duration_s=50.0,
        frame_rate_hz=10.0,
        camera=SUITE_CAMERA,
        camera_height_cm=SUITE_CAMERA_HEIGHT_CM,
        actors=tuple(actors),
        noise=NoiseSpec(label_flip_prob=0.04),
        seed=778899,
    )


def test_label_flip_noise_lands_in_the_expected_band(capsys):
    with verdict(capsys, "label flips at 4%: category accuracy within [0.95, 0.97] over >= 5000 detections"):
        run = run_scenario(_label_flip_scenario())
        aligned = run.report.counts["aligned"]
        assert aligned >= 5000, f"only {aligned} aligned detections"
        accuracy = run.report.category_accuracy
        assert 0.95 <= accuracy <= 0.97, f"category accuracy {accuracy}"


def test_replay_throughput(capsys):
    with verdict(capsys, "throughput: 1000 frames x 30 detections replayed in < 2 s"):
        labels = ["car", "bus", "truck", "motorcycle", "bicycle", "person"]
        frames = []
        for i in range(1000):
            dets = []
            for k in range(30):
                dets.append(
                    make_det(
                        labels[k % 6],
                        cx=40.0 + 21.0 * k + 2.0 * i,
                        cy=240.0,
                        w=30.0 + (k % 5) * 10.0,
                        h=30.0 + (k % 7) * 8.0,
                    )
                )
            frames.append(make_frame(i, i * 33, dets))

        from streetwatch.config import load_config

        pipeline = Pipeline(load_config())
        start = time.perf_counter()
        total = 0
        for frame in frames:
            tracked, _ = pipeline.process_frame(frame)
            total += len(tracked)
        elapsed = time.perf_counter() - start
        assert total == 30000
        assert elapsed < 2.0, f"took {elapsed:.3f} s"
