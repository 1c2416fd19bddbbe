"""Cross-frame association: costs, gates, greedy behavior, oracle parity."""
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from streetwatch.matcher import MatchConfig, greedy_assign, match_frames
from streetwatch.types import BoundingBox, Detection

from conftest import (
    best_assignment_bruteforce,
    centers,
    euclidean_cost,
    is_mutual_nn_instance,
    make_det,
    make_frame,
    reference_greedy_assign,
    tuple_sort_greedy,
)


def unmatched(result, n_cur, n_ref):
    """The current and reference indices that no pair of result uses."""
    cur = tuple(i for i in range(n_cur) if i not in {p[0] for p in result.pairs})
    ref = tuple(j for j in range(n_ref) if j not in {p[1] for p in result.pairs})
    return cur, ref


def test_euclidean_cost_values():
    a = make_det("car", cx=0.0, cy=0.0)
    assert euclidean_cost(a, make_det("car", cx=0.0, cy=0.0)) == 0.0
    assert euclidean_cost(a, make_det("car", cx=3.0, cy=4.0)) == pytest.approx(5.0)


def test_cost_is_none_across_categories():
    assert euclidean_cost(make_det("car"), make_det("truck")) is None


def test_single_pair_within_gate():
    cur = make_frame(1, 33, [make_det("car", cx=100.0)])
    ref = make_frame(0, 0, [make_det("car", cx=110.0)])
    result = match_frames(cur, ref, MatchConfig(), centers(cur), centers(ref))
    assert result.pairs == ((0, 0, pytest.approx(10.0)),)
    assert unmatched(result, 1, 1) == ((), ())


def test_gate_rejects_distant_pair():
    cur = make_frame(1, 33, [make_det("car", cx=100.0)])
    ref = make_frame(0, 0, [make_det("car", cx=300.0)])
    result = match_frames(cur, ref, MatchConfig(max_center_dist_px=160.0), centers(cur), centers(ref))
    assert result.pairs == ()
    assert unmatched(result, 1, 1) == ((0,), (0,))


def test_gate_boundary_is_inclusive():
    cur = make_frame(1, 33, [make_det("car", cx=0.0, cy=0.0)])
    ref = make_frame(0, 0, [make_det("car", cx=160.0, cy=0.0)])
    result = match_frames(cur, ref, MatchConfig(max_center_dist_px=160.0), centers(cur), centers(ref))
    assert len(result.pairs) == 1


def test_category_is_a_hard_constraint():
    cur = make_frame(1, 33, [make_det("car", cx=100.0)])
    ref = make_frame(0, 0, [make_det("truck", cx=100.0)])
    result = match_frames(cur, ref, MatchConfig(), centers(cur), centers(ref))
    assert result.pairs == ()


def test_greedy_prefers_globally_cheapest():
    # two cars each side; naive row-wise matching would pair 0-0 first,
    # the global sort must pair each with its own
    cur = make_frame(1, 33, [make_det("car", cx=100.0), make_det("car", cx=150.0)])
    ref = make_frame(0, 0, [make_det("car", cx=148.0), make_det("car", cx=104.0)])
    result = match_frames(cur, ref, MatchConfig(), centers(cur), centers(ref))
    assert {(i, j) for i, j, _ in result.pairs} == {(0, 1), (1, 0)}


def test_tie_breaks_on_current_then_reference_index():
    # both current cars are equidistant from both reference cars
    cur = make_frame(1, 33, [make_det("car", cx=100.0), make_det("car", cx=120.0)])
    ref = make_frame(0, 0, [make_det("car", cx=100.0 + 10.0), make_det("car", cx=120.0 - 10.0)])
    result = match_frames(cur, ref, MatchConfig(), centers(cur), centers(ref))
    assert {(i, j) for i, j, _ in result.pairs} == {(0, 0), (1, 1)}


# two labels on a coarse lattice, so that equal costs are common
lattice_side = st.lists(
    st.tuples(st.sampled_from(["car", "person"]), st.integers(0, 3), st.integers(0, 3)), max_size=6
)


@settings(max_examples=300, deadline=None)
@given(lattice_side, lattice_side)
def test_ties_break_as_in_the_tuple_sorting_greedy(cur_side, ref_side):
    cur = make_frame(1, 33, [make_det(label, cx=100.0 + 30.0 * a, cy=100.0 + 30.0 * b) for label, a, b in cur_side])
    ref = make_frame(0, 0, [make_det(label, cx=100.0 + 30.0 * a, cy=100.0 + 30.0 * b) for label, a, b in ref_side])
    cfg = MatchConfig()
    assert match_frames(cur, ref, cfg, centers(cur), centers(ref)).pairs == tuple_sort_greedy(cur, ref, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        MatchConfig(max_center_dist_px=0.0)


def test_empty_frames():
    empty = make_frame(1, 33, [])
    ref = make_frame(0, 0, [make_det("car")])
    result = match_frames(empty, ref, MatchConfig(), centers(empty), centers(ref))
    assert result.pairs == ()
    assert unmatched(result, 0, 1) == ((), (0,))
    result = match_frames(ref, empty, MatchConfig(), centers(ref), centers(empty))
    assert unmatched(result, 1, 0) == ((0,), ())


def _random_frame(rng: random.Random, frame_id: int, labels):
    dets = []
    for _ in range(rng.randint(0, 4)):
        dets.append(
            make_det(
                rng.choice(labels),
                cx=rng.uniform(0.0, 640.0),
                cy=rng.uniform(0.0, 480.0),
                w=rng.uniform(10.0, 80.0),
                h=rng.uniform(10.0, 80.0),
            )
        )
    return make_frame(frame_id, frame_id * 33, dets)


def test_greedy_equals_bruteforce_on_mutual_nn_instances():
    rng = random.Random(4242)
    cfg = MatchConfig()
    checked = 0
    for _ in range(300):
        cur = _random_frame(rng, 1, ["car", "person"])
        ref = _random_frame(rng, 0, ["car", "person"])
        result = match_frames(cur, ref, cfg, centers(cur), centers(ref))
        if not is_mutual_nn_instance(cur, ref, cfg):
            continue
        checked += 1
        count, total = best_assignment_bruteforce(cur, ref, cfg)
        assert len(result.pairs) == count
        assert math.isclose(sum(p[2] for p in result.pairs), total, rel_tol=1e-9, abs_tol=1e-9)
    assert checked > 30  # the filter must not silence the comparison


def test_greedy_never_beats_bruteforce_cardinality():
    rng = random.Random(99)
    cfg = MatchConfig()
    for _ in range(200):
        cur = _random_frame(rng, 1, ["car"])
        ref = _random_frame(rng, 0, ["car"])
        result = match_frames(cur, ref, cfg, centers(cur), centers(ref))
        count, total = best_assignment_bruteforce(cur, ref, cfg)
        assert len(result.pairs) <= count
        if len(result.pairs) == count:
            assert sum(p[2] for p in result.pairs) >= total - 1e-9


@st.composite
def frames_pair(draw):
    labels = ["car", "person", "bus"]

    def one(frame_id):
        n = draw(st.integers(min_value=0, max_value=5))
        dets = []
        for _ in range(n):
            dets.append(
                make_det(
                    draw(st.sampled_from(labels)),
                    cx=float(draw(st.integers(min_value=0, max_value=640))),
                    cy=float(draw(st.integers(min_value=0, max_value=480))),
                    w=float(draw(st.integers(min_value=5, max_value=100))),
                    h=float(draw(st.integers(min_value=5, max_value=100))),
                )
            )
        return make_frame(frame_id, frame_id * 33, dets)

    return one(1), one(0)


@settings(max_examples=200, deadline=None)
@given(frames_pair())
def test_match_invariants(pair):
    cur, ref = pair
    cfg = MatchConfig()
    result = match_frames(cur, ref, cfg, centers(cur), centers(ref))
    cur_indices = [i for i, _, _ in result.pairs]
    ref_indices = [j for _, j, _ in result.pairs]
    # partial bijection
    assert len(set(cur_indices)) == len(cur_indices)
    assert len(set(ref_indices)) == len(ref_indices)
    assert set(cur_indices) <= set(range(len(cur.detections)))
    assert set(ref_indices) <= set(range(len(ref.detections)))
    for i, j, cost in result.pairs:
        # category purity and the gate
        assert cur.detections[i].category == ref.detections[j].category
        assert cost <= cfg.max_center_dist_px
        a = cur.detections[i].bbox.center()
        b = ref.detections[j].bbox.center()
        assert math.isclose(cost, math.hypot(a[0] - b[0], a[1] - b[1]), rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=100, deadline=None)
@given(frames_pair(), st.integers(min_value=-50, max_value=50), st.integers(min_value=-50, max_value=50))
def test_translation_invariance(pair, dx, dy):
    cur, ref = pair

    def shift(frame):
        dets = [
            Detection(
                category=d.category,
                bbox=BoundingBox(d.bbox.x + dx, d.bbox.y + dy, d.bbox.w, d.bbox.h),
                confidence=d.confidence,
            )
            for d in frame.detections
        ]
        return make_frame(frame.frame_id, frame.t_ms, dets)

    cfg = MatchConfig()
    base = match_frames(cur, ref, cfg, centers(cur), centers(ref))
    moved_cur, moved_ref = shift(cur), shift(ref)
    moved = match_frames(moved_cur, moved_ref, cfg, centers(moved_cur), centers(moved_ref))
    assert [(i, j) for i, j, _ in base.pairs] == [(i, j) for i, j, _ in moved.pairs]
    sizes = (len(cur.detections), len(ref.detections))
    assert unmatched(base, *sizes) == unmatched(moved, *sizes)


@settings(max_examples=200, deadline=None)
@given(frames_pair(), st.data())
def test_precomputed_centers_give_the_same_result(pair, data):
    cur, ref = pair
    cfg = MatchConfig()
    # a leftover subset with its slice of the full frame's centers, as the
    # pipeline's leftover rounds pass them
    n = len(cur.detections)
    rows = sorted(data.draw(st.sets(st.integers(min_value=0, max_value=n - 1)) if n else st.just(set())))
    sub = make_frame(cur.frame_id, cur.t_ms, [cur.detections[i] for i in rows])
    full = centers(cur)
    assert match_frames(sub, ref, cfg, [full[i] for i in rows], centers(ref)) == match_frames(
        sub, ref, cfg, centers(sub), centers(ref)
    )


def test_centers_must_match_the_detections():
    frame = make_frame(0, 0, [make_det("car")])
    with pytest.raises(ValueError, match="one \\(x, y\\) per detection"):
        match_frames(frame, frame, MatchConfig(), [], centers(frame))
    with pytest.raises(ValueError, match="one \\(x, y\\) per detection"):
        match_frames(frame, frame, MatchConfig(), centers(frame), [(0.0, 0.0)] * 2)


def test_determinism():
    rng = random.Random(7)
    cfg = MatchConfig()
    for _ in range(50):
        cur = _random_frame(rng, 1, ["car", "person", "bus"])
        ref = _random_frame(rng, 0, ["car", "person", "bus"])
        assert match_frames(cur, ref, cfg, centers(cur), centers(ref)) == match_frames(
            cur, ref, cfg, centers(cur), centers(ref)
        )


@st.composite
def assignment_instances(draw):
    """(candidates, n_cur, n_ref): keys from a few values, so that equal
    keys are common, over sides of different sizes; any (i, j) may repeat."""
    n_cur, n_ref = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    if n_cur == 0 or n_ref == 0:
        return [], n_cur, n_ref
    cand = st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.5]), st.integers(0, n_cur - 1), st.integers(0, n_ref - 1))
    return draw(st.lists(cand, max_size=40)), n_cur, n_ref


@given(instance=assignment_instances())
@settings(max_examples=400, deadline=None)
def test_greedy_assign_matches_the_reference_loop(instance):
    candidates, n_cur, n_ref = instance
    expected = reference_greedy_assign(list(candidates), n_cur, n_ref)
    accepted = greedy_assign(list(candidates), n_cur, n_ref)
    assert accepted == expected
    # slot for slot the same candidate object, not an equal one
    assert all(a is e for a, e in zip(accepted, expected))
