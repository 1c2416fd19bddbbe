"""Shared builders, a brute-force association oracle and reference loops."""
import math
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from streetwatch.camera import CameraIntrinsics, HeightTable
from streetwatch.direction import DirectionLabel
from streetwatch.evaluation import BandPartition, EvalReport
from streetwatch.matcher import MatchConfig
from streetwatch.types import BoundingBox, Category, Detection, DetectionFrame

# The CLI and import tests start child interpreters; they import the
# package from this checkout too, as pytest's `pythonpath` setting makes
# this one do, so a fresh checkout runs the suite without installing it.
SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


def make_det(
    label: str = "car",
    cx: float = 320.0,
    cy: float = 240.0,
    w: float = 40.0,
    h: float = 40.0,
    confidence: float = 1.0,
) -> Detection:
    """Detection built from its center, the way most tests think about it."""
    box = BoundingBox(x=cx - w / 2.0, y=cy - h / 2.0, w=w, h=h)
    return Detection(category=Category(label), bbox=box, confidence=confidence)


def make_frame(frame_id: int, t_ms: int, detections: Sequence[Detection]) -> DetectionFrame:
    return DetectionFrame(frame_id=frame_id, t_ms=t_ms, detections=tuple(detections))


@pytest.fixture
def intrinsics() -> CameraIntrinsics:
    return CameraIntrinsics(focal_px=1000.0, image_w=640.0, image_h=480.0)


@pytest.fixture
def heights() -> HeightTable:
    return HeightTable({"car": 140.0, "person": 165.0, "bus": 320.0})


# --- association oracle ---------------------------------------------------
#
# Small instances only: enumerates every injective partial mapping per
# category, so keep sides at <= 5 detections. The costs are computed here,
# not borrowed from the matcher under test.

def euclidean_cost(a: Detection, b: Detection) -> Optional[float]:
    """Center distance in pixels, or None when the categories differ."""
    if a.category != b.category:
        return None
    ax, ay = a.bbox.center()
    bx, by = b.bbox.center()
    return math.hypot(ax - bx, ay - by)


def gated_edges(
    current: DetectionFrame, reference: DetectionFrame, cfg: MatchConfig
) -> List[Tuple[int, int, float]]:
    """All (current, reference, cost) pairs that pass category and gate."""
    edges = []
    for i, a in enumerate(current.detections):
        for j, b in enumerate(reference.detections):
            cost = euclidean_cost(a, b)
            if cost is not None and cost <= cfg.max_center_dist_px:
                edges.append((i, j, cost))
    return edges


def _best_for_group(
    cur_indices: List[int],
    edge_cost: Dict[Tuple[int, int], float],
    ref_indices: List[int],
) -> Tuple[int, float]:
    """(count, total) of the best assignment inside one category group."""
    best = (0, 0.0)

    def better(a: Tuple[int, float], b: Tuple[int, float]) -> bool:
        if a[0] != b[0]:
            return a[0] > b[0]
        return a[1] < b[1]

    def rec(k: int, used: set, count: int, total: float) -> None:
        nonlocal best
        if k == len(cur_indices):
            if better((count, total), best):
                best = (count, total)
            return
        i = cur_indices[k]
        rec(k + 1, used, count, total)
        for j in ref_indices:
            if j in used:
                continue
            cost = edge_cost.get((i, j))
            if cost is None:
                continue
            used.add(j)
            rec(k + 1, used, count + 1, total + cost)
            used.remove(j)

    rec(0, set(), 0, 0.0)
    return best


def best_assignment_bruteforce(
    current: DetectionFrame, reference: DetectionFrame, cfg: MatchConfig
) -> Tuple[int, float]:
    """Exhaustive optimum: most pairs, then min total distance.

    Categories never mix, so each category group is solved independently
    and the results summed.
    """
    edges = gated_edges(current, reference, cfg)
    edge_cost = {(i, j): c for i, j, c in edges}

    by_label: Dict[str, Tuple[List[int], List[int]]] = {}
    for i, d in enumerate(current.detections):
        by_label.setdefault(d.category.label, ([], []))[0].append(i)
    for j, d in enumerate(reference.detections):
        by_label.setdefault(d.category.label, ([], []))[1].append(j)

    count, total = 0, 0.0
    for cur_indices, ref_indices in by_label.values():
        c, t = _best_for_group(cur_indices, edge_cost, ref_indices)
        count += c
        total += t
    return count, total


def is_mutual_nn_instance(
    current: DetectionFrame,
    reference: DetectionFrame,
    cfg: MatchConfig,
    min_gap: float = 1e-6,
) -> bool:
    """True when every gated detection pairs up with its mutual nearest.

    Requires all relevant cost gaps to exceed min_gap so the optimum is
    unique; on such instances the greedy result must equal the exhaustive
    one.
    """
    edges = gated_edges(current, reference, cfg)
    if not edges:
        return False
    best_for_cur: Dict[int, Tuple[float, int]] = {}
    best_for_ref: Dict[int, Tuple[float, int]] = {}
    cur_costs: Dict[int, List[float]] = {}
    ref_costs: Dict[int, List[float]] = {}
    for i, j, c in edges:
        cur_costs.setdefault(i, []).append(c)
        ref_costs.setdefault(j, []).append(c)
        if i not in best_for_cur or c < best_for_cur[i][0]:
            best_for_cur[i] = (c, j)
        if j not in best_for_ref or c < best_for_ref[j][0]:
            best_for_ref[j] = (c, i)
    for costs in list(cur_costs.values()) + list(ref_costs.values()):
        ordered = sorted(costs)
        for a, b in zip(ordered, ordered[1:]):
            if b - a <= min_gap:
                return False
    for i, (_, j) in best_for_cur.items():
        if best_for_ref[j][1] != i:
            return False
    for j, (_, i) in best_for_ref.items():
        if best_for_cur[i][1] != j:
            return False
    return True


# --- greedy reference -------------------------------------------------------

def tuple_sort_greedy(
    current: DetectionFrame, reference: DetectionFrame, cfg: MatchConfig
) -> Tuple[Tuple[int, int, float], ...]:
    """Greedy matching by sorting whole (cost, i, j) tuples, so that equal
    costs go to the lower current index, then the lower reference index.
    Returns the accepted (i, j, cost) pairs sorted."""
    candidates = sorted((cost, i, j) for i, j, cost in gated_edges(current, reference, cfg))
    taken_cur, taken_ref, accepted = set(), set(), []
    for cost, i, j in candidates:
        if i in taken_cur or j in taken_ref:
            continue
        taken_cur.add(i)
        taken_ref.add(j)
        accepted.append((i, j, cost))
    return tuple(sorted(accepted))


# --- scorer reference -------------------------------------------------------

def reference_score(tracked, truth, bands=None, *, excuse=None) -> Dict[str, object]:
    """evaluation.score's loop as it was before its identity-first category
    compare, its bound band lookup and its list-free grouping, returned as
    the report's to_dict()."""
    bands = bands or BandPartition()
    labels = bands.labels()

    def group_by_frame(records):
        grouped = {}
        for rec in records:
            grouped.setdefault(rec.frame_id, []).append(rec)
        return grouped

    tracked_by_frame = group_by_frame(tracked)
    truth_by_frame = group_by_frame(truth)
    truth_by_actor_frame = {} if excuse is None else {(r.actor_id, r.frame_id): r for r in truth}

    aligned = 0
    category_correct = 0
    dir_classified = [0] * len(labels)
    dir_correct = [0] * len(labels)
    actor_last_id = {}
    id_switches = 0

    for frame_id in sorted(set(tracked_by_frame) | set(truth_by_frame)):
        tracked_here = tracked_by_frame.get(frame_id, [])
        emitted_here = [r for r in truth_by_frame.get(frame_id, []) if r.emitted]
        assert len(tracked_here) == len(emitted_here)
        for obj, rec in zip(tracked_here, emitted_here):
            aligned += 1
            if obj.category == rec.true_category:
                category_correct += 1
            last = actor_last_id.get(rec.actor_id)
            if last is not None and last != obj.object_id:
                id_switches += 1
            actor_last_id[rec.actor_id] = obj.object_id
            if obj.direction is None:
                continue
            band = bands.index_for(rec.true_depth_cm)
            dir_classified[band] += 1
            if obj.direction == rec.true_direction:
                dir_correct[band] += 1
            elif (
                excuse is not None
                and obj.direction == DirectionLabel.FORWARD
                and rec.true_direction != DirectionLabel.FORWARD
            ):
                past = truth_by_actor_frame.get((rec.actor_id, rec.frame_id - excuse.direction.gap))
                if past is not None:
                    disp = excuse.camera.focal_px * (
                        rec.true_lateral_cm / rec.true_depth_cm
                        - past.true_lateral_cm / past.true_depth_cm
                    )
                    if abs(disp) <= excuse.direction.dead_zone_px:
                        dir_correct[band] += 1

    classified_total = sum(dir_classified)
    correct_total = sum(dir_correct)

    def ratio(num, den):
        return None if den == 0 else num / den

    return EvalReport(
        category_accuracy=ratio(category_correct, aligned),
        direction_accuracy_overall=ratio(correct_total, classified_total),
        direction_accuracy_by_band={labels[k]: ratio(dir_correct[k], dir_classified[k]) for k in range(len(labels))},
        matched_fraction=ratio(classified_total, aligned),
        id_switches=id_switches,
        counts={
            "aligned": aligned,
            "category_correct": category_correct,
            "direction": {"classified": classified_total, "correct": correct_total},
            "direction_by_band": {
                labels[k]: {"classified": dir_classified[k], "correct": dir_correct[k]} for k in range(len(labels))
            },
        },
        assumptions={
            "band_boundaries_cm": list(bands.boundaries_cm),
            "direction_scoring": "strict" if excuse is None else "excusable-forward",
            "alignment": "positional",
        },
    ).to_dict()


# --- stage lookup reference -------------------------------------------------

def reference_stage_for_distance(distance_cm: float, policy):
    """alarm.stage_for_distance as it was before the one band table: a
    nearest-first scan with an open floor in cumulative mode, a stage-order
    scan of closed bands otherwise."""
    if not distance_cm > 0:
        raise ValueError(f"distance_cm must be positive, got {distance_cm!r}")
    if policy.cumulative_bands:
        floor = 0.0
        for st in reversed(policy.stages):
            if floor < distance_cm <= st.band_hi_cm:
                return st
            floor = st.band_hi_cm
        return None
    for st in policy.stages:
        if st.band_lo_cm <= distance_cm <= st.band_hi_cm:
            return st
    return None
