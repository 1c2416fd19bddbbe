"""Cross-frame detection association.

Greedy assignment over the globally sorted candidate list, with a hard
same-category constraint. Deterministic and O(n^2 log n); at street-scene
cardinalities that beats dragging in an appearance-feature tracker, and
the pipeline tolerates the occasional identity switch anyway.

The cost is Euclidean center distance, because at tens of frames per
second boxes barely move between frames, which makes IoU overlap nearly
binary while center distance keeps its resolution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

from .types import DetectionFrame, _check


@dataclass(frozen=True)
class MatchConfig:
    """Association gate: the largest center distance a pair may have.

    The default is 25% of a 640 px image width; a PipelineConfig built
    without a matcher scales it to its camera's width.
    """

    max_center_dist_px: float = 160.0

    def __post_init__(self):
        _check(self, "positive", "max_center_dist_px")


@dataclass(frozen=True)
class MatchResult:
    """Partial bijection between current and reference detection indices.

    pairs holds (current_index, reference_index, cost) where cost is center
    distance in px.
    """

    pairs: Tuple[Tuple[int, int, float], ...]


def greedy_assign(
    candidates: List[Tuple[float, int, int]], n_cur: int, n_ref: int
) -> List[Optional[Tuple[float, int, int]]]:
    """Accept (key, i, j) candidates best-first while both ends are free.

    i ranges over n_cur current items and j over n_ref reference items.
    Sorts the list in place by key alone; the sort is stable, so equal
    keys keep the order the caller generated them in. A caller that lists
    candidates in ascending (i, j) order gets ties broken by the lower i,
    then the lower j. Returns n_cur slots in current-index order: slot i
    holds the candidate accepted for item i, or None.
    """
    candidates.sort(key=itemgetter(0))
    accepted: List[Optional[Tuple[float, int, int]]] = [None] * n_cur
    taken_ref = [False] * n_ref
    for cand in candidates:
        _key, i, j = cand
        if accepted[i] is not None or taken_ref[j]:
            continue
        accepted[i] = cand
        taken_ref[j] = True
    return accepted


def match_frames(
    current: DetectionFrame,
    reference: DetectionFrame,
    cfg: MatchConfig,
    current_centers: Optional[Sequence[Tuple[float, float]]] = None,
    reference_centers: Optional[Sequence[Tuple[float, float]]] = None,
) -> MatchResult:
    """Associate the current frame's detections with the reference frame's.

    Candidate pairs share a category and lie within the distance gate.
    They are listed in ascending (current, reference) index order and
    assigned by greedy_assign, nearest first, so equal distances go to the
    lower current index, then the lower reference index. Pairs come back
    in current-index order. current_centers and
    reference_centers, when given, hold each side's BoundingBox.center()
    in detection order; a side left out is computed here.
    """
    cur = current.detections
    ref = reference.detections
    if current_centers is None:
        current_centers = [d.bbox.center() for d in cur]
    if reference_centers is None:
        reference_centers = [d.bbox.center() for d in ref]
    if len(current_centers) != len(cur) or len(reference_centers) != len(ref):
        raise ValueError("centers must hold one (x, y) per detection")

    ref_by_cat: dict = {}
    for j, det in enumerate(ref):
        ref_by_cat.setdefault(det.category.label, []).append(j)

    candidates: List[Tuple[float, int, int]] = []
    gate = cfg.max_center_dist_px
    for i, (det, (cx, cy)) in enumerate(zip(cur, current_centers)):
        for j in ref_by_cat.get(det.category.label, ()):
            rx, ry = reference_centers[j]
            cost = math.hypot(cx - rx, cy - ry)
            if cost <= gate:
                candidates.append((cost, i, j))

    accepted = greedy_assign(candidates, len(cur), len(ref))
    return MatchResult(pairs=tuple([(i, j, cost) for cost, i, j in filter(None, accepted)]))
