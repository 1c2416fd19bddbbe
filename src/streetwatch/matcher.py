"""Cross-frame detection association.

Greedy assignment over the globally sorted candidate list, with a hard
same-category constraint. Deterministic and O(n^2 log n); at street-scene
cardinalities that beats dragging in an appearance-feature tracker, and
the pipeline tolerates the occasional identity switch anyway.

Two cost strategies: Euclidean center distance (default) and IoU. At a
capture rate of tens of frames per second boxes barely move between
frames, which makes IoU overlap nearly binary; center distance keeps its
resolution, hence the default.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from .types import BoundingBox, DetectionFrame, _is_finite_number

STRATEGIES = ("euclidean", "iou")


@dataclass(frozen=True)
class MatchConfig:
    """Association strategy and acceptance gates.

    max_center_dist_px gates the euclidean strategy (default 25% of a
    640 px image width); min_iou gates the iou strategy.
    """

    strategy: str = "euclidean"
    max_center_dist_px: float = 160.0
    min_iou: float = 0.1

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if not (_is_finite_number(self.max_center_dist_px) and self.max_center_dist_px > 0):
            raise ValueError(f"max_center_dist_px must be positive, got {self.max_center_dist_px!r}")
        if not (_is_finite_number(self.min_iou) and 0.0 <= self.min_iou <= 1.0):
            raise ValueError(f"min_iou must lie in [0, 1], got {self.min_iou!r}")


@dataclass(frozen=True)
class MatchResult:
    """Partial bijection between current and reference detection indices.

    pairs holds (current_index, reference_index, cost) where cost is center
    distance in px for the euclidean strategy and IoU for the iou strategy.
    """

    pairs: Tuple[Tuple[int, int, float], ...]


def _iou(a: BoundingBox, b: BoundingBox) -> float:
    ix = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    iy = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = a.w * a.h + b.w * b.h - inter
    return inter / union


def greedy_assign(
    candidates: List[Tuple[float, int, int]], n_cur: int, n_ref: int
) -> List[Tuple[float, int, int]]:
    """Accept (key, i, j) candidates best-first while both ends are free.

    Sorts the list in place: ascending key, ties broken by (i, j). i ranges
    over n_cur current items and j over n_ref reference items. Returns the
    accepted candidates in acceptance order.
    """
    candidates.sort()
    taken_cur = [False] * n_cur
    taken_ref = [False] * n_ref
    accepted = []
    for cand in candidates:
        _key, i, j = cand
        if taken_cur[i] or taken_ref[j]:
            continue
        taken_cur[i] = True
        taken_ref[j] = True
        accepted.append(cand)
    return accepted


def match_frames(current: DetectionFrame, reference: DetectionFrame, cfg: MatchConfig) -> MatchResult:
    """Associate the current frame's detections with the reference frame's.

    Candidate pairs share a category and pass the strategy gate. They are
    assigned by greedy_assign, best first: ascending center distance, or
    descending IoU.
    """
    cur = current.detections
    ref = reference.detections

    ref_by_cat: dict = {}
    for j, det in enumerate(ref):
        ref_by_cat.setdefault(det.category.label, []).append(j)

    candidates: List[Tuple[float, int, int]] = []
    if cfg.strategy == "euclidean":
        ref_centers = [d.bbox.center() for d in ref]
        gate = cfg.max_center_dist_px
        for i, det in enumerate(cur):
            cx, cy = det.bbox.center()
            for j in ref_by_cat.get(det.category.label, ()):
                rx, ry = ref_centers[j]
                cost = math.hypot(cx - rx, cy - ry)
                if cost <= gate:
                    candidates.append((cost, i, j))
    else:
        gate = cfg.min_iou
        for i, det in enumerate(cur):
            for j in ref_by_cat.get(det.category.label, ()):
                overlap = _iou(det.bbox, ref[j].bbox)
                if overlap >= gate:
                    # negate so one ascending sort serves both strategies
                    candidates.append((-overlap, i, j))

    accepted = greedy_assign(candidates, len(cur), len(ref))
    iou = cfg.strategy == "iou"
    pairs = sorted((i, j, -key if iou else key) for key, i, j in accepted)
    return MatchResult(pairs=tuple(pairs))
