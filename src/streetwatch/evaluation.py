"""Scoring tracked streams against simulator ground truth.

Alignment is per frame_id and, within a frame, positional: the
simulator documents that the k-th detection is the k-th emitted truth
record, and the pipeline preserves detection order, so the k-th tracked
object pairs with the k-th emitted record.

Fractions with an empty denominator are reported as None ("n/a"),
never as 0.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .camera import HeightTable
from .direction import DirectionLabel
from .pipeline import Pipeline, PipelineConfig, TrackedObject, config_for_camera
from .simulator import ScenarioSpec, TruthRecord, generate
from .types import DetectionFrame, _is_finite_number


class AlignmentError(Exception):
    """Tracked and truth streams do not describe the same run."""


class EvalError(ValueError):
    """Evaluation inputs are unusable (bad bands, missing heights, ...)."""


@dataclass(frozen=True)
class BandPartition:
    """Depth bands over (0, inf), split at the given ascending boundaries.

    The default splits at 300 and 600 cm. Every band is half-open
    (lo, hi], the last one open-ended; banding uses the true depth.
    These edges are harness conventions, not calibrated values, and are
    echoed in the report's assumptions.
    """

    boundaries_cm: Tuple[float, ...] = (300.0, 600.0)

    def __post_init__(self):
        if not isinstance(self.boundaries_cm, tuple):
            object.__setattr__(self, "boundaries_cm", tuple(self.boundaries_cm))
        if not self.boundaries_cm:
            raise EvalError("at least one band boundary is required")
        previous = 0.0
        for b in self.boundaries_cm:
            if not (_is_finite_number(b) and b > previous):
                raise EvalError(f"band boundaries must be positive and strictly ascending, got {self.boundaries_cm}")
            previous = b

    def labels(self) -> List[str]:
        out = []
        lo = 0.0
        for hi in self.boundaries_cm:
            out.append(f"{lo:g}-{hi:g}")
            lo = hi
        out.append(f"{lo:g}+")
        return out

    def index_for(self, depth_cm: float) -> int:
        for k, hi in enumerate(self.boundaries_cm):
            if depth_cm <= hi:
                return k
        return len(self.boundaries_cm)


@dataclass(frozen=True)
class EvalReport:
    """Headline fractions plus the raw counts they were computed from."""

    category_accuracy: Optional[float]
    direction_accuracy_overall: Optional[float]
    direction_accuracy_by_band: Dict[str, Optional[float]]
    matched_fraction: Optional[float]
    id_switches: int
    counts: Dict[str, object]
    assumptions: Dict[str, object]

    def to_dict(self) -> Dict[str, object]:
        return {
            "category_accuracy": self.category_accuracy,
            "direction_accuracy_overall": self.direction_accuracy_overall,
            "direction_accuracy_by_band": dict(self.direction_accuracy_by_band),
            "matched_fraction": self.matched_fraction,
            "id_switches": self.id_switches,
            "counts": self.counts,
            "assumptions": self.assumptions,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "EvalReport":
        return cls(
            category_accuracy=data["category_accuracy"],
            direction_accuracy_overall=data["direction_accuracy_overall"],
            direction_accuracy_by_band=dict(data["direction_accuracy_by_band"]),
            matched_fraction=data["matched_fraction"],
            id_switches=int(data["id_switches"]),
            counts=dict(data["counts"]),
            assumptions=dict(data["assumptions"]),
        )

    def render_text(self) -> str:
        def fmt(v: Optional[float]) -> str:
            return "n/a" if v is None else f"{v:.4f}"

        rows = [
            ("category accuracy:", fmt(self.category_accuracy)),
            ("direction accuracy overall:", fmt(self.direction_accuracy_overall)),
        ]
        for label, value in self.direction_accuracy_by_band.items():
            rows.append((f"  band {label} cm:", fmt(value)))
        rows.append(("matched fraction:", fmt(self.matched_fraction)))
        rows.append(("id switches:", str(self.id_switches)))
        width = max(len(name) for name, _ in rows) + 2
        return "\n".join(f"{name:<{width}}{value}" for name, value in rows)


def _group_by_frame(records: Iterable) -> Dict[int, List]:
    grouped: Dict[int, List] = {}
    for rec in records:
        grouped.setdefault(rec.frame_id, []).append(rec)
    return grouped


def score(
    tracked: Sequence[TrackedObject],
    truth: Sequence[TruthRecord],
    bands: Optional[BandPartition] = None,
    *,
    excuse: Optional[PipelineConfig] = None,
) -> EvalReport:
    """Score a tracked stream against the truth stream of the same run.

    category accuracy counts emitted detections whose label survived;
    direction accuracy counts only objects that carry a direction (the
    matched fraction reports how many that is). With an excuse config, a
    'forward' label on a moving actor is accepted when the actor's true
    displacement over its gap, projected with its focal length, stays
    inside its dead zone; without one, scoring is strict. Tracked objects
    pair with emitted truth records by position within each frame. Raises
    AlignmentError when per-frame counts of tracked objects and emitted
    truth records disagree.
    """
    bands = bands or BandPartition()
    labels = bands.labels()

    tracked_by_frame = _group_by_frame(tracked)
    truth_by_frame = _group_by_frame(truth)
    truth_by_actor_frame: Dict[Tuple[int, int], TruthRecord] = {
        (r.actor_id, r.frame_id): r for r in truth
    }

    aligned = 0
    category_correct = 0
    dir_classified = [0] * len(labels)
    dir_correct = [0] * len(labels)
    actor_last_id: Dict[int, int] = {}
    id_switches = 0

    for frame_id in sorted(set(tracked_by_frame) | set(truth_by_frame)):
        tracked_here = tracked_by_frame.get(frame_id, [])
        emitted_here = [r for r in truth_by_frame.get(frame_id, []) if r.emitted]
        if len(tracked_here) != len(emitted_here):
            raise AlignmentError(
                f"frame {frame_id}: {len(tracked_here)} tracked objects vs "
                f"{len(emitted_here)} emitted truth records"
            )
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

    def ratio(num: int, den: int) -> Optional[float]:
        return None if den == 0 else num / den

    by_band = {labels[k]: ratio(dir_correct[k], dir_classified[k]) for k in range(len(labels))}
    counts = {
        "aligned": aligned,
        "category_correct": category_correct,
        "direction": {"classified": classified_total, "correct": correct_total},
        "direction_by_band": {
            labels[k]: {"classified": dir_classified[k], "correct": dir_correct[k]}
            for k in range(len(labels))
        },
    }
    assumptions = {
        "band_boundaries_cm": list(bands.boundaries_cm),
        "direction_scoring": "strict" if excuse is None else "excusable-forward",
        "alignment": "positional",
    }
    return EvalReport(
        category_accuracy=ratio(category_correct, aligned),
        direction_accuracy_overall=ratio(correct_total, classified_total),
        direction_accuracy_by_band=by_band,
        matched_fraction=ratio(classified_total, aligned),
        id_switches=id_switches,
        counts=counts,
        assumptions=assumptions,
    )


def config_for_scenario(spec: ScenarioSpec, *, gap: Optional[int] = None) -> PipelineConfig:
    """A pipeline config that mirrors a scenario: same camera, same heights.

    gap, when given, replaces the camera's default lookback.
    """
    heights: Dict[str, float] = {}
    for actor in spec.actors:
        label = actor.category.label
        if label in heights and heights[label] != actor.real_height_cm:
            raise EvalError(f"actors disagree on the height of {label!r}; cannot derive a height table")
        heights[label] = actor.real_height_cm
    cfg = config_for_camera(spec.camera, HeightTable(heights))
    if gap is None:
        return cfg
    return replace(cfg, direction=replace(cfg.direction, gap=gap))


@dataclass(frozen=True)
class ScenarioRun:
    """Everything one simulated run produced, plus its report."""

    spec: ScenarioSpec
    frames: List[DetectionFrame]
    truth: List[TruthRecord]
    tracked: List[TrackedObject]
    events: List
    report: EvalReport


def run_scenario(
    spec: ScenarioSpec,
    *,
    config: Optional[PipelineConfig] = None,
    strict: bool = False,
) -> ScenarioRun:
    """Simulate, replay through the pipeline, and score in one call.

    Unless strict is set, the excusable-forward rule is applied using the
    run's own focal length, gap and dead zone.
    """
    cfg = config or config_for_scenario(spec)
    frames, truth = generate(spec)
    tracked: List[TrackedObject] = []
    events: List = []
    for t, e in Pipeline(cfg).run(frames):
        tracked.extend(t)
        events.extend(e)
    report = score(tracked, truth, excuse=None if strict else cfg)
    return ScenarioRun(spec=spec, frames=frames, truth=truth, tracked=tracked, events=events, report=report)


@dataclass(frozen=True)
class GapComparison:
    gap1: EvalReport
    gap2: EvalReport


def compare_gap_strategies(spec: ScenarioSpec) -> GapComparison:
    """Score the same run under a one-frame and a two-frame lookback.

    Scoring is strict on purpose: the comparison exists to expose labels
    that hide inside the dead zone, so the excusable-forward rule would
    defeat its point.
    """
    frames, truth = generate(spec)
    reports: Dict[int, EvalReport] = {}
    for gap in (1, 2):
        pipeline = Pipeline(config_for_scenario(spec, gap=gap))
        tracked = [obj for t, _ in pipeline.run(frames) for obj in t]
        reports[gap] = score(tracked, truth)
    return GapComparison(gap1=reports[1], gap2=reports[2])
