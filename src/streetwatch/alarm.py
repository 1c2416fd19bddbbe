"""Staged proximity alarms.

Three distance bands map to vibration pulses of increasing length; the
message names the category and, when known, the moving direction. Bands
are deliberately narrow and disjoint: an object sweeping inward fires
once per stage instead of buzzing continuously, and the per-object
cooldown keeps a loiterer at a band edge quiet.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING

from .direction import DirectionLabel
from .types import Category, ObjectId

if TYPE_CHECKING:  # pragma: no cover
    from .pipeline import TrackedObject


@dataclass(frozen=True)
class AlarmStage:
    """One danger band: stage number, closed distance band in cm, vibration length."""

    stage: int
    band_lo_cm: float
    band_hi_cm: float
    vibration_s: float

    def __post_init__(self):
        if not isinstance(self.stage, int) or isinstance(self.stage, bool) or self.stage < 1:
            raise ValueError(f"stage must be an integer >= 1, got {self.stage!r}")
        if not (math.isfinite(self.band_lo_cm) and self.band_lo_cm > 0):
            raise ValueError(f"band_lo_cm must be positive and finite, got {self.band_lo_cm!r}")
        if not (math.isfinite(self.band_hi_cm) and self.band_hi_cm > self.band_lo_cm):
            raise ValueError("band_hi_cm must exceed band_lo_cm")
        if not self.vibration_s > 0:
            raise ValueError(f"vibration_s must be positive, got {self.vibration_s!r}")

    def contains(self, distance_cm: float) -> bool:
        return self.band_lo_cm <= distance_cm <= self.band_hi_cm


# Stage 1 is the earliest warning, stage 3 the most urgent (nearest band,
# longest vibration).
DEFAULT_STAGES: Tuple[AlarmStage, ...] = (
    AlarmStage(stage=1, band_lo_cm=570.0, band_hi_cm=600.0, vibration_s=0.8),
    AlarmStage(stage=2, band_lo_cm=270.0, band_hi_cm=300.0, vibration_s=1.2),
    AlarmStage(stage=3, band_lo_cm=120.0, band_hi_cm=150.0, vibration_s=1.6),
)


@dataclass(frozen=True)
class AlarmPolicy:
    """The three stages, held in stage order, plus rate limiting.

    cumulative_bands widens each band downward to the top of the next
    nearer one (and stage 3 down to zero), so the gaps between bands also
    alarm. Off by default: the stock behavior fires once per band sweep.
    """

    stages: Tuple[AlarmStage, ...] = DEFAULT_STAGES
    cooldown_ms: int = 1500
    max_events_per_frame: int = 2
    cumulative_bands: bool = False

    def __post_init__(self):
        # kept in stage order, so lookups never re-sort
        ordered = tuple(sorted(self.stages, key=lambda s: s.stage))
        object.__setattr__(self, "stages", ordered)
        if len(ordered) != 3:
            raise ValueError(f"policy needs exactly 3 stages, got {len(ordered)}")
        numbers = tuple(s.stage for s in ordered)
        if numbers != (1, 2, 3):
            raise ValueError(f"stage numbers must be 1, 2, 3, got {numbers}")
        for earlier, nearer in zip(ordered, ordered[1:]):
            if not nearer.band_hi_cm < earlier.band_lo_cm:
                raise ValueError("a higher stage must cover a strictly nearer band")
            if not nearer.vibration_s > earlier.vibration_s:
                raise ValueError("a higher stage must vibrate strictly longer")
        if not isinstance(self.cooldown_ms, int) or self.cooldown_ms < 0:
            raise ValueError(f"cooldown_ms must be a non-negative integer, got {self.cooldown_ms!r}")
        if not isinstance(self.max_events_per_frame, int) or self.max_events_per_frame < 1:
            raise ValueError(f"max_events_per_frame must be an integer >= 1, got {self.max_events_per_frame!r}")


@dataclass(frozen=True)
class AlarmEvent:
    """One emitted alarm. vibration_s is the pulse length the device should play."""

    t_ms: int
    object_id: ObjectId
    category: Category
    stage: int
    vibration_s: float
    distance_cm: float
    direction: Optional[DirectionLabel]
    message: str


def render_message(category: Category, direction: Optional[DirectionLabel]) -> str:
    """'Car moving left' when the direction is known, 'Car ahead' otherwise."""
    if direction is None:
        return f"{category.display()} ahead"
    return f"{category.display()} moving {direction.value}"


def stage_for_distance(distance_cm: float, policy: AlarmPolicy) -> Optional[AlarmStage]:
    """The stage whose band contains the distance, or None.

    Bands are closed on both ends, so 600.0 alarms and 600.001 does not.
    In cumulative mode each band reaches down to the next nearer band's
    top edge, stage 3 all the way to zero.
    """
    if not distance_cm > 0:
        raise ValueError(f"distance_cm must be positive, got {distance_cm!r}")
    if policy.cumulative_bands:
        # nearest stage first so the most urgent band wins
        floor = 0.0
        for st in reversed(policy.stages):
            if floor < distance_cm <= st.band_hi_cm:
                return st
            floor = st.band_hi_cm
        return None
    for st in policy.stages:
        if st.contains(distance_cm):
            return st
    return None


@dataclass
class CooldownLedger:
    """Last emission time per (object_id, stage); prevents re-alarm chatter."""

    last_emitted: Dict[Tuple[ObjectId, int], int] = field(default_factory=dict)

    def expired(self, object_id: ObjectId, stage: int, t_ms: int, cooldown_ms: int) -> bool:
        last = self.last_emitted.get((object_id, stage))
        return last is None or t_ms - last >= cooldown_ms

    def record(self, object_id: ObjectId, stage: int, t_ms: int) -> None:
        self.last_emitted[(object_id, stage)] = t_ms

    def prune(self, t_ms: int, cooldown_ms: int) -> None:
        # entries past cooldown cannot suppress anything; drop them so the
        # ledger stays O(recent alarms) on long streams
        stale = [k for k, last in self.last_emitted.items() if t_ms - last >= cooldown_ms]
        for k in stale:
            del self.last_emitted[k]


def emit_alarms(
    tracked: Iterable["TrackedObject"],
    t_ms: int,
    policy: AlarmPolicy,
    ledger: CooldownLedger,
) -> List[AlarmEvent]:
    """Alarm events for one frame's tracked objects.

    Objects without a distance never alarm. Candidates still in cooldown
    are dropped, the rest are sorted most-urgent first (stage descending,
    then distance ascending, then object_id) and capped at
    max_events_per_frame. Only events actually emitted touch the ledger,
    so a capped-out candidate may fire on the next frame.
    """
    ledger.prune(t_ms, policy.cooldown_ms)
    candidates: List[Tuple[int, float, int, AlarmEvent]] = []
    for obj in tracked:
        if obj.distance_cm is None:
            continue
        st = stage_for_distance(obj.distance_cm, policy)
        if st is None:
            continue
        if not ledger.expired(obj.object_id, st.stage, t_ms, policy.cooldown_ms):
            continue
        event = AlarmEvent(
            t_ms=t_ms,
            object_id=obj.object_id,
            category=obj.category,
            stage=st.stage,
            vibration_s=st.vibration_s,
            distance_cm=obj.distance_cm,
            direction=obj.direction,
            message=render_message(obj.category, obj.direction),
        )
        candidates.append((-st.stage, obj.distance_cm, obj.object_id, event))
    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    emitted = [c[3] for c in candidates[: policy.max_events_per_frame]]
    for event in emitted:
        ledger.record(event.object_id, event.stage, t_ms)
    return emitted
