"""Staged proximity alarms.

Three distance bands map to vibration pulses of increasing length; the
message names the category and, when known, the moving direction. Bands
are deliberately narrow and disjoint: an object sweeping inward fires
once per stage instead of buzzing continuously, and the per-object
cooldown keeps a loiterer at a band edge quiet.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING

from .direction import DirectionLabel
from .types import Category, ObjectId, _is_finite_number

if TYPE_CHECKING:  # pragma: no cover
    from .pipeline import TrackedObject


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class AlarmStage:
    """One danger band: stage number, closed distance band in cm, vibration length."""

    stage: int
    band_lo_cm: float
    band_hi_cm: float
    vibration_s: float

    def __post_init__(self):
        if not _is_int(self.stage) or self.stage < 1:
            raise ValueError(f"stage must be an integer >= 1, got {self.stage!r}")
        if not (_is_finite_number(self.band_lo_cm) and self.band_lo_cm > 0):
            raise ValueError(f"band_lo_cm must be positive and finite, got {self.band_lo_cm!r}")
        if not (_is_finite_number(self.band_hi_cm) and self.band_hi_cm > self.band_lo_cm):
            raise ValueError("band_hi_cm must exceed band_lo_cm")
        if not (_is_finite_number(self.vibration_s) and self.vibration_s > 0):
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
        if not _is_int(self.cooldown_ms) or self.cooldown_ms < 0:
            raise ValueError(f"cooldown_ms must be a non-negative integer, got {self.cooldown_ms!r}")
        if not _is_int(self.max_events_per_frame) or self.max_events_per_frame < 1:
            raise ValueError(f"max_events_per_frame must be an integer >= 1, got {self.max_events_per_frame!r}")
        if not isinstance(self.cumulative_bands, bool):
            raise ValueError(f"cumulative_bands must be a bool, got {self.cumulative_bands!r}")


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
    # an entry that outlives the prune is still in its cooldown
    ledger.prune(t_ms, policy.cooldown_ms)
    # stage 1 is the farthest band in both modes, so nothing beyond its top
    # edge can alarm; NaN and non-positive distances still reach the lookup
    # and raise there
    farthest_cm = policy.stages[0].band_hi_cm
    # (-stage, distance, object_id, arrival, object, stage): the arrival
    # index breaks every tie, so the tuples sort as the first three keys
    # with a stable sort and never compare the objects
    candidates: List[Tuple[int, float, int, int, "TrackedObject", AlarmStage]] = []
    for obj in tracked:
        distance = obj.distance_cm
        if distance is None or distance > farthest_cm:
            continue
        st = stage_for_distance(distance, policy)
        if st is None:
            continue
        if (obj.object_id, st.stage) in ledger.last_emitted:
            continue
        candidates.append((-st.stage, distance, obj.object_id, len(candidates), obj, st))
    candidates.sort()
    # only the events that fire are built
    emitted = []
    for _, distance, object_id, _, obj, st in candidates[: policy.max_events_per_frame]:
        ledger.record(object_id, st.stage, t_ms)
        emitted.append(
            AlarmEvent(
                t_ms=t_ms,
                object_id=object_id,
                category=obj.category,
                stage=st.stage,
                vibration_s=st.vibration_s,
                distance_cm=distance,
                direction=obj.direction,
                message=render_message(obj.category, obj.direction),
            )
        )
    return emitted
