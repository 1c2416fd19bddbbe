"""Staged proximity alarms.

Three distance bands map to vibration pulses of increasing length; the
message names the category and, when known, the moving direction. Bands
are deliberately narrow and disjoint, so an object sweeping inward fires
once per stage instead of buzzing continuously. The per-object,
per-stage cooldown only spaces repeats: an object that stays inside a
band fires again every cooldown_ms for as long as it stays.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING

from .direction import DirectionLabel
from .types import Category, ObjectId, _check, _check_type, _slot_builder

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
        _check(self, "int>=1", "stage")
        _check(self, "positive", "band_lo_cm", "band_hi_cm", "vibration_s")
        if not self.band_hi_cm > self.band_lo_cm:
            raise ValueError("band_hi_cm must exceed band_lo_cm")


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
    alarm; an edge two bands share belongs to the nearer stage. Off by
    default: the stock behavior fires once per band sweep.
    """

    stages: Tuple[AlarmStage, ...] = DEFAULT_STAGES
    cooldown_ms: int = 1500
    max_events_per_frame: int = 2
    cumulative_bands: bool = False

    def __post_init__(self):
        _check_type(self, AlarmStage, "stages", each=True)
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
        _check(self, "int>=0", "cooldown_ms")
        _check(self, "int>=1", "max_events_per_frame")
        _check(self, "bool", "cumulative_bands")
        # the one band table: closed (lo, hi, stage), nearest stage first, so
        # an edge two cumulative bands share goes to the nearer stage; such
        # a band starts at the next nearer band's top, stage 3 at zero
        his = [s.band_hi_cm for s in ordered]
        lows = his[1:] + [0.0] if self.cumulative_bands else [s.band_lo_cm for s in ordered]
        object.__setattr__(self, "_bands", tuple(zip(lows, his, ordered))[::-1])


@dataclass(frozen=True, slots=True)
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


# nothing: AlarmEvent's constructor checks nothing either
_checked_event = _slot_builder(AlarmEvent)


def render_message(category: Category, direction: Optional[DirectionLabel]) -> str:
    """'Car moving left' when the direction is known, 'Car ahead' otherwise."""
    if direction is None:
        return f"{category.display()} ahead"
    return f"{category.display()} moving {direction.value}"


def stage_for_distance(distance_cm: float, policy: AlarmPolicy) -> Optional[AlarmStage]:
    """The stage whose band contains the distance, or None.

    Bands are closed on both ends, so 600.0 alarms and 600.001 does not.
    In cumulative mode each band reaches down to the next nearer band's
    top edge, stage 3 all the way to zero, and an edge two bands share
    belongs to the nearer stage.
    """
    if not distance_cm > 0:
        raise ValueError(f"distance_cm must be positive, got {distance_cm!r}")
    for lo, hi, st in policy._bands:
        if lo <= distance_cm <= hi:
            return st
    return None


def emit_alarms(
    tracked: Iterable["TrackedObject"],
    t_ms: int,
    policy: AlarmPolicy,
    ledger: Dict[Tuple[ObjectId, int], int],
) -> List[AlarmEvent]:
    """Alarm events for one frame's tracked objects.

    Objects without a distance never alarm. Candidates still in cooldown
    are dropped, the rest are sorted most-urgent first (stage descending,
    then distance ascending, then object_id) and capped at
    max_events_per_frame. The ledger maps (object_id, stage) to the last
    emission time. Only events actually emitted touch it, so a capped-out
    candidate may fire on the next frame.
    """
    # entries past cooldown cannot suppress anything; dropping them keeps
    # the ledger O(recent alarms), and an entry that stays is in cooldown
    for key in [key for key, last in ledger.items() if t_ms - last >= policy.cooldown_ms]:
        del ledger[key]
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
        if st is None or (obj.object_id, st.stage) in ledger:
            continue
        candidates.append((-st.stage, distance, obj.object_id, len(candidates), obj, st))
    candidates.sort()
    # only the events that fire are built
    emitted = []
    for _, distance, object_id, _, obj, st in candidates[: policy.max_events_per_frame]:
        ledger[object_id, st.stage] = t_ms
        emitted.append(
            _checked_event(
                t_ms,
                object_id,
                obj.category,
                st.stage,
                st.vibration_s,
                distance,
                obj.direction,
                render_message(obj.category, obj.direction),
            )
        )
    return emitted
