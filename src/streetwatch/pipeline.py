"""Per-frame orchestration: distance -> association -> direction -> alarms.

The pipeline is deliberately stateless beyond a three-frame window, a
monotonic id counter and the alarm cooldown ledger, so memory and per-frame
cost never depend on stream length. Association is one loop over the
window: the lookback-gap frame first, against the whole frame and as the
only source of direction, then each other frame newest first, ids only,
against the detections still unmatched. Ids reach back the whole window.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Tuple

from .alarm import AlarmEvent, AlarmPolicy, emit_alarms
from .camera import CameraIntrinsics, HeightTable, estimate_distance
from .direction import DirectionConfig, DirectionLabel, classify_direction
from .matcher import MatchConfig, match_frames
from .types import BoundingBox, Category, DetectionFrame, FrameValidationError, ObjectId, validate_frame
from .types import _INF, _checked_frame, _set, _slot_builder

# Lookback window capacity in frames; gap must fit inside it.
WINDOW_DEPTH = 3

# _ROUNDS[gap][n]: the association rounds over a window of n frames, as
# steps back from the newest: the gap frame first, when the window holds
# it, then every other frame newest first
_ROUNDS = {
    gap: tuple(
        ((gap,) if gap <= n else ()) + tuple(back for back in range(1, n + 1) if back != gap)
        for n in range(WINDOW_DEPTH + 1)
    )
    for gap in range(1, WINDOW_DEPTH + 1)
}


class StreamOrderError(Exception):
    """Frames arrived out of stream order (frame_id or t_ms went backwards)."""


@dataclass(frozen=True, slots=True)
class TrackedObject:
    """One detection enriched with identity, distance and direction.

    matched_from is the reference object id the identity was propagated
    from; None means the id is fresh this frame. direction is only ever
    set on objects matched across the full lookback gap.
    """

    object_id: ObjectId
    frame_id: int
    category: Category
    bbox: BoundingBox
    distance_cm: Optional[float]
    direction: Optional[DirectionLabel]
    matched_from: Optional[ObjectId]

    def __post_init__(self):
        if text := _match_error(self.direction, self.matched_from):
            raise ValueError(text)


def _match_error(direction: Optional[DirectionLabel], matched_from: Optional[ObjectId]) -> str:
    """The error text for a direction on a fresh id, or "" when there is none."""
    if direction is not None and matched_from is None:
        return "direction requires a match; matched_from is None"
    return ""


# a direction and a match that pass _match_error, as process_frame sets them
_checked_tracked = _slot_builder(TrackedObject)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one stream needs: camera, heights, association, alarms.

    A matcher or direction left out is its type's default, except the
    match gate and the dead zone, whose defaults are sized for a 640 px
    wide image and scale with the camera's width.
    """

    camera: CameraIntrinsics
    heights: HeightTable
    matcher: Optional[MatchConfig] = None
    direction: Optional[DirectionConfig] = None
    alarm: AlarmPolicy = field(default_factory=AlarmPolicy)

    def __post_init__(self):
        scale = self.camera.image_w / 640.0
        if self.matcher is None:
            _set(self, "matcher", MatchConfig(max_center_dist_px=MatchConfig.max_center_dist_px * scale))
        if self.direction is None:
            _set(self, "direction", DirectionConfig(dead_zone_px=DirectionConfig.dead_zone_px * scale))
        if self.direction.gap > WINDOW_DEPTH:
            raise ValueError(f"gap {self.direction.gap} exceeds the {WINDOW_DEPTH}-frame window")


@dataclass
class _WindowEntry:
    frame: DetectionFrame
    ids: Tuple[ObjectId, ...]
    centers: List[Tuple[float, float]]


class Pipeline:
    """Stateful processor for one detection stream. Feed frames in order.

    no_height counts the detections seen so far whose category has no
    height entry: they get no distance and never alarm.
    """

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.no_height = 0
        self._window: Deque[_WindowEntry] = deque(maxlen=WINDOW_DEPTH)
        self._next_id: ObjectId = 0
        self._ledger: Dict[Tuple[ObjectId, int], int] = {}

    def process_frame(self, frame: DetectionFrame) -> Tuple[List[TrackedObject], List[AlarmEvent]]:
        """Run one frame through the pipeline.

        Order per frame: validate, estimate distances, associate over the
        window (ids + direction from the gap frame, then ids only from the
        rest), assign fresh ids, emit alarms, advance the window.
        Raises StreamOrderError on a frame that does not strictly follow
        the previous one, and FrameValidationError on an invalid frame or
        on a distance estimate that is not a positive finite number. Either
        leaves the pipeline's state as it was.
        """
        validate_frame(frame)
        if self._window:
            last = self._window[-1].frame
            if frame.frame_id <= last.frame_id:
                raise StreamOrderError(
                    f"frame_id {frame.frame_id} does not increase past {last.frame_id}"
                )
            if frame.t_ms < last.t_ms:
                raise StreamOrderError(
                    f"t_ms {frame.t_ms} went backwards from {last.t_ms} at frame_id {frame.frame_id}"
                )

        cfg = self.config
        dets = frame.detections
        n = len(dets)
        distances = [estimate_distance(cfg.camera, cfg.heights, d) for d in dets]
        if _INF in distances or 0.0 in distances:
            # f * H / h overflows to inf, or underflows to 0, on extreme but valid values
            i = next(i for i, d in enumerate(distances) if d == _INF or d == 0.0)
            raise FrameValidationError(
                f"frame_id {frame.frame_id}, detection {i}: distance estimate {distances[i]!r} cm"
                f" from box h={dets[i].bbox.h!r} is not a positive finite number"
            )
        # BoundingBox.center(), once per detection
        centers = [(b.x + b.w / 2.0, b.y + b.h / 2.0) for b in [d.bbox for d in dets]]
        self.no_height += distances.count(None)

        matched_from: List[Optional[ObjectId]] = [None] * n
        directions: List[Optional[DirectionLabel]] = [None] * n
        claimed = set()
        gap = cfg.direction.gap
        rows = range(n)
        for back in _ROUNDS[gap][len(self._window)]:
            ref = self._window[-back]
            current, current_centers = frame, centers
            if back != gap:
                # rows maps the leftovers' sub-frame indices back to this frame's
                rows = [i for i in rows if matched_from[i] is None]
                if not rows:
                    break
                # stamps and detections from the frame validate_frame passed above
                current = _checked_frame(frame.frame_id, frame.t_ms, tuple([dets[i] for i in rows]))
                current_centers = [centers[i] for i in rows]
            for k, j, _cost in match_frames(current, ref.frame, cfg.matcher, current_centers, ref.centers).pairs:
                rid = ref.ids[j]
                if rid in claimed:
                    # id already continued through an earlier round
                    continue
                i = rows[k]
                matched_from[i] = rid
                claimed.add(rid)
                if back == gap:
                    directions[i] = classify_direction(centers[i][0], ref.centers[j][0], cfg.direction)

        ids: List[ObjectId] = []
        for rid in matched_from:
            if rid is None:
                rid = self._next_id
                self._next_id += 1
            ids.append(rid)

        frame_id = frame.frame_id
        tracked = [
            _checked_tracked(oid, frame_id, det.category, det.bbox, distance, direction, rid)
            for oid, det, distance, direction, rid in zip(ids, dets, distances, directions, matched_from)
        ]

        events = emit_alarms(tracked, frame.t_ms, cfg.alarm, self._ledger)

        self._window.append(_WindowEntry(frame=frame, ids=tuple(ids), centers=centers))

        return tracked, events

    def run(self, frames: Iterable[DetectionFrame]) -> Iterator[Tuple[List[TrackedObject], List[AlarmEvent]]]:
        """Process frames in stream order, yielding each frame's (tracked, events)."""
        for frame in frames:
            yield self.process_frame(frame)
