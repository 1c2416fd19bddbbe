"""Per-frame orchestration: distance -> association -> direction -> alarms.

The pipeline is deliberately stateless beyond a three-frame window, a
monotonic id counter and the alarm cooldown ledger, so memory and per-frame
cost never depend on stream length. Direction comes only from the match
against the lookback-gap frame; a bridge match of the leftovers against
the previous frame keeps object ids continuous across the frames the gap
match cannot reach, but never feeds direction. Both are the same
association step, run twice.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Tuple

from .alarm import AlarmEvent, AlarmPolicy, CooldownLedger, emit_alarms
from .camera import CameraIntrinsics, HeightTable, estimate_distance
from .direction import DirectionConfig, DirectionLabel, classify_direction
from .matcher import MatchConfig, match_frames
from .types import BoundingBox, Category, DetectionFrame, ObjectId, _new, _set, validate_frame

# Lookback window capacity in frames; gap must fit inside it.
WINDOW_DEPTH = 3


class StreamOrderError(Exception):
    """Frames arrived out of stream order (frame_id or t_ms went backwards)."""


@dataclass(frozen=True)
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


def _checked_tracked(
    object_id: ObjectId,
    frame_id: int,
    category: Category,
    bbox: BoundingBox,
    distance_cm: Optional[float],
    direction: Optional[DirectionLabel],
    matched_from: Optional[ObjectId],
) -> TrackedObject:
    """A TrackedObject without __post_init__, for a direction and a match
    that pass _match_error, as process_frame sets them."""
    obj = _new(TrackedObject)
    _set(obj, "object_id", object_id)
    _set(obj, "frame_id", frame_id)
    _set(obj, "category", category)
    _set(obj, "bbox", bbox)
    _set(obj, "distance_cm", distance_cm)
    _set(obj, "direction", direction)
    _set(obj, "matched_from", matched_from)
    return obj


@dataclass
class PipelineConfig:
    """Everything one stream needs: camera, heights, association, alarms."""

    camera: CameraIntrinsics
    heights: HeightTable
    matcher: MatchConfig = field(default_factory=MatchConfig)
    direction: DirectionConfig = field(default_factory=DirectionConfig)
    alarm: AlarmPolicy = field(default_factory=AlarmPolicy)

    def __post_init__(self):
        if self.direction.gap > WINDOW_DEPTH:
            raise ValueError(f"gap {self.direction.gap} exceeds the {WINDOW_DEPTH}-frame window")


def config_for_camera(camera: CameraIntrinsics, heights: HeightTable) -> PipelineConfig:
    """The config for one camera: every field at its type's default, except
    the dead zone and the match gate, whose defaults are sized for a 640 px
    wide image and scale with the camera's width."""
    scale = camera.image_w / 640.0
    return PipelineConfig(
        camera=camera,
        heights=heights,
        matcher=MatchConfig(max_center_dist_px=MatchConfig.max_center_dist_px * scale),
        direction=DirectionConfig(dead_zone_px=DirectionConfig.dead_zone_px * scale),
    )


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
        self._window: List[_WindowEntry] = []
        self._next_id: ObjectId = 0
        self._ledger = CooldownLedger()

    def process_frame(self, frame: DetectionFrame) -> Tuple[List[TrackedObject], List[AlarmEvent]]:
        """Run one frame through the pipeline.

        Order per frame: validate, estimate distances, match against the
        gap frame (ids + direction), bridge leftovers to the previous frame
        (ids only), assign fresh ids, emit alarms, advance the window.
        Raises StreamOrderError on a frame that does not strictly follow
        the previous one.
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
        # BoundingBox.center(), once per detection
        centers = [(b.x + b.w / 2.0, b.y + b.h / 2.0) for b in [d.bbox for d in dets]]
        self.no_height += distances.count(None)

        matched_from: List[Optional[ObjectId]] = [None] * n
        directions: List[Optional[DirectionLabel]] = [None] * n
        claimed = set()

        def associate(current: DetectionFrame, rows, current_centers, ref: _WindowEntry, directed: bool) -> None:
            # rows maps current's detection indices back to this frame's
            for k, j, _cost in match_frames(current, ref.frame, cfg.matcher, current_centers, ref.centers).pairs:
                rid = ref.ids[j]
                if rid in claimed:
                    # id already continued through the gap match
                    continue
                i = rows[k]
                matched_from[i] = rid
                claimed.add(rid)
                if directed:
                    directions[i] = classify_direction(centers[i][0], ref.centers[j][0], cfg.direction)

        gap = cfg.direction.gap
        primary = self._window[-gap] if len(self._window) >= gap else None
        if primary is not None:
            associate(frame, range(n), centers, primary, directed=True)
        if self._window and self._window[-1] is not primary:
            leftovers = [i for i in range(n) if matched_from[i] is None]
            if leftovers:
                sub = DetectionFrame(frame.frame_id, frame.t_ms, tuple(dets[i] for i in leftovers))
                associate(sub, leftovers, [centers[i] for i in leftovers], self._window[-1], directed=False)

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
        if len(self._window) > WINDOW_DEPTH:
            del self._window[0]

        return tracked, events

    def run(self, frames: Iterable[DetectionFrame]) -> Iterator[Tuple[List[TrackedObject], List[AlarmEvent]]]:
        """Process frames in stream order, yielding each frame's (tracked, events)."""
        for frame in frames:
            yield self.process_frame(frame)
