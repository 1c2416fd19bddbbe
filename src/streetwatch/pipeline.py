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

import logging
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Tuple

from .alarm import AlarmEvent, AlarmPolicy, CooldownLedger, emit_alarms
from .camera import CameraIntrinsics, HeightTable, estimate_distance
from .direction import DirectionConfig, DirectionLabel, classify_direction
from .matcher import MatchConfig, match_frames
from .types import BoundingBox, Category, DetectionFrame, ObjectId, validate_frame

logger = logging.getLogger(__name__)

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
        if self.matched_from is None and self.direction is not None:
            raise ValueError("direction requires a match; matched_from is None")


@dataclass
class PipelineConfig:
    """Everything one stream needs: camera, heights, association, alarms."""

    camera: CameraIntrinsics
    camera_height_cm: float
    heights: HeightTable
    matcher: MatchConfig = field(default_factory=MatchConfig)
    direction: DirectionConfig = field(default_factory=DirectionConfig)
    alarm: AlarmPolicy = field(default_factory=AlarmPolicy)

    def __post_init__(self):
        if not self.camera_height_cm >= 0:
            raise ValueError(f"camera_height_cm must be non-negative, got {self.camera_height_cm!r}")
        if self.direction.gap > WINDOW_DEPTH:
            raise ValueError(f"gap {self.direction.gap} exceeds the {WINDOW_DEPTH}-frame window")


@dataclass
class _WindowEntry:
    frame: DetectionFrame
    ids: Tuple[ObjectId, ...]


class Pipeline:
    """Stateful processor for one detection stream. Feed frames in order."""

    def __init__(self, config: PipelineConfig):
        self.config = config
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
        skipped = sum(1 for d in distances if d is None)
        if skipped:
            logger.debug("frame %d: %d detection(s) without a height entry", frame.frame_id, skipped)

        matched_from: List[Optional[ObjectId]] = [None] * n
        directions: List[Optional[DirectionLabel]] = [None] * n
        claimed = set()

        def associate(current: DetectionFrame, rows, ref: _WindowEntry, directed: bool) -> None:
            # rows maps current's detection indices back to this frame's
            for k, j, _cost in match_frames(current, ref.frame, cfg.matcher).pairs:
                rid = ref.ids[j]
                if rid in claimed:
                    # id already continued through the gap match
                    continue
                i = rows[k]
                matched_from[i] = rid
                claimed.add(rid)
                if directed:
                    cx, _ = dets[i].bbox.center()
                    rx, _ = ref.frame.detections[j].bbox.center()
                    directions[i] = classify_direction(cx, rx, cfg.direction)

        gap = cfg.direction.gap
        primary = self._window[-gap] if len(self._window) >= gap else None
        if primary is not None:
            associate(frame, range(n), primary, directed=True)
        if self._window and self._window[-1] is not primary:
            leftovers = [i for i in range(n) if matched_from[i] is None]
            if leftovers:
                sub = DetectionFrame(frame.frame_id, frame.t_ms, tuple(dets[i] for i in leftovers))
                associate(sub, leftovers, self._window[-1], directed=False)

        ids: List[ObjectId] = []
        for rid in matched_from:
            if rid is None:
                rid = self._next_id
                self._next_id += 1
            ids.append(rid)

        tracked = [
            TrackedObject(
                object_id=ids[i],
                frame_id=frame.frame_id,
                category=dets[i].category,
                bbox=dets[i].bbox,
                distance_cm=distances[i],
                direction=directions[i],
                matched_from=matched_from[i],
            )
            for i in range(n)
        ]

        events = emit_alarms(tracked, frame.t_ms, cfg.alarm, self._ledger)

        self._window.append(_WindowEntry(frame=frame, ids=tuple(ids)))
        if len(self._window) > WINDOW_DEPTH:
            del self._window[0]

        return tracked, events

    def run(self, frames: Iterable[DetectionFrame]) -> Iterator[Tuple[List[TrackedObject], List[AlarmEvent]]]:
        """Process frames in stream order, yielding each frame's (tracked, events)."""
        for frame in frames:
            yield self.process_frame(frame)
