"""Moving-direction classification from horizontal box displacement.

Comparing against the frame two steps back instead of the previous frame
doubles the displacement a slow crosser accumulates, which pulls real
motion out of the detector-jitter dead zone. The gap is configurable;
2 is the default for exactly that reason.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .types import _check


class DirectionLabel(str, Enum):
    LEFT = "left"
    RIGHT = "right"
    FORWARD = "forward"


@dataclass(frozen=True)
class DirectionConfig:
    """Lookback gap in frames and the jitter dead zone in pixels.

    The default dead zone of 8 px is sized for a 640 px wide image; a
    PipelineConfig built without a direction scales it to its camera's width.
    """

    gap: int = 2
    dead_zone_px: float = 8.0

    def __post_init__(self):
        _check(self, "int>=1", "gap")
        _check(self, "positive", "dead_zone_px")


def classify_direction(x_current: float, x_reference: float, cfg: DirectionConfig) -> DirectionLabel:
    """Label lateral motion from the x displacement over the lookback gap.

    The dead zone is closed: a displacement of exactly +/- dead_zone_px is
    still 'forward'. x grows rightward, so positive displacement is motion
    to the right.
    """
    dx = x_current - x_reference
    if dx > cfg.dead_zone_px:
        return DirectionLabel.RIGHT
    if dx < -cfg.dead_zone_px:
        return DirectionLabel.LEFT
    return DirectionLabel.FORWARD
