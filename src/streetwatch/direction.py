"""Moving-direction classification from horizontal box displacement.

Comparing against the frame two steps back instead of the previous frame
doubles the displacement a slow crosser accumulates, which pulls real
motion out of the detector-jitter dead zone. The gap is configurable;
2 is the default for exactly that reason.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .types import _is_finite_number


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
        if not isinstance(self.gap, int) or isinstance(self.gap, bool) or self.gap < 1:
            raise ValueError(f"gap must be an integer >= 1, got {self.gap!r}")
        if not (_is_finite_number(self.dead_zone_px) and self.dead_zone_px > 0):
            raise ValueError(f"dead_zone_px must be positive, got {self.dead_zone_px!r}")


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
