"""Pinhole-camera geometry: monocular distance from box height.

An object of real height H at depth D spans h = f * H / D pixels for a
camera with focal length f (in pixel units). Estimation divides by the box
height; the simulator projects with the same relation, as README's
Simulator section states.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Optional

from .types import Category, Detection, _check, _check_type, _refusal


@dataclass(frozen=True)
class CameraIntrinsics:
    """Focal length in pixel units plus the image size it belongs to."""

    focal_px: float
    image_w: float
    image_h: float

    def __post_init__(self):
        _check(self, "positive", "focal_px", "image_w", "image_h")


@dataclass(frozen=True, eq=False)
class HeightTable:
    """Real-world object heights in cm, keyed by category label.

    A category absent from the table is an explicit miss: lookup returns
    None and the caller decides what that means (the pipeline skips
    distance and alarms for such objects, nothing else). No silent default.
    """

    entries: Mapping[str, float]

    def __post_init__(self):
        _check_type(self, Mapping, "entries")
        copied: Dict[str, float] = {}
        for label, height in dict(self.entries).items():
            text = _refusal("text", "height table key", label) or _refusal("positive", f"height for {label!r}", height)
            if text:
                raise ValueError(text)
            copied[label] = float(height)
        object.__setattr__(self, "entries", copied)

    def lookup(self, category: Category) -> Optional[float]:
        return self.entries.get(category.label)


# The bundled scenarios' camera, 640x480 with f = 1000 px, and the real
# heights they use. These are also the shipped pipeline defaults
# (config.load_config starts from them), so noise-free estimates of the
# bundled scenarios are exact under the default config.
SUITE_CAMERA = CameraIntrinsics(focal_px=1000.0, image_w=640.0, image_h=480.0)
SUITE_HEIGHTS_CM: Dict[str, float] = {
    "car": 140.0,
    "bus": 320.0,
    "truck": 350.0,
    "motorcycle": 110.0,
    "bicycle": 100.0,
    "person": 165.0,
}


def focal_px_from_mm(focal_mm: float, sensor_height_mm: float, image_h_px: float) -> float:
    """Convert a metric focal length to pixel units for a given sensor."""
    for name, v in (("focal_mm", focal_mm), ("sensor_height_mm", sensor_height_mm), ("image_h_px", image_h_px)):
        if text := _refusal("positive", name, v):
            raise ValueError(text)
    return focal_mm * image_h_px / sensor_height_mm


def estimate_distance(intr: CameraIntrinsics, table: HeightTable, det: Detection) -> Optional[float]:
    """Distance to a detected object in cm, or None when its height is unknown.

    D = f * H / h with H taken from the height table. The estimate leans on
    the assumed real height, so table entries must be reviewed per category.
    """
    real_height = table.lookup(det.category)
    if real_height is None:
        return None
    return intr.focal_px * real_height / det.bbox.h

