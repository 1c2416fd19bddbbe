"""Pinhole-camera geometry: monocular distance from box height, and its inverse.

An object of real height H at depth D spans h = f * H / D pixels for a
camera with focal length f (in pixel units). The same similar-triangles
relation runs both directions: estimation divides, projection multiplies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from .types import BoundingBox, Category, Detection


@dataclass(frozen=True)
class CameraIntrinsics:
    """Focal length in pixel units plus the image size it belongs to."""

    focal_px: float
    image_w: float
    image_h: float

    def __post_init__(self):
        for name in ("focal_px", "image_w", "image_h"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a positive finite number, got {v!r}")


@dataclass(frozen=True, eq=False)
class HeightTable:
    """Real-world object heights in cm, keyed by category label.

    A category absent from the table is an explicit miss: lookup returns
    None and the caller decides what that means (the pipeline skips
    distance and alarms for such objects, nothing else). No silent default.
    """

    entries: Mapping[str, float]

    def __post_init__(self):
        copied: Dict[str, float] = {}
        for label, height in dict(self.entries).items():
            if not isinstance(label, str) or not label:
                raise ValueError(f"height table key must be a non-empty string, got {label!r}")
            if not (isinstance(height, (int, float)) and math.isfinite(height) and height > 0):
                raise ValueError(f"height for {label!r} must be a positive finite number, got {height!r}")
            copied[label] = float(height)
        object.__setattr__(self, "entries", copied)

    def lookup(self, category: Category) -> Optional[float]:
        return self.entries.get(category.label)


def focal_px_from_mm(focal_mm: float, sensor_height_mm: float, image_h_px: float) -> float:
    """Convert a metric focal length to pixel units for a given sensor."""
    if focal_mm <= 0 or sensor_height_mm <= 0 or image_h_px <= 0:
        raise ValueError("focal_mm, sensor_height_mm and image_h_px must all be positive")
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


def project_height(intr: CameraIntrinsics, real_height_cm: float, depth_cm: float) -> float:
    """Pixel height of an object of real height H at depth Z: h = f * H / Z."""
    if not depth_cm > 0:
        raise ValueError(f"depth_cm must be positive, got {depth_cm!r}")
    if not real_height_cm > 0:
        raise ValueError(f"real_height_cm must be positive, got {real_height_cm!r}")
    return intr.focal_px * real_height_cm / depth_cm


def project_ground_point(
    intr: CameraIntrinsics,
    lateral_cm: float,
    depth_cm: float,
    real_height_cm: float,
    aspect_ratio: float,
    camera_height_cm: float,
) -> BoundingBox:
    """Project a ground-standing object into a pixel box.

    The camera sits camera_height_cm above the ground with a level optical
    axis, so the box bottom lands at image_h/2 + f * camera_height / Z and
    the horizontal center at image_w/2 + f * X / Z. Width is
    aspect_ratio * height. The box may extend past the frame edges.
    """
    h = project_height(intr, real_height_cm, depth_cm)
    if not aspect_ratio > 0:
        raise ValueError(f"aspect_ratio must be positive, got {aspect_ratio!r}")
    if camera_height_cm < 0:
        raise ValueError(f"camera_height_cm must be non-negative, got {camera_height_cm!r}")
    w = aspect_ratio * h
    center_x = intr.image_w / 2.0 + intr.focal_px * lateral_cm / depth_cm
    bottom_y = intr.image_h / 2.0 + intr.focal_px * camera_height_cm / depth_cm
    return BoundingBox(x=center_x - w / 2.0, y=bottom_y - h, w=w, h=h)
