"""Synthetic detection streams with exact ground truth.

Actors move on the ground plane in camera coordinates (X lateral in cm,
positive to the camera's right; Z depth in cm) and are projected through
the pinhole model into detection boxes. Noise is applied per detection in
a fixed order: center jitter, height jitter, label flip, drop.

Randomness comes from a counter-based generator (Philox) keyed by
(seed, actor_id) with the frame_id as counter, so every (frame, actor)
cell owns an independent stream: adding or removing an actor never
perturbs anyone else's noise, and generation order cannot matter.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from .camera import CameraIntrinsics, project_ground_point
from .direction import DirectionLabel
from .types import BoundingBox, Category, Detection, DetectionFrame, KNOWN_CATEGORIES, key_mismatch

TRAJECTORY_KINDS = ("linear", "stationary")

_MAX_SEED = 2**63 - 1


class ScenarioError(ValueError):
    """A scenario spec is internally inconsistent."""


@dataclass(frozen=True)
class NoiseSpec:
    """Detector imperfections, all off by default.

    center_jitter_px: isotropic gaussian sigma added to the box center.
    height_jitter_frac: gaussian sigma of a multiplicative box-size factor.
    drop_prob: probability a detection is omitted entirely.
    label_flip_prob: probability the category is swapped for another known one.
    """

    center_jitter_px: float = 0.0
    height_jitter_frac: float = 0.0
    drop_prob: float = 0.0
    label_flip_prob: float = 0.0

    def __post_init__(self):
        for name in ("center_jitter_px", "height_jitter_frac"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0):
                raise ScenarioError(f"{name} must be non-negative and finite, got {v!r}")
        for name in ("drop_prob", "label_flip_prob"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and 0.0 <= v <= 1.0):
                raise ScenarioError(f"{name} must lie in [0, 1], got {v!r}")


@dataclass(frozen=True)
class Trajectory:
    """Ground-plane path. Positions are functions of absolute stream time."""

    kind: str
    x0_cm: float
    z0_cm: float
    vx_cm_s: float = 0.0
    vz_cm_s: float = 0.0

    def __post_init__(self):
        if self.kind not in TRAJECTORY_KINDS:
            raise ScenarioError(f"trajectory kind must be one of {TRAJECTORY_KINDS}, got {self.kind!r}")
        if self.kind == "stationary" and (self.vx_cm_s != 0.0 or self.vz_cm_s != 0.0):
            raise ScenarioError("a stationary trajectory cannot carry a velocity")
        for name in ("x0_cm", "z0_cm", "vx_cm_s", "vz_cm_s"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ScenarioError(f"{name} must be a finite number, got {v!r}")

    def position(self, t_s: float) -> Tuple[float, float]:
        return (self.x0_cm + self.vx_cm_s * t_s, self.z0_cm + self.vz_cm_s * t_s)


@dataclass(frozen=True)
class ActorSpec:
    """One simulated object: what it is, how tall, and where it goes."""

    actor_id: int
    category: Category
    real_height_cm: float
    aspect_ratio: float
    trajectory: Trajectory
    enter_s: Optional[float] = None
    exit_s: Optional[float] = None

    def __post_init__(self):
        if not isinstance(self.actor_id, int) or isinstance(self.actor_id, bool) or self.actor_id < 0:
            raise ScenarioError(f"actor_id must be a non-negative integer, got {self.actor_id!r}")
        if not self.real_height_cm > 0:
            raise ScenarioError(f"actor {self.actor_id}: real_height_cm must be positive")
        if not self.aspect_ratio > 0:
            raise ScenarioError(f"actor {self.actor_id}: aspect_ratio must be positive")

    def span(self, duration_s: float) -> Tuple[float, float]:
        enter = 0.0 if self.enter_s is None else self.enter_s
        exit_ = duration_s if self.exit_s is None else self.exit_s
        return enter, exit_


@dataclass(frozen=True)
class ScenarioSpec:
    """A full scenario: camera, actors, noise, seed."""

    name: str
    duration_s: float
    frame_rate_hz: float
    camera: CameraIntrinsics
    camera_height_cm: float
    actors: Tuple[ActorSpec, ...]
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.actors, tuple):
            object.__setattr__(self, "actors", tuple(self.actors))
        if not self.duration_s > 0:
            raise ScenarioError(f"duration_s must be positive, got {self.duration_s!r}")
        if not self.frame_rate_hz > 0:
            raise ScenarioError(f"frame_rate_hz must be positive, got {self.frame_rate_hz!r}")
        if not self.camera_height_cm > 0:
            raise ScenarioError(f"camera_height_cm must be positive, got {self.camera_height_cm!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not 0 <= self.seed <= _MAX_SEED:
            raise ScenarioError(f"seed must be an integer in [0, 2**63), got {self.seed!r}")
        seen = set()
        for actor in self.actors:
            if actor.actor_id in seen:
                raise ScenarioError(f"actor {actor.actor_id}: duplicate actor_id")
            seen.add(actor.actor_id)
            enter, exit_ = actor.span(self.duration_s)
            if not (0.0 <= enter <= exit_ <= self.duration_s):
                raise ScenarioError(
                    f"actor {actor.actor_id}: span [{enter}, {exit_}] must lie inside [0, {self.duration_s}]"
                )
            # linear depth is monotone, so checking the span ends suffices
            for t in (enter, exit_):
                _, z = actor.trajectory.position(t)
                if not z > 0:
                    raise ScenarioError(
                        f"actor {actor.actor_id}: depth becomes non-positive during its span (z={z} at t={t})"
                    )

    def frame_count(self) -> int:
        return max(1, int(round(self.duration_s * self.frame_rate_hz)))


@dataclass(frozen=True)
class TruthRecord:
    """Ground truth for one actor at one frame, emitted or not."""

    frame_id: int
    actor_id: int
    true_depth_cm: float
    true_lateral_cm: float
    true_direction: DirectionLabel
    emitted: bool
    true_category: Category


def true_direction_of(trajectory: Trajectory) -> DirectionLabel:
    """Truth labels come from the lateral velocity sign, not from pixels."""
    if trajectory.vx_cm_s > 0:
        return DirectionLabel.RIGHT
    if trajectory.vx_cm_s < 0:
        return DirectionLabel.LEFT
    return DirectionLabel.FORWARD


def _cell_rng(seed: int, frame_id: int, actor_id: int) -> np.random.Generator:
    # one independent Philox stream per (seed, actor, frame) cell
    return np.random.Generator(np.random.Philox(key=[seed, actor_id], counter=[frame_id, 0, 0, 0]))


def generate(spec: ScenarioSpec) -> Tuple[List[DetectionFrame], List[TruthRecord]]:
    """Render a scenario into a detection stream and its truth stream.

    Every in-span actor yields exactly one truth record per frame, with
    emitted=False when noise dropped the detection. Within a frame both
    detections and truth records follow the actor order of the spec, so
    the k-th detection corresponds to the k-th emitted truth record.
    """
    frames: List[DetectionFrame] = []
    truth: List[TruthRecord] = []
    noise = spec.noise
    for i in range(spec.frame_count()):
        t_s = i / spec.frame_rate_hz
        t_ms = int(round(i * 1000.0 / spec.frame_rate_hz))
        detections: List[Detection] = []
        for actor in spec.actors:
            enter, exit_ = actor.span(spec.duration_s)
            if not enter <= t_s <= exit_:
                continue
            x_cm, z_cm = actor.trajectory.position(t_s)
            box = project_ground_point(
                spec.camera,
                lateral_cm=x_cm,
                depth_cm=z_cm,
                real_height_cm=actor.real_height_cm,
                aspect_ratio=actor.aspect_ratio,
                camera_height_cm=spec.camera_height_cm,
            )
            rng = _cell_rng(spec.seed, i, actor.actor_id)
            # fixed draw order keeps streams diffable when toggling one knob
            normals = rng.standard_normal(3)
            uniforms = rng.random(2)

            cx, cy = box.center()
            cx += noise.center_jitter_px * normals[0]
            cy += noise.center_jitter_px * normals[1]
            # clamp so extreme jitter cannot produce a non-positive box
            factor = max(1.0 + noise.height_jitter_frac * normals[2], 0.01)
            h = box.h * factor
            w = actor.aspect_ratio * h
            jittered = BoundingBox(x=cx - w / 2.0, y=cy - h / 2.0, w=w, h=h)

            label = actor.category.label
            if uniforms[0] < noise.label_flip_prob:
                others = [c for c in KNOWN_CATEGORIES if c != label]
                label = others[int(rng.integers(0, len(others)))]

            emitted = not uniforms[1] < noise.drop_prob
            if emitted:
                detections.append(Detection(category=Category(label), bbox=jittered, confidence=1.0))
            truth.append(
                TruthRecord(
                    frame_id=i,
                    actor_id=actor.actor_id,
                    true_depth_cm=z_cm,
                    true_lateral_cm=x_cm,
                    true_direction=true_direction_of(actor.trajectory),
                    emitted=emitted,
                    true_category=actor.category,
                )
            )
        frames.append(DetectionFrame(frame_id=i, t_ms=t_ms, detections=tuple(detections)))
    return frames, truth


# Camera shared by the bundled scenarios: 640x480, f = 1000 px, chest
# height, 10 fps.
SUITE_CAMERA = CameraIntrinsics(focal_px=1000.0, image_w=640.0, image_h=480.0)
SUITE_CAMERA_HEIGHT_CM = 140.0
SUITE_FRAME_RATE_HZ = 10.0

# Real heights used by the bundled scenarios; chosen to agree with the
# shipped default height table so noise-free estimates are exact.
SUITE_HEIGHTS_CM: Dict[str, float] = {
    "car": 140.0,
    "bus": 320.0,
    "truck": 350.0,
    "motorcycle": 110.0,
    "bicycle": 100.0,
    "person": 165.0,
}


def _actor(
    actor_id: int,
    label: str,
    aspect: float,
    trajectory: Trajectory,
    enter_s: Optional[float] = None,
    exit_s: Optional[float] = None,
) -> ActorSpec:
    return ActorSpec(
        actor_id=actor_id,
        category=Category(label),
        real_height_cm=SUITE_HEIGHTS_CM[label],
        aspect_ratio=aspect,
        trajectory=trajectory,
        enter_s=enter_s,
        exit_s=exit_s,
    )


def _suite_spec(name: str, duration_s: float, actors: Tuple[ActorSpec, ...], seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        duration_s=duration_s,
        frame_rate_hz=SUITE_FRAME_RATE_HZ,
        camera=SUITE_CAMERA,
        camera_height_cm=SUITE_CAMERA_HEIGHT_CM,
        actors=actors,
        noise=NoiseSpec(),
        seed=seed,
    )


def standard_suite() -> List[ScenarioSpec]:
    """Six bundled scenarios, noise-free with fixed seeds.

    single-crosser        one car crossing left to right inside the far
                          alarm band, so staged events fire.
    approach-head-on      one person walking straight at the camera from
                          800 cm down to 130 cm, sweeping all three bands.
    two-crossers-opposite car and person crossing in opposite directions
                          at different depths; their image paths cross.
    crowded-midrange      six actors, all between 300 and 600 cm.
    stationary-clutter    four parked/standing actors, nothing moves.
    enter-exit-churn      staggered enter/exit spans, ids appear and retire.
    """
    single_crosser = _suite_spec(
        "single-crosser",
        4.0,
        (_actor(0, "car", 2.0, Trajectory("linear", x0_cm=-300.0, z0_cm=580.0, vx_cm_s=150.0)),),
        seed=101,
    )
    approach_head_on = _suite_spec(
        "approach-head-on",
        6.8,
        (_actor(0, "person", 0.4, Trajectory("linear", x0_cm=0.0, z0_cm=800.0, vz_cm_s=-100.0)),),
        seed=102,
    )
    two_crossers_opposite = _suite_spec(
        "two-crossers-opposite",
        4.0,
        (
            _actor(0, "car", 2.0, Trajectory("linear", x0_cm=-350.0, z0_cm=900.0, vx_cm_s=175.0)),
            _actor(1, "person", 0.4, Trajectory("linear", x0_cm=250.0, z0_cm=400.0, vx_cm_s=-125.0)),
        ),
        seed=103,
    )
    crowded_midrange = _suite_spec(
        "crowded-midrange",
        4.0,
        (
            _actor(0, "bus", 2.5, Trajectory("stationary", x0_cm=-150.0, z0_cm=520.0)),
            _actor(1, "truck", 2.2, Trajectory("stationary", x0_cm=180.0, z0_cm=560.0)),
            _actor(2, "person", 0.4, Trajectory("stationary", x0_cm=40.0, z0_cm=340.0)),
            _actor(3, "car", 2.0, Trajectory("linear", x0_cm=-280.0, z0_cm=480.0, vx_cm_s=140.0)),
            _actor(4, "motorcycle", 0.7, Trajectory("linear", x0_cm=-320.0, z0_cm=380.0, vx_cm_s=160.0)),
            _actor(5, "bicycle", 0.6, Trajectory("linear", x0_cm=-260.0, z0_cm=590.0, vx_cm_s=130.0)),
        ),
        seed=104,
    )
    stationary_clutter = _suite_spec(
        "stationary-clutter",
        3.0,
        (
            _actor(0, "car", 2.0, Trajectory("stationary", x0_cm=-200.0, z0_cm=700.0)),
            _actor(1, "person", 0.4, Trajectory("stationary", x0_cm=100.0, z0_cm=450.0)),
            _actor(2, "bicycle", 0.6, Trajectory("stationary", x0_cm=250.0, z0_cm=800.0)),
            _actor(3, "bus", 2.5, Trajectory("stationary", x0_cm=-50.0, z0_cm=1100.0)),
        ),
        seed=105,
    )
    enter_exit_churn = _suite_spec(
        "enter-exit-churn",
        6.0,
        (
            _actor(0, "car", 2.0, Trajectory("linear", x0_cm=-250.0, z0_cm=700.0, vx_cm_s=120.0), exit_s=3.0),
            _actor(1, "bus", 2.5, Trajectory("stationary", x0_cm=150.0, z0_cm=900.0), enter_s=1.0, exit_s=4.5),
            _actor(2, "person", 0.4, Trajectory("linear", x0_cm=200.0, z0_cm=430.0, vx_cm_s=-70.0), enter_s=2.0),
            _actor(3, "bicycle", 0.6, Trajectory("linear", x0_cm=-180.0, z0_cm=600.0, vx_cm_s=90.0), enter_s=3.0),
        ),
        seed=106,
    )
    return [
        single_crosser,
        approach_head_on,
        two_crossers_opposite,
        crowded_midrange,
        stationary_clutter,
        enter_exit_churn,
    ]


def scenario_by_name(name: str) -> ScenarioSpec:
    for spec in standard_suite():
        if spec.name == name:
            return spec
    known = ", ".join(s.name for s in standard_suite())
    raise ScenarioError(f"unknown scenario {name!r}; bundled scenarios: {known}")


def slow_crosser(dead_zone_px: float = 8.0) -> ScenarioSpec:
    """A crosser tuned so its per-frame displacement hides inside the dead zone.

    Per frame the projected center moves 0.75 * dead_zone_px, so a
    one-frame lookback reads 'forward' while a two-frame lookback sees
    1.5 * dead_zone_px and correctly reads 'right'.
    """
    if not dead_zone_px > 0:
        raise ScenarioError(f"dead_zone_px must be positive, got {dead_zone_px!r}")
    depth = 1000.0
    fps = SUITE_FRAME_RATE_HZ
    # dx_px = f * vx * dt / z  =>  vx = dx_px * z / (f * dt)
    vx = 0.75 * dead_zone_px * depth / (SUITE_CAMERA.focal_px / fps)
    duration = 3.0
    x0 = -vx * duration / 2.0
    return _suite_spec(
        "slow-crosser",
        duration,
        (_actor(0, "car", 2.0, Trajectory("linear", x0_cm=x0, z0_cm=depth, vx_cm_s=vx)),),
        seed=107,
    )


def with_noise(spec: ScenarioSpec, noise: NoiseSpec) -> ScenarioSpec:
    return replace(spec, noise=noise)


def with_seed(spec: ScenarioSpec, seed: int) -> ScenarioSpec:
    return replace(spec, seed=seed)


# --- declarative scenario files ------------------------------------------

def _check_keys(data: dict, required: Tuple[str, ...], optional: Tuple[str, ...], what: str) -> None:
    problems = key_mismatch(data, required, optional)
    if problems:
        raise ScenarioError(f"{what}: {problems}")


def scenario_to_dict(spec: ScenarioSpec) -> dict:
    return {
        "name": spec.name,
        "duration_s": spec.duration_s,
        "frame_rate_hz": spec.frame_rate_hz,
        "camera": {
            "focal_px": spec.camera.focal_px,
            "image_w": spec.camera.image_w,
            "image_h": spec.camera.image_h,
        },
        "camera_height_cm": spec.camera_height_cm,
        "actors": [
            {
                "actor_id": a.actor_id,
                "category": a.category.label,
                "real_height_cm": a.real_height_cm,
                "aspect_ratio": a.aspect_ratio,
                "trajectory": {
                    "kind": a.trajectory.kind,
                    "x0_cm": a.trajectory.x0_cm,
                    "z0_cm": a.trajectory.z0_cm,
                    "vx_cm_s": a.trajectory.vx_cm_s,
                    "vz_cm_s": a.trajectory.vz_cm_s,
                },
                **({} if a.enter_s is None else {"enter_s": a.enter_s}),
                **({} if a.exit_s is None else {"exit_s": a.exit_s}),
            }
            for a in spec.actors
        ],
        "noise": {
            "center_jitter_px": spec.noise.center_jitter_px,
            "height_jitter_frac": spec.noise.height_jitter_frac,
            "drop_prob": spec.noise.drop_prob,
            "label_flip_prob": spec.noise.label_flip_prob,
        },
        "seed": spec.seed,
    }


def scenario_from_dict(data: dict) -> ScenarioSpec:
    """Build a ScenarioSpec from parsed JSON, rejecting unknown keys."""
    if not isinstance(data, dict):
        raise ScenarioError(f"scenario must be a JSON object, got {type(data).__name__}")
    _check_keys(
        data,
        required=("duration_s", "frame_rate_hz", "camera", "camera_height_cm", "actors"),
        optional=("name", "noise", "seed"),
        what="scenario",
    )
    cam = data["camera"]
    if not isinstance(cam, dict):
        raise ScenarioError("camera must be an object")
    _check_keys(cam, required=("focal_px", "image_w", "image_h"), optional=(), what="camera")
    if not isinstance(data["actors"], list) or not data["actors"]:
        raise ScenarioError("actors must be a non-empty array")

    actors = []
    for k, raw in enumerate(data["actors"]):
        what = f"actor {raw.get('actor_id', k) if isinstance(raw, dict) else k}"
        if not isinstance(raw, dict):
            raise ScenarioError(f"{what}: must be an object")
        _check_keys(
            raw,
            required=("actor_id", "category", "real_height_cm", "aspect_ratio", "trajectory"),
            optional=("enter_s", "exit_s"),
            what=what,
        )
        traj_raw = raw["trajectory"]
        if not isinstance(traj_raw, dict):
            raise ScenarioError(f"{what}: trajectory must be an object")
        _check_keys(
            traj_raw,
            required=("kind", "x0_cm", "z0_cm"),
            optional=("vx_cm_s", "vz_cm_s"),
            what=f"{what} trajectory",
        )
        trajectory = Trajectory(
            kind=traj_raw["kind"],
            x0_cm=traj_raw["x0_cm"],
            z0_cm=traj_raw["z0_cm"],
            vx_cm_s=traj_raw.get("vx_cm_s", 0.0),
            vz_cm_s=traj_raw.get("vz_cm_s", 0.0),
        )
        actors.append(
            ActorSpec(
                actor_id=raw["actor_id"],
                category=Category(raw["category"]),
                real_height_cm=raw["real_height_cm"],
                aspect_ratio=raw["aspect_ratio"],
                trajectory=trajectory,
                enter_s=raw.get("enter_s"),
                exit_s=raw.get("exit_s"),
            )
        )

    noise_raw = data.get("noise", {})
    if not isinstance(noise_raw, dict):
        raise ScenarioError("noise must be an object")
    _check_keys(
        noise_raw,
        required=(),
        optional=("center_jitter_px", "height_jitter_frac", "drop_prob", "label_flip_prob"),
        what="noise",
    )
    noise = NoiseSpec(
        center_jitter_px=noise_raw.get("center_jitter_px", 0.0),
        height_jitter_frac=noise_raw.get("height_jitter_frac", 0.0),
        drop_prob=noise_raw.get("drop_prob", 0.0),
        label_flip_prob=noise_raw.get("label_flip_prob", 0.0),
    )
    return ScenarioSpec(
        name=data.get("name", "scenario"),
        duration_s=data["duration_s"],
        frame_rate_hz=data["frame_rate_hz"],
        camera=CameraIntrinsics(focal_px=cam["focal_px"], image_w=cam["image_w"], image_h=cam["image_h"]),
        camera_height_cm=data["camera_height_cm"],
        actors=tuple(actors),
        noise=noise,
        seed=data.get("seed", 0),
    )
