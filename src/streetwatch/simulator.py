"""Synthetic detection streams with exact ground truth.

Actors move on the ground plane in camera coordinates (X lateral in cm,
positive to the camera's right; Z depth in cm) and are projected through
the pinhole model into detection boxes. Noise is applied per detection in
a fixed order: center jitter, height jitter, label flip, drop.

Every (seed, actor, frame) cell draws its noise from one keyed hash, a
counter-based generator in the sense of Salmon et al. ("Parallel Random
Numbers: As Easy as 1, 2, 3", SC 2011): the 56-byte BLAKE2b digest of
"<seed>/<actor_id>/<frame>" (the "/" separators make the key injective)
is cut into seven little-endian 64-bit words, and each word's top 53 bits
give a uniform in [0, 1), as random() builds its floats. The words have fixed roles: u0-u3 feed three Box-Muller
normals (center x, center y, height), u4 is the flip, u5 the drop and u6
the replacement label, read only on a flip. Each actor's key prefix
"<seed>/<actor_id>/" is hashed once and a copy of that state is extended
by each frame's digits: BLAKE2b hashes a stream, so this is the same
digest as the one-shot hash of the whole key. A cell's draws depend on
nothing but its key, so adding or removing an actor never perturbs anyone
else's noise, toggling one knob changes only what that knob does, and
generation order cannot matter. BLAKE2b is a fixed standard (RFC 7693)
that hashlib always provides, so the draws are the same bytes on every
Python build. A scenario whose noise numbers are all zero draws nothing:
the draws could not change a byte of its output.
"""
from __future__ import annotations

import math
import struct
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from hashlib import blake2b
from typing import List, Optional, Tuple

from .camera import SUITE_CAMERA, SUITE_HEIGHTS_CM, CameraIntrinsics
from .direction import DirectionConfig, DirectionLabel
from .types import Category, Detection, DetectionFrame, KNOWN_CATEGORIES, TruthRecord, key_mismatch
from .types import _box_error, _check, _check_type, _checked_box, _checked_detection, _checked_frame, _checked_truth
from .types import _refusal, _refused_as

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
        _check(self, "non-negative", "center_jitter_px", "height_jitter_frac", error=ScenarioError)
        _check(self, "fraction", "drop_prob", "label_flip_prob", error=ScenarioError)


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
        _check(self, "finite", "x0_cm", "z0_cm", "vx_cm_s", "vz_cm_s", error=ScenarioError)

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
        _check(self, "int>=0", "actor_id", error=ScenarioError)
        where = f"actor {self.actor_id}: "
        _check_type(self, Category, "category", error=ScenarioError, where=where)
        _check_type(self, Trajectory, "trajectory", error=ScenarioError, where=where)
        _check(self, "positive", "real_height_cm", "aspect_ratio", error=ScenarioError, where=where)
        _check(self, "finite", "enter_s", "exit_s", nullable=True, error=ScenarioError, where=where)

    def span(self, duration_s: float) -> Tuple[float, float]:
        enter = 0.0 if self.enter_s is None else self.enter_s
        exit_ = duration_s if self.exit_s is None else self.exit_s
        return enter, exit_


@dataclass(frozen=True)
class ScenarioSpec:
    """A full scenario: camera, actors, noise, seed, and a keyword-only name."""

    name: str = field(default="scenario", kw_only=True)
    duration_s: float
    frame_rate_hz: float
    camera: CameraIntrinsics
    camera_height_cm: float
    actors: Tuple[ActorSpec, ...]
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    seed: int = 0

    def __post_init__(self):
        _check(self, "text", "name", error=ScenarioError)
        _check_type(self, ActorSpec, "actors", each=True, error=ScenarioError)
        _check(self, "positive", "duration_s", "frame_rate_hz", "camera_height_cm", error=ScenarioError)
        _check(self, "int>=0", "seed", error=ScenarioError)
        if self.seed > _MAX_SEED:
            raise ScenarioError(f"seed must be an integer in [0, 2**63), got {self.seed!r}")
        _check_type(self, CameraIntrinsics, "camera", error=ScenarioError)
        _check_type(self, NoiseSpec, "noise", error=ScenarioError)
        focal = self.camera.focal_px
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
            # linear motion makes the depth, f*H/Z and f*X/Z monotone over
            # the span, so checking its ends suffices; each is computed as
            # generate computes it
            for t in (enter, exit_):
                x_cm, z_cm = actor.trajectory.position(t)
                text = (
                    _refusal("positive", f"depth at t={t}", z_cm)
                    or _refusal("positive", f"image height f*H/Z at t={t}", focal * actor.real_height_cm / z_cm)
                    or _refusal("finite", f"image offset f*X/Z at t={t}", focal * x_cm / z_cm)
                )
                if text:
                    raise ScenarioError(f"actor {actor.actor_id}: {text}")

    def frame_count(self) -> int:
        return max(1, int(round(self.duration_s * self.frame_rate_hz)))


def true_direction_of(trajectory: Trajectory) -> DirectionLabel:
    """Truth labels come from the lateral velocity sign, not from pixels."""
    if trajectory.vx_cm_s > 0:
        return DirectionLabel.RIGHT
    if trajectory.vx_cm_s < 0:
        return DirectionLabel.LEFT
    return DirectionLabel.FORWARD


# A cell's digest as seven little-endian 64-bit words; each word's top 53
# bits times 2**-53 is a uniform in [0, 1)
_CELL_WORDS = struct.Struct("<7Q")
_UNIT = 2.0**-53


def generate(spec: ScenarioSpec) -> Tuple[List[DetectionFrame], List[TruthRecord]]:
    """Render a scenario into a detection stream and its truth stream.

    Every in-span actor yields exactly one truth record per frame, with
    emitted=False when noise dropped the detection. Within a frame both
    detections and truth records follow the actor order of the spec, so
    the k-th detection corresponds to the k-th emitted truth record.

    Each box is projected as README's Simulator section states, with no
    check of its own on the numbers the spec constructors have refused
    already: CameraIntrinsics a focal length, ActorSpec a real height or
    aspect ratio, and ScenarioSpec a camera height that is not positive.
    ScenarioSpec also checks the depth z0 + vz * t at both ends of each
    span, and that depth is monotone in t, so every frame's depth lies
    between two positive ones. What the noise makes of a box is checked.
    """
    frames: List[DetectionFrame] = []
    truth: List[TruthRecord] = []
    noise = spec.noise
    # With every noise number zero the draws cannot change a value: a center
    # plus 0 * n is the center (it is never -0.0), the height factor is
    # exactly 1.0 and no uniform is below 0.0. So nothing is drawn.
    drawing = noise != NoiseSpec()
    jitter, height_jitter = noise.center_jitter_px, noise.height_jitter_frac
    # u < p holds exactly when the word itself is below ceil(p * 2**53) << 11
    # (u is the word's top 53 bits times 2**-53), so the flip and the drop
    # compare the words
    flip_cut, drop_cut = (math.ceil(p * 2.0**53) << 11 for p in (noise.label_flip_prob, noise.drop_prob))
    seed, focal = spec.seed, spec.camera.focal_px
    half_w, half_h = spec.camera.image_w / 2.0, spec.camera.image_h / 2.0
    focal_camera_height = focal * spec.camera_height_cm
    unpack, unit, two_pi = _CELL_WORDS.unpack, _UNIT, 2.0 * math.pi
    sqrt, log, cos, sin = math.sqrt, math.log, math.cos, math.sin
    cast = [
        (
            actor.actor_id,
            # the actor's key prefix, hashed once; each cell extends a copy
            blake2b(f"{seed}/{actor.actor_id}/".encode(), digest_size=56) if drawing else None,
            *actor.span(spec.duration_s),
            actor.trajectory.x0_cm,
            actor.trajectory.z0_cm,
            actor.trajectory.vx_cm_s,
            actor.trajectory.vz_cm_s,
            focal * actor.real_height_cm,
            actor.aspect_ratio,
            actor.category,
            true_direction_of(actor.trajectory),
            # the labels a flip can pick, in KNOWN_CATEGORIES order
            [Category(c) for c in KNOWN_CATEGORIES if c != actor.category.label],
        )
        for actor in spec.actors
    ]
    for i in range(spec.frame_count()):
        t_s = i / spec.frame_rate_hz
        t_ms = int(round(i * 1000.0 / spec.frame_rate_hz))
        digits = b"%d" % i
        detections: List[Detection] = []
        for actor_id, prefix, enter, exit_, x0, z0, vx, vz, focal_height, aspect, true_category, direction, others in cast:
            if not enter <= t_s <= exit_:
                continue
            # Trajectory.position
            x_cm = x0 + vx * t_s
            z_cm = z0 + vz * t_s
            h = focal_height / z_cm
            w = aspect * h
            x = half_w + focal * x_cm / z_cm - w / 2.0
            y = half_h + focal_camera_height / z_cm - h
            # BoundingBox.center(); the box is checked once, after the noise
            cx, cy = x + w / 2.0, y + h / 2.0
            category = true_category
            emitted = True
            if drawing:
                cell = prefix.copy()
                cell.update(digits)
                q0, q1, q2, q3, q4, q5, q6 = unpack(cell.digest())
                # Box-Muller: u0, u1 give the center's two normals and u2, u3
                # the height's; 1 - u lies in (0, 1], so each log is finite
                r = sqrt(-2.0 * log(1.0 - (q0 >> 11) * unit))
                a = two_pi * ((q1 >> 11) * unit)
                cx += jitter * (r * cos(a))
                cy += jitter * (r * sin(a))
                n2 = sqrt(-2.0 * log(1.0 - (q2 >> 11) * unit)) * cos(two_pi * ((q3 >> 11) * unit))
                # clamp so extreme jitter cannot produce a non-positive box
                h *= max(1.0 + height_jitter * n2, 0.01)
                if q4 < flip_cut:
                    category = others[int((q6 >> 11) * unit * len(others))]
                emitted = q5 >= drop_cut
            w = aspect * h
            x = cx - w / 2.0
            y = cy - h / 2.0
            text = _box_error(x, y, w, h)
            if text:
                raise ScenarioError(f"actor {actor_id}, frame {i}: {text}")
            if emitted:
                detections.append(_checked_detection(category, _checked_box(x, y, w, h), 1.0))
            truth.append(_checked_truth(i, actor_id, z_cm, x_cm, direction, emitted, true_category))
        # the stamps are non-negative ints and every box is checked above,
        # so the frame is marked for validate_frame to trust
        frames.append(_checked_frame(i, t_ms, tuple(detections)))
    return frames, truth


# The bundled scenarios' camera (SUITE_CAMERA, in camera) sits at chest
# height and runs at 10 fps.
SUITE_CAMERA_HEIGHT_CM = 140.0
SUITE_FRAME_RATE_HZ = 10.0


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


def slow_crosser(dead_zone_px: float = DirectionConfig.dead_zone_px) -> ScenarioSpec:
    """A crosser tuned so its per-frame displacement hides inside the dead zone.

    Per frame the projected center moves 0.75 * dead_zone_px, so a
    one-frame lookback reads 'forward' while a two-frame lookback sees
    1.5 * dead_zone_px and correctly reads 'right'.
    """
    text = _refusal("positive", "dead_zone_px", dead_zone_px)
    if text:
        raise ScenarioError(text)
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


# --- declarative scenario files ------------------------------------------

def scenario_to_dict(spec: ScenarioSpec) -> dict:
    """The spec as plain JSON values, keyed by field name; a Category is its
    label, and an enter_s or exit_s of None is left out."""
    return _plain(spec)


def _plain(value):
    if isinstance(value, Category):
        return value.label
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if not is_dataclass(value):
        return value
    pairs = ((f, getattr(value, f.name)) for f in fields(value))
    return {f.name: _plain(v) for f, v in pairs if not (v is None and f.default is None)}


def _fields_of(cls, data, what: str) -> dict:
    """data, once it is a JSON object whose keys are cls's field names: every
    field without a default, and any of the others."""
    if not isinstance(data, dict):
        raise ScenarioError(f"{what} must be a JSON object, got {type(data).__name__}")
    required = [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING]
    problems = key_mismatch(data, required, [f.name for f in fields(cls)])
    if problems:
        raise ScenarioError(f"{what}: {problems}")
    return data


def _object(cls, data, what: str):
    return _refused_as(ScenarioError, f"{what}:", cls, **_fields_of(cls, data, what))


def scenario_from_dict(data: dict) -> ScenarioSpec:
    """Build a ScenarioSpec from parsed JSON, as scenario_to_dict writes it.

    A key left out takes its field's default. Each object is built before
    the one that holds it, and a refused value is reported with where it
    sits: "actor 3 trajectory: ...".
    """
    _fields_of(ScenarioSpec, data, "scenario")
    camera = _object(CameraIntrinsics, data["camera"], "camera")
    if not isinstance(data["actors"], list) or not data["actors"]:
        raise ScenarioError("actors must be a non-empty array")
    actors = []
    for k, raw in enumerate(data["actors"]):
        what = f"actor {raw.get('actor_id', k) if isinstance(raw, dict) else k}"
        _fields_of(ActorSpec, raw, what)
        trajectory = _object(Trajectory, raw["trajectory"], f"{what} trajectory")
        category = _refused_as(ScenarioError, f"{what}:", Category, raw["category"])
        # ActorSpec and ScenarioSpec name the actor in what they refuse
        actors.append(ActorSpec(**dict(raw, category=category, trajectory=trajectory)))
    noise = _object(NoiseSpec, data.get("noise", {}), "noise")
    return ScenarioSpec(**dict(data, camera=camera, actors=tuple(actors), noise=noise))
