"""Benchmark workloads: seeded scenario builders and the property each must keep.

Every workload is a simulator scenario, so each one comes with a truth
stream and the simulator itself is part of what is measured. The seed
moves the layout (depths, lateral positions, speeds, spans, categories)
and the noise draws; the shape that defines a workload stays fixed, and
`properties` plus `property_violations` make sure it does.
"""
from __future__ import annotations

import random
from typing import Dict, List, Sequence

from streetwatch.alarm import AlarmPolicy, stage_for_distance
from streetwatch.simulator import (
    SUITE_CAMERA,
    SUITE_CAMERA_HEIGHT_CM,
    SUITE_HEIGHTS_CM,
    ActorSpec,
    NoiseSpec,
    ScenarioSpec,
    Trajectory,
)
from streetwatch.types import Category, KNOWN_CATEGORIES

FPS = 10.0
FOCAL_PX = SUITE_CAMERA.focal_px

# Why each workload exists; BENCHMARK.json carries the same lines.
WHY = {
    "dense-30": "30 far objects per frame: codec, validation and the gap match do the work; alarms and bridge idle (bypass case)",
    "curbside-alarms": "actors parked in the three bands plus slow approachers: stage lookup, cooldown, cap and messages all run",
    "noisy-churn": "40 actors entering, leaving and crossing under drops, jitter and label flips: bridge match, fresh ids and scorer work",
}
NAMES = tuple(WHY)

# Frames per workload at full size; --frames overrides for smoke runs.
DEFAULT_FRAMES = {"dense-30": 1000, "curbside-alarms": 1200, "noisy-churn": 1200}


def _actor(actor_id: int, label: str, aspect: float, trajectory: Trajectory, enter_s=None, exit_s=None) -> ActorSpec:
    return ActorSpec(
        actor_id=actor_id,
        category=Category(label),
        real_height_cm=SUITE_HEIGHTS_CM[label],
        aspect_ratio=aspect,
        trajectory=trajectory,
        enter_s=enter_s,
        exit_s=exit_s,
    )


def _spec(name: str, frames: int, actors: Sequence[ActorSpec], noise: NoiseSpec, seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        duration_s=frames / FPS,
        frame_rate_hz=FPS,
        camera=SUITE_CAMERA,
        camera_height_cm=SUITE_CAMERA_HEIGHT_CM,
        actors=tuple(actors),
        noise=noise,
        seed=seed,
    )


def _lateral_cm(center_x_px: float, depth_cm: float) -> float:
    return (center_x_px - SUITE_CAMERA.image_w / 2.0) * depth_cm / FOCAL_PX


def dense_30(seed: int, frames: int) -> ScenarioSpec:
    """30 persistent actors, 5 per category, all drifting sideways at 6 px/frame.

    Box heights of 30-78 px put every actor 17-117 m away, far outside the
    alarm bands. Same-category boxes sit 126 px apart and move in lockstep,
    so the gap match pairs everything and the bridge never runs after
    warm-up. The drift is 6 px/frame rather than the acceptance test's
    2 px so that 12 px over the two-frame gap clears the 8 px dead zone and
    strict direction scoring has something to agree with.
    """
    rng = random.Random(seed)
    sign = rng.choice((-1.0, 1.0))
    actors = []
    for k in range(30):
        label = KNOWN_CATEGORIES[k % 6]
        h_px = 30.0 + (k % 7) * 8.0 + rng.uniform(-2.0, 2.0)
        depth = FOCAL_PX * SUITE_HEIGHTS_CM[label] / h_px
        vx = sign * 6.0 * depth * FPS / FOCAL_PX
        x0 = _lateral_cm(40.0 + 21.0 * k, depth)
        aspect = rng.uniform(0.4, 2.5)
        actors.append(_actor(k, label, aspect, Trajectory("linear", x0_cm=x0, z0_cm=depth, vx_cm_s=vx)))
    return _spec("dense-30", frames, actors, NoiseSpec(), seed)


BAND_DEPTHS_CM = ((575.0, 595.0), (275.0, 295.0), (125.0, 145.0))


def curbside_alarms(seed: int, frames: int) -> ScenarioSpec:
    """12 actors parked inside the bands (4 per band) plus staggered approachers.

    Approachers walk in from 800 cm to 110 cm at 60-120 cm/s with a small
    sideways speed, one about every 3.2 s, so each sweeps all three bands.
    Noise-free: every detection is matched through the gap.
    """
    rng = random.Random(seed)
    duration = frames / FPS
    actors: List[ActorSpec] = []
    slots = [40.0 + 560.0 * (k + 0.5) / 12 for k in range(12)]
    rng.shuffle(slots)
    for k in range(12):
        lo, hi = BAND_DEPTHS_CM[k % 3]
        label = rng.choice(KNOWN_CATEGORIES)
        depth = rng.uniform(lo, hi)
        x = _lateral_cm(slots[k] + rng.uniform(-8.0, 8.0), depth)
        actors.append(_actor(k, label, rng.uniform(0.4, 2.2), Trajectory("stationary", x0_cm=x, z0_cm=depth)))
    # evenly spaced starts and a shuffled, evenly spread set of speeds keep
    # the approacher load the same from seed to seed
    starts = [1.0 + 3.2 * i for i in range(int((duration - 2.0) / 3.2) + 1)]
    speeds = [60.0 + 60.0 * (i + 0.5) / len(starts) for i in range(len(starts))]
    rng.shuffle(speeds)
    start_cm, end_cm = 800.0, 110.0
    for t, speed in zip(starts, speeds):
        t += rng.uniform(-0.5, 0.5)
        vx = rng.uniform(-20.0, 20.0)
        x_enter = rng.uniform(-150.0, 150.0)
        exit_t = min(duration, t + (start_cm - end_cm) / speed)
        traj = Trajectory(
            "linear",
            x0_cm=x_enter - vx * t,
            z0_cm=start_cm + speed * t,
            vx_cm_s=vx,
            vz_cm_s=-speed,
        )
        actors.append(_actor(len(actors), rng.choice(KNOWN_CATEGORIES), rng.uniform(0.4, 2.2), traj, t, exit_t))
    return _spec("curbside-alarms", frames, actors, NoiseSpec(), seed)


CHURN_NOISE = NoiseSpec(center_jitter_px=3.0, height_jitter_frac=0.05, drop_prob=0.1, label_flip_prob=0.02)


def noisy_churn(seed: int, frames: int) -> ScenarioSpec:
    """About 40 actors with staggered spans, crossing both ways, under detector noise.

    Each actor lives 20-30 s somewhere in the run at 400-1500 cm, crossing
    left or right at 40-200 cm/s. Drops leave holes the gap match cannot
    bridge, which is what drives the bridge match and fresh ids.
    """
    rng = random.Random(seed)
    duration = frames / FPS
    # evenly spread lives, depths and speeds, shuffled, keep the load and
    # the share of slow (dead-zone) crossers about the same from seed to seed
    lives, depths, speeds = (
        [lo + (hi - lo) * (k + 0.5) / 40 for k in range(40)] for lo, hi in ((20.0, 30.0), (400.0, 1500.0), (40.0, 200.0))
    )
    for values in (lives, depths, speeds):
        rng.shuffle(values)
    actors: List[ActorSpec] = []
    for k in range(40):
        life = min(duration, lives[k])
        # stratified entry times keep the number of live actors steady
        enter = (k + rng.random()) / 40 * (duration - life)
        depth = depths[k]
        vx = rng.choice((-1.0, 1.0)) * speeds[k]
        # start on the side the actor walks away from, so it crosses the view
        x_enter = -vx / abs(vx) * rng.uniform(0.0, 0.3) * depth
        traj = Trajectory("linear", x0_cm=x_enter - vx * enter, z0_cm=depth, vx_cm_s=vx)
        actors.append(_actor(k, rng.choice(KNOWN_CATEGORIES), rng.uniform(0.4, 2.2), traj, enter, enter + life))
    return _spec("noisy-churn", frames, actors, CHURN_NOISE, seed)


BUILDERS = {"dense-30": dense_30, "curbside-alarms": curbside_alarms, "noisy-churn": noisy_churn}


def build(name: str, seed: int, frames: int = 0) -> ScenarioSpec:
    # the simulator takes seeds below 2**63
    return BUILDERS[name](seed % 2**63, frames or DEFAULT_FRAMES[name])


def properties(spec: ScenarioSpec, frames, tracked_by_frame, events_by_frame, policy: AlarmPolicy, gap: int) -> Dict[str, float]:
    """The figures that define a workload, read from the pipeline's outputs.

    Bridge calls are inferred from the tracked stream: a gap-matched object
    always carries a direction, so an object without one is a leftover,
    and a frame with leftovers (or any frame before the gap frame exists)
    makes the pipeline call the bridge match.
    """
    n_frames = len(frames)
    dets = sum(len(f.detections) for f in frames)
    in_band = 0
    fresh = 0
    bridged = 0
    bridge_calls = 0
    late_bridge_calls = 0
    for pos, tracked in enumerate(tracked_by_frame):
        leftovers = [o for o in tracked if o.direction is None]
        for obj in tracked:
            if obj.distance_cm is not None and stage_for_distance(obj.distance_cm, policy) is not None:
                in_band += 1
            if obj.matched_from is None:
                fresh += 1
        if pos >= gap:
            bridged += sum(1 for o in leftovers if o.matched_from is not None)
        if pos >= 1 and gap > 1 and leftovers:
            bridge_calls += 1
            if pos > 2:
                late_bridge_calls += 1
    events = sum(len(e) for e in events_by_frame)
    cap_frames = sum(1 for e in events_by_frame if len(e) == policy.max_events_per_frame)
    warm_fresh = sum(1 for t in tracked_by_frame[gap:] for o in t if o.matched_from is None)
    return {
        "frames": n_frames,
        "detections_per_frame": dets / n_frames,
        "in_band_share": in_band / dets if dets else 0.0,
        "events": events,
        "cap_frames": cap_frames,
        "bridge_calls": bridge_calls,
        "bridge_calls_after_frame_2": late_bridge_calls,
        "bridge_matches": bridged,
        "fresh_id_share": fresh / dets if dets else 0.0,
        "fresh_ids_after_warmup": warm_fresh,
        "drop_prob": spec.noise.drop_prob,
        "center_jitter_px": spec.noise.center_jitter_px,
        "height_jitter_frac": spec.noise.height_jitter_frac,
        "label_flip_prob": spec.noise.label_flip_prob,
    }


def property_violations(name: str, props: Dict[str, float]) -> List[str]:
    """Why the workload no longer has the property it exists for (empty when it does)."""
    problems = []
    if name == "dense-30":
        if props["events"]:
            problems.append(f"dense-30 emitted {props['events']} events")
        if props["bridge_calls_after_frame_2"]:
            problems.append(f"dense-30 made {props['bridge_calls_after_frame_2']} bridge calls after frame 2")
    elif name == "curbside-alarms":
        if not props["events"]:
            problems.append("curbside-alarms emitted no events")
        if not props["cap_frames"]:
            problems.append("curbside-alarms never hit the per-frame cap")
    elif name == "noisy-churn":
        if not props["bridge_matches"]:
            problems.append("noisy-churn made no bridge matches")
        if not props["fresh_ids_after_warmup"]:
            problems.append("noisy-churn gave out no fresh ids after warm-up")
    return problems
