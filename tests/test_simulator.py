"""Synthetic scenario generation: determinism, noise knobs, bundled suite."""
import dataclasses
import hashlib
import json
import math
import re
import struct

import pytest
from hypothesis import given, strategies as st

from streetwatch import simulator
from streetwatch.camera import CameraIntrinsics, estimate_distance
from streetwatch.direction import DirectionLabel
from streetwatch.jsonl import encode_detection_frame, encode_truth_record
from streetwatch.simulator import (
    SUITE_CAMERA,
    SUITE_CAMERA_HEIGHT_CM,
    SUITE_HEIGHTS_CM,
    TRAJECTORY_KINDS,
    ActorSpec,
    NoiseSpec,
    ScenarioError,
    ScenarioSpec,
    Trajectory,
    generate,
    scenario_by_name,
    scenario_from_dict,
    scenario_to_dict,
    slow_crosser,
    standard_suite,
    true_direction_of,
)
from streetwatch.types import KNOWN_CATEGORIES, Category
from streetwatch.camera import HeightTable


def small_scenario(noise=NoiseSpec(), seed=42, actors=None, duration_s=2.0):
    if actors is None:
        actors = (
            ActorSpec(
                actor_id=0,
                category=Category("car"),
                real_height_cm=140.0,
                aspect_ratio=2.0,
                trajectory=Trajectory("linear", x0_cm=-200.0, z0_cm=580.0, vx_cm_s=150.0),
            ),
        )
    return ScenarioSpec(
        name="small",
        duration_s=duration_s,
        frame_rate_hz=10.0,
        camera=SUITE_CAMERA,
        camera_height_cm=SUITE_CAMERA_HEIGHT_CM,
        actors=actors,
        noise=noise,
        seed=seed,
    )


def encode_run(frames, truth):
    return (
        "\n".join(encode_detection_frame(f) for f in frames),
        "\n".join(encode_truth_record(r) for r in truth),
    )


def test_same_seed_same_bytes():
    spec = small_scenario(noise=NoiseSpec(center_jitter_px=2.0, height_jitter_frac=0.05))
    a = encode_run(*generate(spec))
    b = encode_run(*generate(spec))
    assert a == b


ALL_NOISE = NoiseSpec(center_jitter_px=2.0, height_jitter_frac=0.05, drop_prob=0.2, label_flip_prob=0.2)


def two_actor_scenario(noise):
    a0 = ActorSpec(0, Category("car"), 140.0, 2.0, Trajectory("linear", -200.0, 580.0, vx_cm_s=150.0))
    a1 = ActorSpec(7, Category("person"), 165.0, 0.4, Trajectory("linear", 100.0, 400.0, vz_cm_s=-50.0))
    return small_scenario(noise=noise, actors=(a0, a1))


def test_noisy_generate_leaves_plain_floats():
    frames, truth = generate(two_actor_scenario(ALL_NOISE))
    for frame in frames:
        for det in frame.detections:
            for v in (det.bbox.x, det.bbox.y, det.bbox.w, det.bbox.h, det.confidence):
                assert type(v) is float, (frame.frame_id, v)
    for rec in truth:
        assert type(rec.true_depth_cm) is float and type(rec.true_lateral_cm) is float


def test_noisy_draw_recipe_is_pinned():
    # per cell: seven uniforms from one keyed hash; u0-u3 give three
    # Box-Muller normals, u4 the flip, u5 the drop and, on a flip only, u6
    # the replacement label
    frames, truth = generate(two_actor_scenario(ALL_NOISE))
    assert 0 < sum(len(f.detections) for f in frames) < len(truth)
    assert any(d.category.label not in ("car", "person") for f in frames for d in f.detections)
    detections, truth_lines = encode_run(frames, truth)
    digest = hashlib.sha256((detections + "\n" + truth_lines).encode("ascii")).hexdigest()
    assert digest == "b6e4d6b814d57003a04e5e6cdc311198cf303d60afb22d07a7ae97e5c58eeba6"


def run_digest(spec):
    detections, truth_lines = encode_run(*generate(spec))
    return hashlib.sha256((detections + "\n" + truth_lines).encode("ascii")).hexdigest()


# Bytes of the bundled scenarios, which are noise-free and so take the path
# that draws nothing; the goldens pin only two of them.
SUITE_DIGESTS = {
    "single-crosser": "7e8d9f9a38671ded48433ed1f12985d50fdff05fe030e400a0f76ad04bd98611",
    "approach-head-on": "1bd72d57e5c9b639c266177ff550fb79dbeddff76016ea1b8641361e7efcd86d",
    "two-crossers-opposite": "395ed19be4c9df898519536ad6eabc972dd60d2e9ee468fe412d2fdd6ecef2ed",
    "crowded-midrange": "9947b5a5125ff3b238d5ffc4f7f668aa25251b56138327af6f93826ced0fcb9e",
    "stationary-clutter": "d941c2cfc3d2a90f3ee13d42fcdde2dba09190bf07db69627fb5bbde40d8e346",
    "enter-exit-churn": "54d9a9151dd441bb7caa8bf8e5d35755a7a908435afe04fe0bac05bb46a3f5c3",
}


@pytest.mark.parametrize("name", sorted(SUITE_DIGESTS))
def test_suite_bytes_are_pinned(name):
    assert run_digest(scenario_by_name(name)) == SUITE_DIGESTS[name]


# One non-zero noise number each: every one of them keeps the draw recipe.
SINGLE_KNOB_DIGESTS = {
    "center_jitter_px": (2.0, "f35c298700f64b797e6b2713f736f51d6a5aa7fd9f3646d0500fd3ee2c1566e3"),
    "height_jitter_frac": (0.05, "080ccab57354c761615b5a6bf6e213425b711ae3db43097a29f8083d75d35389"),
    "drop_prob": (0.2, "51363335f09c66229fa207fc82c1f4b4f8e4cc16acebce5cddfe224e2fe62154"),
    "label_flip_prob": (0.2, "4e9e1aa58f30aa735e1fcc2272497929be23b0435db54456435ab0757097c582"),
}


@pytest.mark.parametrize("knob", sorted(SINGLE_KNOB_DIGESTS))
def test_single_knob_bytes_are_pinned(knob):
    value, digest = SINGLE_KNOB_DIGESTS[knob]
    assert run_digest(two_actor_scenario(NoiseSpec(**{knob: value}))) == digest


def test_noise_free_spec_draws_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a noise-free scenario hashed a draw key")

    monkeypatch.setattr(simulator, "blake2b", refuse)
    frames, truth = generate(two_actor_scenario(NoiseSpec()))
    assert len(truth) == sum(len(f.detections) for f in frames) == 40


def independent_uniforms(key):
    # the recipe spelled out: BLAKE2b-448 of the key, seven little-endian
    # 64-bit words, the top 53 bits of each scaled into [0, 1)
    digest = hashlib.blake2b(key.encode("ascii"), digest_size=56).digest()
    words = struct.unpack("<QQQQQQQ", digest)
    return tuple(math.ldexp(w // 2**11, -53) for w in words)


def box_muller(u0, u1, u2, u3):
    """Three standard normals from four uniforms in [0, 1): the center's
    two from u0 and u1, the height's from u2 and u3."""
    r1 = math.sqrt(-2.0 * math.log(1.0 - u0))
    a1 = 2.0 * math.pi * u1
    r2 = math.sqrt(-2.0 * math.log(1.0 - u2))
    a2 = 2.0 * math.pi * u3
    return r1 * math.cos(a1), r1 * math.sin(a1), r2 * math.cos(a2)


def test_any_noise_number_keeps_the_draws():
    # a drop probability alone still drops each cell by its own u5
    seed = 42
    _, truth = generate(two_actor_scenario(NoiseSpec(drop_prob=0.2)))
    assert len(truth) == 40
    for rec in truth:
        u5 = independent_uniforms(f"{seed}/{rec.actor_id}/{rec.frame_id}")[5]
        assert rec.emitted is (not u5 < 0.2), (rec.actor_id, rec.frame_id)


@pytest.mark.parametrize("seed", [42, 2**63 - 1])
def test_each_cell_follows_the_draw_recipe(seed):
    # every knob on and a flip in about half the cells, over 1000 frames so
    # that frame keys run to three digits
    noise = NoiseSpec(center_jitter_px=2.5, height_jitter_frac=0.05, drop_prob=0.3, label_flip_prob=0.5)
    actors = (
        ActorSpec(0, Category("car"), 140.0, 2.0, Trajectory("linear", -300.0, 900.0, vx_cm_s=30.0, vz_cm_s=-20.0)),
        ActorSpec(12345, Category("person"), 165.0, 0.4, Trajectory("stationary", 120.0, 450.0)),
        ActorSpec(7, Category("dog"), 50.0, 1.5, Trajectory("linear", 200.0, 600.0, vx_cm_s=-15.0), enter_s=3.0),
        ActorSpec(3, Category("bus"), 320.0, 2.5, Trajectory("linear", 0.0, 1500.0, vz_cm_s=10.0), exit_s=12.5),
    )
    spec = ScenarioSpec(
        duration_s=20.0,
        frame_rate_hz=50.0,
        camera=SUITE_CAMERA,
        camera_height_cm=SUITE_CAMERA_HEIGHT_CM,
        actors=actors,
        noise=noise,
        seed=seed,
    )
    frames, truth = generate(spec)
    focal, half_w, half_h = SUITE_CAMERA.focal_px, SUITE_CAMERA.image_w / 2.0, SUITE_CAMERA.image_h / 2.0
    records = iter(truth)
    flips = drops = 0
    for i, frame in enumerate(frames):
        t = i / 50.0
        detections = iter(frame.detections)
        for actor in actors:
            enter, exit_ = actor.span(spec.duration_s)
            if not enter <= t <= exit_:
                continue
            rec = next(records)
            assert (rec.frame_id, rec.actor_id) == (i, actor.actor_id)
            u = independent_uniforms(f"{seed}/{actor.actor_id}/{i}")
            if not u[5] < noise.drop_prob:
                assert rec.emitted is True
            else:
                assert rec.emitted is False
                drops += 1
                continue
            det = next(detections)
            label = actor.category.label
            if u[4] < noise.label_flip_prob:
                others = [c for c in KNOWN_CATEGORIES if c != label]
                label = others[int(u[6] * len(others))]
                flips += 1
            assert det.category.label == label
            lateral, depth = actor.trajectory.position(t)
            h = focal * actor.real_height_cm / depth
            w = actor.aspect_ratio * h
            x = half_w + focal * lateral / depth - w / 2.0
            y = half_h + focal * SUITE_CAMERA_HEIGHT_CM / depth - h
            n0, n1, n2 = box_muller(*u[:4])
            cx = x + w / 2.0 + noise.center_jitter_px * n0
            cy = y + h / 2.0 + noise.center_jitter_px * n1
            h *= max(1.0 + noise.height_jitter_frac * n2, 0.01)
            w = actor.aspect_ratio * h
            box = det.bbox
            assert (box.x, box.y, box.w, box.h) == (cx - w / 2.0, cy - h / 2.0, w, h), (i, actor.actor_id)
        assert next(detections, None) is None
    assert next(records, None) is None
    assert 0 < drops < len(truth) and 0 < flips < len(truth) - drops


def test_cell_uniforms_and_normals_have_their_moments():
    n = 100_000
    cells = [independent_uniforms(f"5/{k % 40}/{k // 40}") for k in range(n)]
    for j in range(7):
        mean = math.fsum(c[j] for c in cells) / n
        assert abs(mean - 0.5) <= 0.005, (j, mean)
    normals = [box_muller(*c[:4]) for c in cells]
    for j in range(3):
        values = [v[j] for v in normals]
        mean = math.fsum(values) / n
        sd = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1))
        assert abs(mean) <= 0.01, (j, mean)
        assert abs(sd - 1.0) <= 0.01, (j, sd)


def test_drop_and_flip_rates_are_binomial():
    noise = NoiseSpec(drop_prob=0.3, label_flip_prob=0.2)
    actors = tuple(
        ActorSpec(k, Category("car"), 140.0, 2.0, Trajectory("stationary", -300.0 + 20.0 * k, 900.0))
        for k in range(30)
    )
    frames, truth = generate(small_scenario(noise=noise, actors=actors, duration_s=60.0))
    cells = len(truth)
    assert cells == 30 * 600
    emitted = [d for f in frames for d in f.detections]
    for p, hits, trials in (
        (0.3, cells - len(emitted), cells),
        (0.2, sum(d.category.label != "car" for d in emitted), len(emitted)),
    ):
        assert abs(hits - p * trials) <= 4 * math.sqrt(trials * p * (1 - p)), (p, hits, trials)


def test_actor_draws_do_not_depend_on_its_span():
    noise = NoiseSpec(center_jitter_px=3.0, height_jitter_frac=0.05, label_flip_prob=0.3)
    trajectory = Trajectory("stationary", 50.0, 600.0)
    boxes = []
    for enter_s in (None, 0.5):
        actor = ActorSpec(3, Category("bus"), 320.0, 2.5, trajectory, enter_s=enter_s)
        frames, _ = generate(small_scenario(noise=noise, actors=(actor,)))
        boxes.append({f.frame_id: f.detections for f in frames if f.detections})
    always, late = boxes
    assert sorted(late) == list(range(5, 20))
    assert all(late[i] == always[i] for i in late)


def test_different_seed_different_jitter():
    noise = NoiseSpec(center_jitter_px=2.0)
    a = encode_run(*generate(small_scenario(noise=noise, seed=1)))
    b = encode_run(*generate(small_scenario(noise=noise, seed=2)))
    assert a[0] != b[0]
    # truth trajectories do not depend on the seed
    assert a[1] == b[1]


def test_noise_free_run_reprojects_exactly():
    spec = small_scenario()
    frames, truth = generate(spec)
    table = HeightTable({"car": 140.0})
    assert len(frames) == 20
    for frame, rec in zip(frames, truth):
        assert len(frame.detections) == 1
        det = frame.detections[0]
        est = estimate_distance(spec.camera, table, det)
        assert abs(est - rec.true_depth_cm) / rec.true_depth_cm <= 1e-9
        cx, _ = det.bbox.center()
        expected_cx = 320.0 + 1000.0 * rec.true_lateral_cm / rec.true_depth_cm
        assert abs(cx - expected_cx) <= 1e-9


def one_box(lateral_cm, depth_cm, real_height_cm=140.0, aspect_ratio=2.0):
    """The box of one standing, noise-free actor in a one-frame scenario,
    seen by the suite camera (640x480, f = 1000 px) 140 cm above the ground."""
    actor = ActorSpec(0, Category("car"), real_height_cm, aspect_ratio, Trajectory("stationary", lateral_cm, depth_cm))
    frames, _ = generate(small_scenario(actors=(actor,), duration_s=0.1))
    (frame,) = frames
    box = frame.detections[0].bbox
    return box.x, box.y, box.w, box.h


def test_ground_projection_centering():
    x, y, w, h = one_box(lateral_cm=0.0, depth_cm=1400.0)
    assert x + w / 2.0 == pytest.approx(320.0)
    assert h == pytest.approx(100.0)
    assert w == pytest.approx(200.0)
    # bottom edge: image_h/2 + f * camera_height / Z = 240 + 100
    assert y + h == pytest.approx(340.0)


def test_ground_projection_lateral_offset():
    x, _, w, _ = one_box(lateral_cm=140.0, depth_cm=1400.0)
    assert x + w / 2.0 == pytest.approx(320.0 + 100.0)


def test_ground_projection_mirrors_laterally():
    lx, ly, lw, lh = one_box(-250.0, 900.0, 165.0, 0.4)
    rx, ry, rw, rh = one_box(250.0, 900.0, 165.0, 0.4)
    assert lx + lw / 2.0 - 320.0 == pytest.approx(320.0 - (rx + rw / 2.0))
    assert ly + lh / 2.0 == pytest.approx(ry + rh / 2.0)
    assert lh == pytest.approx(rh)


def test_ground_projection_scales_inversely_with_depth():
    nx, _, nw, nh = one_box(200.0, 700.0)
    fx, _, fw, fh = one_box(200.0, 1400.0)
    assert nh == pytest.approx(2.0 * fh, rel=1e-12)
    assert nx + nw / 2.0 - 320.0 == pytest.approx(2.0 * (fx + fw / 2.0 - 320.0), rel=1e-12)


@given(
    focal=st.floats(1.0, 1e4),
    image_w=st.floats(1.0, 1e4),
    image_h=st.floats(1.0, 1e4),
    camera_height=st.floats(0.01, 1000.0),
    real_height=st.floats(0.01, 1e4),
    aspect=st.floats(0.01, 10.0),
    x0=st.floats(-1e4, 1e4),
    z0=st.floats(1.0, 5000.0),
    vx=st.floats(-500.0, 500.0),
    vz_frac=st.floats(-0.45, 1.0),
    jitter=st.just(0.0) | st.floats(0.01, 10.0),
)
def test_boxes_follow_the_projection_in_its_operation_order(
    focal, image_w, image_h, camera_height, real_height, aspect, x0, z0, vx, vz_frac, jitter
):
    # over the 2 s scenario the depth falls at most to a tenth of z0
    vz = vz_frac * z0
    spec = ScenarioSpec(
        duration_s=2.0,
        frame_rate_hz=10.0,
        camera=CameraIntrinsics(focal, image_w, image_h),
        camera_height_cm=camera_height,
        actors=(ActorSpec(0, Category("car"), real_height, aspect, Trajectory("linear", x0, z0, vx, vz)),),
        noise=NoiseSpec(center_jitter_px=jitter),
    )
    frames, _ = generate(spec)
    assert len(frames) == 20
    for i, frame in enumerate(frames):
        t = i / 10.0
        lateral, depth = x0 + vx * t, z0 + vz * t
        # the ground projection: h = f * H / Z, w = aspect * h, the center
        # at image_w/2 + f * X / Z and the bottom edge at image_h/2 + f * Hc / Z
        h = focal * real_height / depth
        w = aspect * h
        x = image_w / 2.0 + focal * lateral / depth - w / 2.0
        y = image_h / 2.0 + focal * camera_height / depth - h
        # the round trip through the center that the jitter is added to; with
        # no jitter, x comes back from it unchanged (2e6 random draws), y need not
        cx, cy = x + w / 2.0, y + h / 2.0
        if jitter:
            n0, n1, _ = box_muller(*independent_uniforms(f"0/0/{i}")[:4])
            cx += jitter * n0
            cy += jitter * n1
        w = aspect * h
        box = frame.detections[0].bbox
        assert (box.x, box.y, box.w, box.h) == (cx - w / 2.0, cy - h / 2.0, w, h)


def test_a_box_the_noise_overflows_is_refused_with_its_actor_and_frame():
    with pytest.raises(ScenarioError, match=r"^actor 0, frame \d+: box x must be a finite number, got -inf$"):
        generate(small_scenario(noise=NoiseSpec(height_jitter_frac=1e308)))


def test_drop_probability_one_keeps_truth_but_no_detections():
    spec = small_scenario(noise=NoiseSpec(drop_prob=1.0))
    frames, truth = generate(spec)
    assert all(len(f.detections) == 0 for f in frames)
    assert len(truth) == 20
    assert all(not r.emitted for r in truth)


def test_emitted_flags_count_the_detections():
    spec = small_scenario(noise=NoiseSpec(drop_prob=0.5), seed=9)
    frames, truth = generate(spec)
    by_frame = {}
    for r in truth:
        by_frame.setdefault(r.frame_id, []).append(r)
    for frame in frames:
        emitted = sum(1 for r in by_frame[frame.frame_id] if r.emitted)
        assert emitted == len(frame.detections)


def test_label_flip_changes_to_a_different_known_label():
    spec = small_scenario(noise=NoiseSpec(label_flip_prob=1.0))
    frames, _ = generate(spec)
    for frame in frames:
        for det in frame.detections:
            assert det.category.label != "car"
            assert det.category.label in KNOWN_CATEGORIES


def test_actor_noise_is_independent_of_the_cast_list():
    # adding a third actor must not reshuffle the draws of the first two
    a0 = ActorSpec(0, Category("car"), 140.0, 2.0, Trajectory("linear", -200.0, 580.0, vx_cm_s=150.0))
    a1 = ActorSpec(1, Category("person"), 165.0, 0.4, Trajectory("stationary", 100.0, 400.0))
    a2 = ActorSpec(2, Category("bus"), 320.0, 2.5, Trajectory("stationary", -100.0, 900.0))
    noise = NoiseSpec(center_jitter_px=3.0, height_jitter_frac=0.04)
    frames_two, _ = generate(small_scenario(noise=noise, actors=(a0, a1)))
    frames_three, _ = generate(small_scenario(noise=noise, actors=(a0, a1, a2)))
    for f2, f3 in zip(frames_two, frames_three):
        assert f2.detections == f3.detections[:2]


def test_timestamps_follow_the_frame_rate():
    frames, _ = generate(small_scenario())
    assert [f.frame_id for f in frames] == list(range(20))
    assert [f.t_ms for f in frames] == [100 * i for i in range(20)]


def test_enter_exit_span_is_closed():
    actor = ActorSpec(
        0, Category("car"), 140.0, 2.0,
        Trajectory("stationary", 0.0, 500.0),
        enter_s=0.5, exit_s=1.0,
    )
    frames, truth = generate(small_scenario(actors=(actor,), duration_s=2.0))
    present = [f.frame_id for f in frames if f.detections]
    # 10 fps: in-span frames are t = 0.5 .. 1.0 inclusive
    assert present == [5, 6, 7, 8, 9, 10]
    assert sorted(r.frame_id for r in truth) == present


def test_true_direction_comes_from_velocity_sign():
    right = Trajectory("linear", 0.0, 500.0, vx_cm_s=10.0)
    left = Trajectory("linear", 0.0, 500.0, vx_cm_s=-10.0)
    approach = Trajectory("linear", 0.0, 500.0, vz_cm_s=-40.0)
    parked = Trajectory("stationary", 0.0, 500.0)
    assert true_direction_of(right) is DirectionLabel.RIGHT
    assert true_direction_of(left) is DirectionLabel.LEFT
    assert true_direction_of(approach) is DirectionLabel.FORWARD
    assert true_direction_of(parked) is DirectionLabel.FORWARD


def test_scenario_validation_errors():
    with pytest.raises(ScenarioError, match=r"^actor 0: depth at t=2\.0 must be a positive finite number, got -100\.0$"):
        small_scenario(
            actors=(
                ActorSpec(0, Category("car"), 140.0, 2.0, Trajectory("linear", 0.0, 100.0, vz_cm_s=-100.0)),
            ),
            duration_s=2.0,
        )
    # a span-end depth that overflows is refused with the spec, not at a frame
    with pytest.raises(ScenarioError, match=r"^actor 0: depth at t=2\.0 must be a positive finite number, got inf$"):
        small_scenario(
            actors=(ActorSpec(0, Category("car"), 140.0, 2.0, Trajectory("linear", 0.0, 1e308, vz_cm_s=1e308)),),
            duration_s=2.0,
        )
    # so are a finite height and a finite offset whose projection
    # overflows, which generate would refuse as a box at frame 0
    crosser = scenario_by_name("single-crosser")
    (actor,) = crosser.actors
    with pytest.raises(ScenarioError, match=r"^actor 0: image height f\*H/Z at t=0\.0 must be a positive finite number, got inf$"):
        dataclasses.replace(crosser, actors=(dataclasses.replace(actor, real_height_cm=1e308),))
    with pytest.raises(ScenarioError, match=r"^actor 0: image offset f\*X/Z at t=0\.0 must be a finite number, got inf$"):
        dataclasses.replace(
            crosser, actors=(dataclasses.replace(actor, trajectory=dataclasses.replace(actor.trajectory, x0_cm=1e308)),)
        )
    # a field that holds the wrong record type is refused by name
    with pytest.raises(ScenarioError, match=r"^camera must be a CameraIntrinsics, got None$"):
        dataclasses.replace(crosser, camera=None)
    with pytest.raises(ScenarioError, match=r"^noise must be a NoiseSpec, got None$"):
        dataclasses.replace(crosser, noise=None)
    with pytest.raises(ScenarioError, match=r"^actors must be a tuple, got None$"):
        dataclasses.replace(crosser, actors=None)
    with pytest.raises(ScenarioError, match=r"^actors\[0\] must be an ActorSpec, got 1$"):
        dataclasses.replace(crosser, actors=(1,))
    with pytest.raises(ScenarioError, match=r"^actors\[1\] must be an ActorSpec, got 'car'$"):
        dataclasses.replace(crosser, actors=(actor, "car"))
    with pytest.raises(ScenarioError, match=r"^actors must be a tuple, got \[ActorSpec\("):
        dataclasses.replace(crosser, actors=[actor])
    with pytest.raises(ScenarioError, match=r"^actor 0: trajectory must be a Trajectory, got None$"):
        dataclasses.replace(actor, trajectory=None)
    with pytest.raises(ScenarioError, match="duplicate"):
        small_scenario(
            actors=(
                ActorSpec(0, Category("car"), 140.0, 2.0, Trajectory("stationary", 0.0, 500.0)),
                ActorSpec(0, Category("bus"), 320.0, 2.5, Trajectory("stationary", 50.0, 700.0)),
            )
        )
    with pytest.raises(ScenarioError, match="span"):
        small_scenario(
            actors=(
                ActorSpec(
                    0, Category("car"), 140.0, 2.0,
                    Trajectory("stationary", 0.0, 500.0), enter_s=1.5, exit_s=0.5,
                ),
            )
        )
    with pytest.raises(ScenarioError):
        Trajectory("stationary", 0.0, 500.0, vx_cm_s=5.0)
    with pytest.raises(ScenarioError):
        NoiseSpec(drop_prob=1.5)
    with pytest.raises(ScenarioError):
        NoiseSpec(center_jitter_px=-1.0)
    # generate projects with these without checking them again
    with pytest.raises(ScenarioError, match=r"^camera_height_cm must be a positive finite number, got -1\.0$"):
        dataclasses.replace(small_scenario(), camera_height_cm=-1.0)
    with pytest.raises(ScenarioError, match=r"^actor 0: real_height_cm must be a positive finite number, got -5\.0$"):
        ActorSpec(0, Category("car"), -5.0, 2.0, Trajectory("stationary", 0.0, 500.0))
    with pytest.raises(ScenarioError, match=r"^actor 0: aspect_ratio must be a positive finite number, got 0\.0$"):
        ActorSpec(0, Category("car"), 140.0, 0.0, Trajectory("stationary", 0.0, 500.0))


HUGE = 10**400  # an int too large for a float


@pytest.mark.parametrize(
    "build,text",
    [
        (lambda: HeightTable({"car": HUGE}), "height for 'car' must be a positive finite number"),
        (lambda: Trajectory("linear", HUGE, 500.0), "x0_cm must be a finite number"),
        (lambda: Trajectory("linear", True, 500.0), "x0_cm must be a finite number, got True"),
        (lambda: NoiseSpec(center_jitter_px=HUGE), "center_jitter_px must be a non-negative finite number"),
        (lambda: NoiseSpec(drop_prob=True), "drop_prob must be a number in \\[0, 1\\], got True"),
        (lambda: small_scenario(duration_s="4"), "duration_s must be a positive finite number, got '4'"),
        (
            lambda: ActorSpec(0, Category("car"), "140", 2.0, Trajectory("stationary", 0.0, 500.0)),
            "actor 0: real_height_cm must be a positive finite number, got '140'",
        ),
        (
            lambda: ActorSpec(0, "car", 140.0, 2.0, Trajectory("stationary", 0.0, 500.0)),
            "actor 0: category must be a Category, got 'car'",
        ),
        (
            lambda: ActorSpec(0, Category("car"), 140.0, 2.0, Trajectory("stationary", 0.0, 500.0), enter_s="1"),
            "actor 0: enter_s must be a finite number or null, got '1'",
        ),
    ],
)
def test_spec_numbers_that_are_not_finite_numbers_are_refused(build, text):
    with pytest.raises(ValueError, match=text):
        build()


def test_seed_range_is_enforced():
    small_scenario(seed=0)
    small_scenario(seed=2**63 - 1)
    with pytest.raises(ScenarioError):
        small_scenario(seed=-1)
    with pytest.raises(ScenarioError):
        small_scenario(seed=2**63)


def test_standard_suite_contents():
    suite = standard_suite()
    assert [s.name for s in suite] == [
        "single-crosser",
        "approach-head-on",
        "two-crossers-opposite",
        "crowded-midrange",
        "stationary-clutter",
        "enter-exit-churn",
    ]
    for spec in suite:
        assert spec.noise == NoiseSpec()
        assert spec.camera == SUITE_CAMERA
        # suite actors take their heights from the shared table
        for actor in spec.actors:
            assert actor.real_height_cm == SUITE_HEIGHTS_CM[actor.category.label]


def test_scenario_by_name_rejects_unknown():
    assert scenario_by_name("single-crosser").name == "single-crosser"
    with pytest.raises(ScenarioError, match="single-crosser"):
        scenario_by_name("no-such-scenario")


def test_crowded_midrange_stays_in_the_middle_band():
    frames, truth = generate(scenario_by_name("crowded-midrange"))
    assert all(300.0 < r.true_depth_cm <= 600.0 for r in truth)
    assert all(len(f.detections) == 6 for f in frames)


def test_approach_head_on_sweeps_the_bands():
    _, truth = generate(scenario_by_name("approach-head-on"))
    depths = [r.true_depth_cm for r in truth]
    assert max(depths) == 800.0
    assert min(depths) < 150.0
    assert all(r.true_direction is DirectionLabel.FORWARD for r in truth)


def test_slow_crosser_displacement_straddles_the_dead_zone():
    spec = slow_crosser(dead_zone_px=8.0)
    frames, _ = generate(spec)
    centers = [f.detections[0].bbox.center()[0] for f in frames]
    steps = [b - a for a, b in zip(centers, centers[1:])]
    for step in steps:
        # per-frame displacement hides inside the dead zone...
        assert abs(step) <= 8.0
        assert abs(step) == pytest.approx(6.0, rel=1e-6)
    for a, c in zip(centers, centers[2:]):
        # ...but the two-frame displacement clears it
        assert abs(c - a) > 8.0



@pytest.mark.parametrize("dead_zone_px", [math.inf, math.nan, True, "8", 0, -1], ids=repr)
def test_slow_crosser_refuses_a_dead_zone_that_is_not_a_positive_finite_number(dead_zone_px):
    with pytest.raises(ScenarioError) as caught:
        slow_crosser(dead_zone_px)
    assert str(caught.value) == f"dead_zone_px must be a positive finite number, got {dead_zone_px!r}"


def test_slow_crosser_with_a_huge_dead_zone_is_refused_by_its_trajectory():
    # 1e308 passes the dead-zone rule, but the crosser's speed overflows to
    # inf, which the trajectory's own rule refuses
    with pytest.raises(ScenarioError, match="^x0_cm must be a finite number, got -inf$"):
        slow_crosser(1e308)

def test_scenario_dict_round_trip():
    spec = scenario_by_name("enter-exit-churn")
    clone = scenario_from_dict(scenario_to_dict(spec))
    assert clone == spec


def positive(hi=1e4):
    return st.floats(min_value=0.01, max_value=hi)


@st.composite
def scenario_specs(draw):
    duration = draw(positive(20.0))
    actors = []
    for actor_id in draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=4, unique=True)):
        kind = draw(st.sampled_from(TRAJECTORY_KINDS))
        z0 = draw(st.floats(1.0, 5000.0))
        vx = vz = 0.0
        if kind == "linear":
            # the depth falls at most to half of z0 within the scenario
            vx = draw(st.floats(-500.0, 500.0))
            vz = draw(st.floats(-z0 / (2 * duration), 500.0))
        enter = draw(st.none() | st.floats(0.0, duration))
        exit_ = draw(st.none() | st.floats(0.0 if enter is None else enter, duration))
        actors.append(
            ActorSpec(
                actor_id=actor_id,
                category=Category(draw(st.sampled_from(KNOWN_CATEGORIES) | st.text(min_size=1))),
                real_height_cm=draw(positive()),
                aspect_ratio=draw(positive(10.0)),
                trajectory=Trajectory(kind, draw(st.floats(-1e4, 1e4)), z0, vx, vz),
                enter_s=enter,
                exit_s=exit_,
            )
        )
    probability = st.floats(0.0, 1.0)
    noise = st.just(NoiseSpec()) | st.builds(NoiseSpec, st.floats(0.0, 10.0), st.floats(0.0, 1.0), probability, probability)
    return ScenarioSpec(
        name=draw(st.text(min_size=1)),
        duration_s=duration,
        frame_rate_hz=draw(positive(100.0)),
        camera=CameraIntrinsics(draw(positive()), draw(positive()), draw(positive())),
        camera_height_cm=draw(positive(1000.0)),
        actors=tuple(actors),
        noise=draw(noise),
        seed=draw(st.integers(0, 2**63 - 1)),
    )


@given(spec=scenario_specs())
def test_scenario_json_round_trip(spec):
    assert scenario_from_dict(json.loads(json.dumps(scenario_to_dict(spec)))) == spec


# sha256 of json.dumps(scenario_to_dict(spec)): the scenario file bytes of
# the bundled scenarios, key order included
SCENARIO_JSON_DIGESTS = {
    "single-crosser": "8f83b384ef315cc4066d59e5e63e3a25ad3704ecfe2213f54c1f48c88f120a89",
    "approach-head-on": "82701fe6c30e75b477a84681cc873af92f1b55bce70227036e935270a82fd23c",
    "two-crossers-opposite": "6aa170467d8b7762c09a30521afdc3d9360ef3490df25cbe8534e575dbf33f2d",
    "crowded-midrange": "82c50a55a8bf95d1757c78de25d647d84c75c1271e755854e96b50c2fa923588",
    "stationary-clutter": "3b26a6f0a3d140a8df746e539116a2e7ccba2e7884da8bd27ce10a8ace96c6e3",
    "enter-exit-churn": "0a3b810881b1ede381aec2c0ab19c0294ebd18ec5116dc884b6059814ee63a14",
    "slow-crosser": "66c359fd5c701d7a7ab68ec454bbc3123ccd3b92786f1548d321a34fab8dd12e",
}


def test_scenario_json_bytes_are_pinned():
    specs = {spec.name: spec for spec in standard_suite() + [slow_crosser()]}
    digests = {name: hashlib.sha256(json.dumps(scenario_to_dict(spec)).encode()).hexdigest() for name, spec in specs.items()}
    assert digests == SCENARIO_JSON_DIGESTS


@pytest.mark.parametrize("name", [5, None, "", ["single-crosser"]])
def test_scenario_name_must_be_a_non_empty_string(name):
    with pytest.raises(ScenarioError, match=f"name must be a non-empty string, got {re.escape(repr(name))}"):
        dataclasses.replace(small_scenario(), name=name)
    data = scenario_to_dict(small_scenario())
    data["name"] = name
    with pytest.raises(ScenarioError, match="name must be a non-empty string"):
        scenario_from_dict(data)


def test_a_scenario_without_a_name_is_named_scenario():
    data = scenario_to_dict(small_scenario())
    del data["name"]
    assert scenario_from_dict(data).name == "scenario"
    assert dataclasses.replace(small_scenario(), name="scenario") == scenario_from_dict(data)


def test_scenario_from_dict_rejects_unknown_keys():
    data = scenario_to_dict(small_scenario())
    data["frame_skip"] = 2
    with pytest.raises(ScenarioError, match="frame_skip"):
        scenario_from_dict(data)
    data = scenario_to_dict(small_scenario())
    data["actors"][0]["speed"] = 3.0
    with pytest.raises(ScenarioError, match="speed"):
        scenario_from_dict(data)
    data = scenario_to_dict(small_scenario())
    del data["camera"]["focal_px"]
    with pytest.raises(ScenarioError, match="focal_px"):
        scenario_from_dict(data)


def test_scenario_from_dict_defaults():
    data = {
        "duration_s": 1.0,
        "frame_rate_hz": 10.0,
        "camera": {"focal_px": 1000.0, "image_w": 640.0, "image_h": 480.0},
        "camera_height_cm": 140.0,
        "actors": [
            {
                "actor_id": 0,
                "category": "car",
                "real_height_cm": 140.0,
                "aspect_ratio": 2.0,
                "trajectory": {"kind": "stationary", "x0_cm": 0.0, "z0_cm": 500.0},
            }
        ],
    }
    spec = scenario_from_dict(data)
    assert spec.noise == NoiseSpec()
    assert spec.seed == 0
    assert spec.actors == (ActorSpec(0, Category("car"), 140.0, 2.0, Trajectory("stationary", 0.0, 500.0)),)
    # the trajectory is built before the category, so its error is the one reported
    actor = data["actors"][0]
    actor["category"] = ""
    actor["trajectory"]["kind"] = "flying"
    with pytest.raises(ScenarioError, match="trajectory kind must be one of"):
        scenario_from_dict(data)


def test_with_helpers_replace_one_field():
    spec = small_scenario()
    noisy = dataclasses.replace(spec, noise=NoiseSpec(drop_prob=0.1))
    assert noisy.noise.drop_prob == 0.1
    assert noisy.actors == spec.actors
    reseeded = dataclasses.replace(spec, seed=777)
    assert reseeded.seed == 777


def test_truth_records_know_their_category():
    _, truth = generate(scenario_by_name("two-crossers-opposite"))
    labels = {r.actor_id: r.true_category.label for r in truth}
    assert labels == {0: "car", 1: "person"}
