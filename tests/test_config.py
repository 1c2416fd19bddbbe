"""Config files: defaults, overlay, strict key checking, derived values."""
import dataclasses
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from streetwatch.alarm import DEFAULT_STAGES, AlarmPolicy, AlarmStage
from streetwatch.camera import estimate_distance
from streetwatch.config import _KNOWN_KEYS, ConfigError, load_config
from streetwatch.direction import DirectionConfig
from streetwatch.evaluation import config_for_scenario
from streetwatch.jsonl import encode_detection_frame, write_lines
from streetwatch.matcher import MatchConfig
from streetwatch.simulator import scenario_by_name

from conftest import make_det, make_frame


def write_config(tmp_path, text):
    path = tmp_path / "config.ini"
    path.write_text(text, encoding="utf-8")
    return path


def test_defaults_load_without_a_file():
    cfg = load_config()
    assert cfg.camera.focal_px == 1000.0
    assert cfg.camera.image_w == 640.0
    assert cfg.camera.image_h == 480.0
    assert cfg.heights.entries["car"] == 140.0
    assert cfg.heights.entries["person"] == 165.0
    assert cfg.matcher.max_center_dist_px == 160.0
    assert cfg.direction.gap == 2
    assert cfg.direction.dead_zone_px == 8.0
    assert cfg.alarm.stages == DEFAULT_STAGES
    assert cfg.alarm.cooldown_ms == 1500
    assert cfg.alarm.max_events_per_frame == 2
    assert cfg.alarm.cumulative_bands is False


def config_leaves(value, path=()):
    """Every scalar of a config, keyed by its attribute/index path."""
    if dataclasses.is_dataclass(value):
        items = ((f.name, getattr(value, f.name)) for f in dataclasses.fields(value))
    elif isinstance(value, dict):
        items = value.items()
    elif isinstance(value, tuple):
        items = enumerate(value)
    else:
        return {path: value}
    leaves = {}
    for name, child in items:
        leaves.update(config_leaves(child, path + (name,)))
    return leaves


def changed_leaves(cfg, base):
    new, old = config_leaves(cfg), config_leaves(base)
    return {path: new.get(path) for path in new.keys() | old.keys() if new.get(path) != old.get(path)}


KNOWN_PAIRS = {(section, key) for section, allowed in _KNOWN_KEYS.items() if allowed for key in allowed}

# A valid value for every key that differs from the shipped default.
OVERLAY_VALUES = {
    ("camera", "focal_px"): 1200.0,
    ("camera", "image_w"): 1280.0,
    ("camera", "image_h"): 720.0,
    ("matcher", "max_center_dist_px"): 200.0,
    ("direction", "gap"): 1,
    ("direction", "dead_zone_px"): 5.0,
    ("alarm", "stage1_lo_cm"): 560.0,
    ("alarm", "stage1_hi_cm"): 610.0,
    ("alarm", "stage1_vibration_s"): 0.9,
    ("alarm", "stage2_lo_cm"): 260.0,
    ("alarm", "stage2_hi_cm"): 310.0,
    ("alarm", "stage2_vibration_s"): 1.3,
    ("alarm", "stage3_lo_cm"): 110.0,
    ("alarm", "stage3_hi_cm"): 160.0,
    ("alarm", "stage3_vibration_s"): 1.7,
    ("alarm", "cooldown_ms"): 500,
    ("alarm", "max_events_per_frame"): 3,
    ("alarm", "cumulative_bands"): True,
}


def test_every_key_is_read(tmp_path):
    base = load_config()
    assert set(OVERLAY_VALUES) == KNOWN_PAIRS
    cases = dict(OVERLAY_VALUES)
    for label, height in base.heights.entries.items():
        cases[("heights", label)] = height + 10.0
    for (section, key), value in cases.items():
        text = str(value).lower() if isinstance(value, bool) else str(value)
        changed = changed_leaves(load_config(write_config(tmp_path, f"[{section}]\n{key} = {text}\n")), base)
        if key == "image_w":
            # dead_zone_px and max_center_dist_px are left out, so they scale with the width
            assert changed.pop(("direction", "dead_zone_px")) == 2 * base.direction.dead_zone_px
            assert changed.pop(("matcher", "max_center_dist_px")) == 2 * base.matcher.max_center_dist_px
        assert [(v, type(v)) for v in changed.values()] == [(value, type(value))], (section, key, changed)

    # a new label joins the table; the shipped ones stay as they are
    cfg = load_config(write_config(tmp_path, "[heights]\nTrafficCone = 70.0\n"))
    assert changed_leaves(cfg, base) == {("heights", "entries", "TrafficCone"): 70.0}


def test_readme_lists_every_key_with_its_default(tmp_path):
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    text = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \| `([^`]+)` \|", text, flags=re.M)
    base = load_config()
    listed = {(section, key) for section, key, _ in rows}
    assert KNOWN_PAIRS | {("heights", label) for label in base.heights.entries} <= listed
    for section, key, value in rows:
        # the listed default, written into a file, changes nothing
        cfg = load_config(write_config(tmp_path, f"[{section}]\n{key} = {value}\n"))
        assert changed_leaves(cfg, base) == {}, (section, key, value)


def test_overlay_replaces_only_named_keys(tmp_path):
    path = write_config(
        tmp_path,
        """
[heights]
car = 150.0

[alarm]
cooldown_ms = 500
""",
    )
    cfg = load_config(path)
    assert cfg.heights.entries["car"] == 150.0
    # untouched keys keep their defaults
    assert cfg.heights.entries["person"] == 165.0
    assert cfg.alarm.cooldown_ms == 500
    assert cfg.alarm.max_events_per_frame == 2
    assert cfg.camera.focal_px == 1000.0


def test_dead_zone_scales_with_overridden_width(tmp_path):
    path = write_config(
        tmp_path,
        """
[camera]
image_w = 1280.0
""",
    )
    cfg = load_config(path)
    assert cfg.direction.dead_zone_px == 16.0


def test_config_file_and_scenario_agree_on_a_wider_camera(tmp_path):
    cfg = load_config(write_config(tmp_path, "[camera]\nimage_w = 1280\n"))
    spec = dataclasses.replace(scenario_by_name("single-crosser"), camera=cfg.camera)
    mirrored = config_for_scenario(spec)
    assert (cfg.matcher, cfg.direction) == (mirrored.matcher, mirrored.direction)
    assert cfg.matcher.max_center_dist_px == 320.0
    assert cfg.direction.dead_zone_px == 16.0


def test_explicit_dead_zone_wins(tmp_path):
    path = write_config(
        tmp_path,
        """
[camera]
image_w = 1280.0

[direction]
dead_zone_px = 5.0
""",
    )
    cfg = load_config(path)
    assert cfg.direction.dead_zone_px == 5.0


def test_unknown_key_is_fatal(tmp_path):
    path = write_config(
        tmp_path,
        """
[direction]
dead_zone = 5.0
""",
    )
    with pytest.raises(ConfigError, match="dead_zone"):
        load_config(path)


def test_unknown_section_is_fatal(tmp_path):
    path = write_config(
        tmp_path,
        """
[tracking]
gap = 2
""",
    )
    with pytest.raises(ConfigError, match="tracking"):
        load_config(path)


def test_new_height_categories_are_allowed(tmp_path):
    path = write_config(
        tmp_path,
        """
[heights]
dog = 50.0
""",
    )
    cfg = load_config(path)
    assert cfg.heights.entries["dog"] == 50.0
    assert cfg.heights.entries["car"] == 140.0


@pytest.mark.parametrize(
    "section,key,value,hint",
    [
        ("camera", "focal_px", "-5.0", "focal_px"),
        ("camera", "image_w", "abc", "image_w"),
        ("matcher", "max_center_dist_px", "0", "max_center_dist_px"),
        ("direction", "gap", "0", "gap"),
        ("direction", "gap", "4", "gap"),
        ("direction", "dead_zone_px", "-2", "dead_zone_px"),
        ("alarm", "cooldown_ms", "-1", "cooldown_ms"),
        ("alarm", "max_events_per_frame", "0", "max_events_per_frame"),
        ("heights", "car", "0.0", "car"),
        ("direction", "gap", "two", "gap: not an integer"),
        ("alarm", "cooldown_ms", "1.5", "cooldown_ms: not an integer"),
        ("alarm", "cumulative_bands", "maybe", "cumulative_bands: not a boolean"),
    ],
)
def test_out_of_range_values_are_fatal(tmp_path, section, key, value, hint):
    path = write_config(tmp_path, f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=hint):
        load_config(path)


@pytest.mark.parametrize(
    "section,key,value,start",
    [
        ("camera", "focal_px", "-5", "[camera] focal_px must be a positive finite number, got -5.0"),
        ("camera", "focal_px", "inf", "[camera] focal_px must be a positive finite number, got inf"),
        ("camera", "image_h", "abc", "[camera] image_h: not a number"),
        ("heights", "car", "0", "[heights] height for 'car' must be a positive finite number, got 0.0"),
        ("heights", "dog", "nan", "[heights] height for 'dog' must be a positive finite number, got nan"),
        ("matcher", "max_center_dist_px", "inf", "[matcher] max_center_dist_px must be a positive finite number, got inf"),
        ("direction", "gap", "4", "[direction] gap 4 exceeds the 3-frame window"),
        ("alarm", "stage2_lo_cm", "-5", "[alarm] stage 2: band_lo_cm must be a positive finite number, got -5.0"),
        ("alarm", "stage3_vibration_s", "1.0", "[alarm] a higher stage must vibrate strictly longer"),
        ("alarm", "cooldown_ms", "-1", "[alarm] cooldown_ms must be an integer >= 0, got -1"),
        ("alarm", "max_events_per_frame", "0", "[alarm] max_events_per_frame must be an integer >= 1, got 0"),
    ],
)
def test_refused_values_name_their_section(tmp_path, section, key, value, start):
    with pytest.raises(ConfigError) as info:
        load_config(write_config(tmp_path, f"[{section}]\n{key} = {value}\n"))
    assert str(info.value).startswith(start)


@pytest.mark.parametrize(
    "section,key,value",
    [("matcher", "strategy", "euclidean"), ("matcher", "min_iou", "0.1"), ("camera", "camera_height_cm", "140")],
    ids=["strategy-euclidean", "min_iou-0.1", "camera_height_cm-140"],
)
def test_removed_matcher_keys_are_unknown(tmp_path, section, key, value):
    # center distance is the only association cost, and no estimate uses the
    # lens height: the keys that set them are typos now
    path = write_config(tmp_path, f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=f"unknown key '{key}' in \\[{section}\\]"):
        load_config(path)
    det = tmp_path / "detections.jsonl"
    write_lines(det, [encode_detection_frame(make_frame(0, 0, [make_det("car")]))])
    tracked = tmp_path / "t.jsonl"
    events = tmp_path / "e.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "streetwatch", "replay", str(det), "--config", str(path),
         "--out-tracked", str(tracked), "--out-events", str(events)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert f"unknown key '{key}'" in proc.stderr
    assert not tracked.exists()
    assert not events.exists()


def test_keys_are_case_sensitive(tmp_path):
    path = write_config(tmp_path, "[camera]\nFOCAL_PX = 1400.0\n")
    with pytest.raises(ConfigError, match="unknown key 'FOCAL_PX'"):
        load_config(path)
    # a height key is a category label, spelled as the detections spell it
    cfg = load_config(write_config(tmp_path, "[heights]\nTrafficCone = 70.0\n"))
    assert cfg.heights.entries["TrafficCone"] == 70.0
    assert "trafficcone" not in cfg.heights.entries
    cone = make_det("TrafficCone", h=50.0)
    assert estimate_distance(cfg.camera, cfg.heights, cone) == pytest.approx(1000.0 * 70.0 / 50.0)


def test_non_utf8_config_is_a_config_error(tmp_path):
    path = tmp_path / "config.ini"
    path.write_bytes(b"[heights]\nc\xe9r = 140.0\n")
    with pytest.raises(ConfigError, match=re.escape(f"cannot read config {path}: not UTF-8")):
        load_config(path)


@pytest.mark.parametrize(
    "text",
    ["[DEFAULT]\ncar = 5.0\n", "[DEFAULT]\ncar = 5.0\n[heights]\nbus = 300.0\n", "[DEFAULT]\n"],
    ids=["default-only", "default-and-heights", "empty-default"],
)
def test_default_section_is_refused(tmp_path, text):
    # configparser would copy [DEFAULT] keys into every section: car = 5.0
    # either vanished or became a height
    with pytest.raises(ConfigError, match=re.escape("unknown section [DEFAULT]")):
        load_config(write_config(tmp_path, text))
    assert load_config().heights.entries["car"] == 140.0


def test_band_overlap_is_fatal(tmp_path):
    path = write_config(
        tmp_path,
        """
[alarm]
stage2_hi_cm = 580.0
""",
    )
    with pytest.raises(ConfigError):
        load_config(path)


def test_cumulative_bands_flag(tmp_path):
    path = write_config(
        tmp_path,
        """
[alarm]
cumulative_bands = true
""",
    )
    assert load_config(path).alarm.cumulative_bands is True


def test_inline_comments_are_stripped(tmp_path):
    path = write_config(
        tmp_path,
        """
[direction]
gap = 1  # react faster at the cost of dead-zone misses
""",
    )
    assert load_config(path).direction.gap == 1


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.ini")


def test_malformed_ini_is_a_config_error(tmp_path):
    path = write_config(tmp_path, "not an ini file at all\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(path)


# Bools, NaN/inf, ints too large for a float and strings are refused with
# the text each constructor gives any other bad value.
REFUSALS = {
    "stage-vibration-inf": (lambda: AlarmStage(1, 570.0, 600.0, math.inf), "vibration_s must be a positive finite number, got inf"),
    "stage-vibration-str": (lambda: AlarmStage(1, 570.0, 600.0, "0.8"), "vibration_s must be a positive finite number, got '0.8'"),
    "stage-band-lo-bool": (lambda: AlarmStage(1, True, 600.0, 0.8), "band_lo_cm must be a positive finite number, got True"),
    "stage-band-lo-str": (lambda: AlarmStage(1, "570", 600.0, 0.8), "band_lo_cm must be a positive finite number, got '570'"),
    "stage-band-lo-huge": (lambda: AlarmStage(1, 10**400, 10**401, 0.8), "band_lo_cm must be a positive finite number, got 1000"),
    "stage-band-hi-huge": (lambda: AlarmStage(1, 570.0, 10**400, 0.8), "band_hi_cm must be a positive finite number, got 1000"),
    "policy-cooldown-bool": (lambda: AlarmPolicy(cooldown_ms=True), "cooldown_ms must be an integer >= 0, got True"),
    "policy-cap-bool": (lambda: AlarmPolicy(max_events_per_frame=True), "max_events_per_frame must be an integer >= 1, got True"),
    "policy-cumulative-str": (lambda: AlarmPolicy(cumulative_bands="no"), "cumulative_bands must be a boolean, got 'no'"),
    "policy-cumulative-int": (lambda: AlarmPolicy(cumulative_bands=1), "cumulative_bands must be a boolean, got 1"),
    "policy-cumulative-none": (lambda: AlarmPolicy(cumulative_bands=None), "cumulative_bands must be a boolean, got None"),
    "match-dist-bool": (lambda: MatchConfig(max_center_dist_px=True), "max_center_dist_px must be a positive finite number, got True"),
    "match-dist-inf": (lambda: MatchConfig(max_center_dist_px=math.inf), "max_center_dist_px must be a positive finite number, got inf"),
    "direction-dead-zone-inf": (lambda: DirectionConfig(dead_zone_px=math.inf), "dead_zone_px must be a positive finite number, got inf"),
    "direction-dead-zone-str": (lambda: DirectionConfig(dead_zone_px="8"), "dead_zone_px must be a positive finite number, got '8'"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_config_types_refuse_what_is_not_a_finite_number(case):
    build, text = REFUSALS[case]
    with pytest.raises(ValueError, match=re.escape(text)):
        build()
