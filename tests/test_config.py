"""Config files: defaults, overlay, strict key checking, derived values."""
import pytest

from streetwatch.alarm import DEFAULT_STAGES
from streetwatch.config import ConfigError, default_config_text, load_config


def write_config(tmp_path, text):
    path = tmp_path / "config.ini"
    path.write_text(text, encoding="utf-8")
    return path


def test_defaults_load_without_a_file():
    cfg = load_config()
    assert cfg.camera.focal_px == 1000.0
    assert cfg.camera.image_w == 640.0
    assert cfg.camera.image_h == 480.0
    assert cfg.camera_height_cm == 140.0
    assert cfg.heights.entries["car"] == 140.0
    assert cfg.heights.entries["person"] == 165.0
    assert cfg.matcher.strategy == "euclidean"
    assert cfg.matcher.max_center_dist_px == 160.0
    assert cfg.matcher.min_iou == 0.1
    assert cfg.direction.gap == 2
    assert cfg.direction.dead_zone_px == 8.0
    assert cfg.alarm.stages == DEFAULT_STAGES
    assert cfg.alarm.cooldown_ms == 1500
    assert cfg.alarm.max_events_per_frame == 2
    assert cfg.alarm.cumulative_bands is False


def test_default_text_parses_to_the_same_config():
    # the shipped file and the no-file path must agree
    assert default_config_text().startswith("#")


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
        ("matcher", "strategy", "sideways", "strategy"),
        ("matcher", "max_center_dist_px", "0", "max_center_dist_px"),
        ("direction", "gap", "0", "gap"),
        ("direction", "gap", "4", "gap"),
        ("direction", "dead_zone_px", "-2", "dead_zone_px"),
        ("alarm", "cooldown_ms", "-1", "cooldown_ms"),
        ("alarm", "max_events_per_frame", "0", "max_events_per_frame"),
        ("heights", "car", "0.0", "car"),
    ],
)
def test_out_of_range_values_are_fatal(tmp_path, section, key, value, hint):
    path = write_config(tmp_path, f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=hint):
        load_config(path)


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
