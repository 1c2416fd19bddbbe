"""Pipeline configuration files.

Flat INI-style sections. A user file overlays the shipped defaults key by
key; unknown sections or keys are fatal so typos cannot silently fall back
to defaults. dead_zone_px may be omitted, in which case it scales with the
configured image width.
"""
from __future__ import annotations

import configparser
from importlib import resources
from pathlib import Path
from typing import Optional, Union

from .alarm import AlarmPolicy, AlarmStage
from .camera import CameraIntrinsics, HeightTable
from .direction import DirectionConfig, default_dead_zone_px
from .matcher import MatchConfig
from .pipeline import PipelineConfig


class ConfigError(ValueError):
    """A configuration file is malformed or out of range."""


_KNOWN_KEYS = {
    "camera": {"focal_px", "image_w", "image_h", "camera_height_cm"},
    "heights": None,  # any category label is a legal key
    "matcher": {"max_center_dist_px"},
    "direction": {"gap", "dead_zone_px"},
    "alarm": {
        "stage1_lo_cm", "stage1_hi_cm", "stage1_vibration_s",
        "stage2_lo_cm", "stage2_hi_cm", "stage2_vibration_s",
        "stage3_lo_cm", "stage3_hi_cm", "stage3_vibration_s",
        "cooldown_ms", "max_events_per_frame", "cumulative_bands",
    },
}


def default_config_text() -> str:
    return resources.files("streetwatch").joinpath("data/default_config.ini").read_text(encoding="utf-8")


def _new_parser() -> configparser.ConfigParser:
    # configparser copies the keys of its default section into every other
    # section and leaves it out of sections(). No header can spell a name
    # holding a newline, so a [DEFAULT] in a file stays an ordinary section,
    # which _check_known refuses.
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None, default_section="\n"
    )
    # keys are case-sensitive, as section names are: height keys are
    # category labels, which compare by exact string
    parser.optionxform = str
    return parser


def _check_known(parser: configparser.ConfigParser, source: str) -> None:
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"{source}: unknown section [{section}]")
        allowed = _KNOWN_KEYS[section]
        if allowed is None:
            continue
        for key in parser[section]:
            if key not in allowed:
                raise ConfigError(f"{source}: unknown key {key!r} in [{section}]")


def _get_float(parser, section: str, key: str) -> float:
    try:
        value = parser.getfloat(section, key)
    except (configparser.Error, ValueError) as exc:
        raise ConfigError(f"[{section}] {key}: not a number ({exc})") from None
    if not value > 0:
        raise ConfigError(f"[{section}] {key}: must be positive, got {value}")
    return value


def _get_int(parser, section: str, key: str, *, minimum: int) -> int:
    try:
        value = parser.getint(section, key)
    except (configparser.Error, ValueError) as exc:
        raise ConfigError(f"[{section}] {key}: not an integer ({exc})") from None
    if value < minimum:
        raise ConfigError(f"[{section}] {key}: must be >= {minimum}, got {value}")
    return value


def _get_bool(parser, section: str, key: str) -> bool:
    try:
        return parser.getboolean(section, key)
    except (configparser.Error, ValueError) as exc:
        raise ConfigError(f"[{section}] {key}: not a boolean ({exc})") from None


def load_config(path: Optional[Union[str, Path]] = None) -> PipelineConfig:
    """Load a pipeline config, overlaying the user file on the defaults."""
    parser = _new_parser()
    parser.read_string(default_config_text(), source="defaults")
    if path is not None:
        user = _new_parser()
        try:
            with open(path, "r", encoding="utf-8") as fh:
                user.read_file(fh, source=str(path))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"cannot read config {path}: not UTF-8 ({exc})") from None
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from None
        _check_known(user, str(path))
        # overlay key by key on top of the defaults
        for section in user.sections():
            if not parser.has_section(section):
                parser.add_section(section)
            for key, value in user[section].items():
                parser.set(section, key, value)

    try:
        camera = CameraIntrinsics(
            focal_px=_get_float(parser, "camera", "focal_px"),
            image_w=_get_float(parser, "camera", "image_w"),
            image_h=_get_float(parser, "camera", "image_h"),
        )
        camera_height_cm = _get_float(parser, "camera", "camera_height_cm")

        heights = HeightTable({label: _get_float(parser, "heights", label) for label in parser["heights"]})

        matcher = MatchConfig(max_center_dist_px=_get_float(parser, "matcher", "max_center_dist_px"))

        gap = _get_int(parser, "direction", "gap", minimum=1)
        if parser.has_option("direction", "dead_zone_px"):
            dead_zone = _get_float(parser, "direction", "dead_zone_px")
        else:
            dead_zone = default_dead_zone_px(camera.image_w)
        direction = DirectionConfig(gap=gap, dead_zone_px=dead_zone)

        stages = tuple(
            AlarmStage(
                stage=n,
                band_lo_cm=_get_float(parser, "alarm", f"stage{n}_lo_cm"),
                band_hi_cm=_get_float(parser, "alarm", f"stage{n}_hi_cm"),
                vibration_s=_get_float(parser, "alarm", f"stage{n}_vibration_s"),
            )
            for n in (1, 2, 3)
        )
        alarm = AlarmPolicy(
            stages=stages,
            cooldown_ms=_get_int(parser, "alarm", "cooldown_ms", minimum=0),
            max_events_per_frame=_get_int(parser, "alarm", "max_events_per_frame", minimum=1),
            cumulative_bands=_get_bool(parser, "alarm", "cumulative_bands"),
        )
        # PipelineConfig checks gap against the window depth
        return PipelineConfig(
            camera=camera,
            camera_height_cm=camera_height_cm,
            heights=heights,
            matcher=matcher,
            direction=direction,
            alarm=alarm,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
