"""Pipeline configuration files.

The shipped defaults are the bundled scenarios' camera and height table
(camera.SUITE_*) and what pipeline.config_for_camera builds on them;
nothing else restates them. A user file of flat INI-style sections
overlays them key by key; unknown sections or keys are fatal so typos
cannot silently fall back to defaults. dead_zone_px and
max_center_dist_px may be omitted, in which case they scale with the
configured image width.
"""
from __future__ import annotations

import configparser
from pathlib import Path
from typing import Optional, Union

from .alarm import AlarmPolicy, AlarmStage
from .camera import SUITE_CAMERA, SUITE_HEIGHTS_CM, CameraIntrinsics, HeightTable
from .direction import DirectionConfig
from .matcher import MatchConfig
from .pipeline import PipelineConfig, config_for_camera


class ConfigError(ValueError):
    """A configuration file is malformed or out of range."""


_KNOWN_KEYS = {
    "camera": {"focal_px", "image_w", "image_h"},
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


def _get_float(parser, section: str, key: str, default: float) -> float:
    try:
        value = parser.getfloat(section, key, fallback=default)
    except (configparser.Error, ValueError) as exc:
        raise ConfigError(f"[{section}] {key}: not a number ({exc})") from None
    if not value > 0:
        raise ConfigError(f"[{section}] {key}: must be positive, got {value}")
    return value


def _get_int(parser, section: str, key: str, default: int, *, minimum: int) -> int:
    try:
        value = parser.getint(section, key, fallback=default)
    except (configparser.Error, ValueError) as exc:
        raise ConfigError(f"[{section}] {key}: not an integer ({exc})") from None
    if value < minimum:
        raise ConfigError(f"[{section}] {key}: must be >= {minimum}, got {value}")
    return value


def _get_bool(parser, section: str, key: str, default: bool) -> bool:
    try:
        return parser.getboolean(section, key, fallback=default)
    except (configparser.Error, ValueError) as exc:
        raise ConfigError(f"[{section}] {key}: not a boolean ({exc})") from None


def load_config(path: Optional[Union[str, Path]] = None) -> PipelineConfig:
    """Load a pipeline config, overlaying the user file on the defaults."""
    parser = _new_parser()
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh, source=str(path))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"cannot read config {path}: not UTF-8 ({exc})") from None
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from None
        _check_known(parser, str(path))
    try:
        camera = CameraIntrinsics(
            focal_px=_get_float(parser, "camera", "focal_px", SUITE_CAMERA.focal_px),
            image_w=_get_float(parser, "camera", "image_w", SUITE_CAMERA.image_w),
            image_h=_get_float(parser, "camera", "image_h", SUITE_CAMERA.image_h),
        )

        # the shipped labels in their order, then the file's new ones
        shipped = SUITE_HEIGHTS_CM
        named = parser["heights"] if parser.has_section("heights") else {}
        heights = HeightTable(
            {label: _get_float(parser, "heights", label, shipped.get(label)) for label in {**shipped, **named}}
        )

        # what the file leaves out below comes from this camera's config
        base = config_for_camera(camera, heights)
        matcher = MatchConfig(
            max_center_dist_px=_get_float(parser, "matcher", "max_center_dist_px", base.matcher.max_center_dist_px)
        )

        direction = DirectionConfig(
            gap=_get_int(parser, "direction", "gap", base.direction.gap, minimum=1),
            dead_zone_px=_get_float(parser, "direction", "dead_zone_px", base.direction.dead_zone_px),
        )

        stages = tuple(
            AlarmStage(
                stage=s.stage,
                band_lo_cm=_get_float(parser, "alarm", f"stage{s.stage}_lo_cm", s.band_lo_cm),
                band_hi_cm=_get_float(parser, "alarm", f"stage{s.stage}_hi_cm", s.band_hi_cm),
                vibration_s=_get_float(parser, "alarm", f"stage{s.stage}_vibration_s", s.vibration_s),
            )
            for s in base.alarm.stages
        )
        alarm = AlarmPolicy(
            stages=stages,
            cooldown_ms=_get_int(parser, "alarm", "cooldown_ms", base.alarm.cooldown_ms, minimum=0),
            max_events_per_frame=_get_int(
                parser, "alarm", "max_events_per_frame", base.alarm.max_events_per_frame, minimum=1
            ),
            cumulative_bands=_get_bool(parser, "alarm", "cumulative_bands", base.alarm.cumulative_bands),
        )
        # PipelineConfig checks gap against the window depth
        return PipelineConfig(
            camera=camera,
            heights=heights,
            matcher=matcher,
            direction=direction,
            alarm=alarm,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
