"""Pipeline configuration files.

The shipped defaults are the bundled scenarios' camera and height table
(camera.SUITE_*) and what PipelineConfig builds on them; nothing else
restates them. A user file of flat INI-style sections overlays them key
by key; unknown sections or keys are fatal so typos cannot silently fall
back to defaults. dead_zone_px and max_center_dist_px may be omitted, in
which case PipelineConfig scales them with the configured image width.
"""
from __future__ import annotations

import configparser
from dataclasses import fields, replace
from pathlib import Path
from typing import Optional, Union

from .alarm import DEFAULT_STAGES, AlarmPolicy, AlarmStage
from .camera import SUITE_CAMERA, SUITE_HEIGHTS_CM, CameraIntrinsics, HeightTable
from .direction import DirectionConfig
from .matcher import MatchConfig
from .pipeline import PipelineConfig
from .types import _refused_as


class ConfigError(ValueError):
    """A configuration file is malformed or out of range."""


def _stage_key(stage: int, name: str) -> str:
    """The [alarm] key of an AlarmStage field: stage2_lo_cm for band_lo_cm."""
    return f"stage{stage}_{name.removeprefix('band_')}"


# A section's keys are its type's field names; [alarm] spells each stage's
# fields with _stage_key.
_KNOWN_KEYS = {
    "camera": {f.name for f in fields(CameraIntrinsics)},
    "heights": None,  # any category label is a legal key
    "matcher": {f.name for f in fields(MatchConfig)},
    "direction": {f.name for f in fields(DirectionConfig)},
    "alarm": {f.name for f in fields(AlarmPolicy) if f.name != "stages"}
    | {_stage_key(s.stage, f.name) for s in DEFAULT_STAGES for f in fields(AlarmStage) if f.name != "stage"},
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


# how a value is parsed, by the type of the field's default
_PARSERS = {
    float: (configparser.ConfigParser.getfloat, "a number"),
    int: (configparser.ConfigParser.getint, "an integer"),
    bool: (configparser.ConfigParser.getboolean, "a boolean"),
}


def _get(parser, section: str, key: str, default):
    """The file's value of key in section, parsed as the type of default, or
    default when the file leaves it out. Its range is the constructor's to check."""
    get, kind = _PARSERS[type(default)]
    try:
        return get(parser, section, key, fallback=default)
    except (configparser.Error, ValueError) as exc:
        raise ConfigError(f"[{section}] {key}: not {kind} ({exc})") from None


def _overlay(parser, section: str, base, stage: Optional[int] = None, **values):
    """base with each field that section names replaced by the file's value.
    With a stage number, base is that AlarmStage and its keys are _stage_key's."""
    for f in fields(base):
        key = f.name if stage is None else _stage_key(stage, f.name)
        if key in _KNOWN_KEYS[section]:
            values[f.name] = _get(parser, section, key, getattr(base, f.name))
    where = f"[{section}]" if stage is None else f"[{section}] stage {stage}:"
    return _refused_as(ConfigError, where, replace, base, **values)


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
    camera = _overlay(parser, "camera", SUITE_CAMERA)
    # the shipped labels in their order, then the file's new ones; the file
    # has every new label, so its 0.0 only says that a height is a float
    shipped = SUITE_HEIGHTS_CM
    named = parser["heights"] if parser.has_section("heights") else {}
    heights = _refused_as(
        ConfigError,
        "[heights]",
        HeightTable,
        {label: _get(parser, "heights", label, shipped.get(label, 0.0)) for label in {**shipped, **named}},
    )
    # what the file leaves out below comes from this camera's config
    base = PipelineConfig(camera, heights)
    stages = tuple(_overlay(parser, "alarm", s, s.stage) for s in base.alarm.stages)
    # PipelineConfig's one check is the direction gap against the window depth
    return _refused_as(
        ConfigError,
        "[direction]",
        replace,
        base,
        matcher=_overlay(parser, "matcher", base.matcher),
        direction=_overlay(parser, "direction", base.direction),
        alarm=_overlay(parser, "alarm", base.alarm, stages=stages),
    )
