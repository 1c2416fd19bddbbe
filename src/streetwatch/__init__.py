"""streetwatch: post-detection hazard pipeline.

Turns per-frame object detections into monocular distance estimates,
cross-frame identities, moving directions and staged proximity alarms,
with a synthetic-scenario simulator and an evaluation harness to match.

The public names below are imported from their module on first use
(PEP 562), so `import streetwatch.cli` loads only what a command runs.
"""
from importlib import import_module

_EXPORTS = {
    "alarm": (
        "AlarmEvent",
        "AlarmPolicy",
        "AlarmStage",
        "CooldownLedger",
        "DEFAULT_STAGES",
        "emit_alarms",
        "render_message",
        "stage_for_distance",
    ),
    "camera": (
        "CameraIntrinsics",
        "HeightTable",
        "estimate_distance",
        "focal_px_from_mm",
        "project_height",
    ),
    "config": ("ConfigError", "load_config"),
    "direction": ("DirectionConfig", "DirectionLabel", "classify_direction"),
    "evaluation": (
        "AlignmentError",
        "BandPartition",
        "EvalError",
        "EvalReport",
        "GapComparison",
        "ScenarioRun",
        "compare_gap_strategies",
        "config_for_scenario",
        "run_scenario",
        "score",
    ),
    "matcher": ("MatchConfig", "MatchResult", "match_frames"),
    "pipeline": (
        "Pipeline",
        "PipelineConfig",
        "StreamOrderError",
        "TrackedObject",
        "WINDOW_DEPTH",
    ),
    "simulator": (
        "ActorSpec",
        "NoiseSpec",
        "ScenarioError",
        "ScenarioSpec",
        "Trajectory",
        "TruthRecord",
        "generate",
        "scenario_by_name",
        "scenario_from_dict",
        "scenario_to_dict",
        "slow_crosser",
        "standard_suite",
        "true_direction_of",
    ),
    "types": (
        "BoundingBox",
        "Category",
        "Detection",
        "DetectionFrame",
        "FrameValidationError",
        "KNOWN_CATEGORIES",
        "ObjectId",
        "validate_frame",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        # also how `from streetwatch import evaluation` falls through to
        # importing the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
