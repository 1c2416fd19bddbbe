"""streetwatch: post-detection hazard pipeline.

Turns per-frame object detections into monocular distance estimates,
cross-frame identities, moving directions and staged proximity alarms,
with a synthetic-scenario simulator and an evaluation harness to match.
"""

from .alarm import (
    AlarmEvent,
    AlarmPolicy,
    AlarmStage,
    CooldownLedger,
    DEFAULT_STAGES,
    emit_alarms,
    render_message,
    stage_for_distance,
)
from .camera import (
    CameraIntrinsics,
    HeightTable,
    estimate_distance,
    focal_px_from_mm,
    project_ground_point,
    project_height,
)
from .config import ConfigError, load_config
from .direction import DirectionConfig, DirectionLabel, classify_direction
from .evaluation import (
    AlignmentError,
    BandPartition,
    EvalError,
    EvalReport,
    GapComparison,
    ScenarioRun,
    compare_gap_strategies,
    config_for_scenario,
    run_scenario,
    score,
)
from .matcher import MatchConfig, MatchResult, match_frames
from .pipeline import Pipeline, PipelineConfig, StreamOrderError, TrackedObject, WINDOW_DEPTH, config_for_camera
from .simulator import (
    ActorSpec,
    NoiseSpec,
    ScenarioError,
    ScenarioSpec,
    Trajectory,
    TruthRecord,
    generate,
    scenario_by_name,
    scenario_from_dict,
    scenario_to_dict,
    slow_crosser,
    standard_suite,
    true_direction_of,
    with_noise,
    with_seed,
)
from .types import (
    BoundingBox,
    Category,
    Detection,
    DetectionFrame,
    FrameValidationError,
    KNOWN_CATEGORIES,
    ObjectId,
    validate_frame,
)

__version__ = "0.1.0"
