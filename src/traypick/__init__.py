"""traypick: desk-scale bin-picking simulator and grasp planner.

Pipeline: procedural cluttered tray scenes (scenegen) -> depth and instance
masks with optional corruption (perception) -> ellipse-fit grasp candidates
with median-height filtering (planner) -> fixed/adaptive finger execution
(graspsim) -> seeded campaigns and comparisons (experiment).
"""

from .archetypes import DEFAULT_ARCHETYPES, FoodArchetype
from .errors import FitError, ParameterError, PlacementError
from .experiment import (
    ExperimentConfig,
    SummaryStats,
    TrialRecord,
    compare_conditions,
    run_campaigns,
    run_experiment,
    run_trial,
)
from .graspsim import (
    Classification,
    FingerKind,
    GraspOutcome,
    apply_outcome,
    close_and_lift,
    execute_grasp,
    grasp_outcome,
    insert_fingers,
)
from .perception import (
    AgreementScore,
    CorruptionParams,
    DepthImage,
    InstanceMaskSet,
    MaskWindow,
    agreement,
    corrupt_masks,
    render_depth,
    render_masks,
)
from .planner import (
    EllipseFit,
    GraspCandidate,
    Plan,
    derive_grasp,
    filter_grasps,
    filter_plan,
    fit_ellipse,
    plan,
    select_grasp,
)
from .scenegen import (
    PieceInstance,
    PieceStamp,
    SceneConfig,
    TrayScene,
    copy_scene,
    drop_piece,
    generate_scene,
    load_scene,
    save_scene,
)

__version__ = "0.1.0"
