"""Causal inference for a robot block-stacking task.

The package wraps a quasi-static stability model of single-column cuboid
towers in a structural causal model with explicit sensing and actuation
noise, and builds three capabilities on top of it: interventional
stability prediction, next-best placement selection over a candidate grid,
and twin-world counterfactual explanations of observed outcomes.
"""

from .core import (
    Action,
    BlockSpec,
    EpisodeTrace,
    ExogenousSample,
    GroundTruth,
    InterventionTarget,
    NoiseModel,
    NullAction,
    NULL_ACTION,
    PlaceAction,
    PlacedBlock,
    Scenario,
    SchemaError,
    SetAction,
    SetActuationNoise,
    SetInitialState,
    SetSensorNoise,
    StabilityHeatmap,
    TowerState,
    ValidationError,
    derive_sample_seed,
    derive_sample_seeds,
)
from .explain import (
    Explanation,
    enumerate_candidates,
    explain,
    explain_with_abduction,
    render_explanation,
    score_candidates,
)
from .formats import (
    heatmap_to_csv,
    heatmap_to_pgm,
    load_scenario,
    load_trace,
    parse_scenario,
    report_to_dict,
    save_scenario,
    save_trace,
    scenario_to_dict,
    write_heatmap_csv,
    write_heatmap_pgm,
)
from .inference import (
    PredictionEstimate,
    SelectionResult,
    candidate_grid,
    predict_stability,
    select_action,
    stability_heatmap,
)
from .physics import (
    InterfaceCheck,
    StabilityResult,
    TransitionResult,
    is_stable,
    rect_margin,
    transition,
)
from .scm import (
    AbductionFailure,
    AbductionResult,
    abduct,
    counterfactual_outcomes,
    draw_exogenous,
    replay_ground_truth,
    sample_episode,
)

__version__ = "0.1.0"
