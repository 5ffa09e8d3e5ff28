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
    NoiseModel,
    NullAction,
    NULL_ACTION,
    PlaceAction,
    PlacedBlock,
    Scenario,
    SchemaError,
    StabilityHeatmap,
    TowerState,
    ValidationError,
    derive_sample_seed,
    derive_sample_seeds,
    load_scenario,
    parse_scenario,
    save_scenario,
    scenario_to_dict,
)
from .explain import (
    Explanation,
    enumerate_candidates,
    explain,
    explain_with_abduction,
    render_explanation,
    report_to_dict,
    score_candidates,
)
from .inference import (
    PredictionEstimate,
    SelectionResult,
    candidate_grid,
    heatmap_to_csv,
    heatmap_to_pgm,
    predict_stability,
    select_action,
    stability_heatmap,
    write_heatmap_csv,
    write_heatmap_pgm,
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
    InterventionTarget,
    SetAction,
    SetActuationNoise,
    SetInitialState,
    SetSensorNoise,
    abduct,
    counterfactual_outcomes,
    draw_exogenous,
    load_trace,
    replay_ground_truth,
    sample_episode,
    save_trace,
)

__version__ = "0.1.0"
