from dataclasses import fields, replace
import math
from pathlib import Path
import pickle
from statistics import NormalDist

import numpy as np
import pytest

from causalblocks import (
    BlockSpec,
    NoiseModel,
    PlacedBlock,
    SchemaError,
    StabilityHeatmap,
    TowerState,
    ValidationError,
    load_scenario,
    parse_scenario,
    save_scenario,
    scenario_to_dict,
)
from causalblocks.scenarios import cube, column, two_cube_scenario


def test_block_spec_rejects_nonpositive_dimensions():
    with pytest.raises(ValidationError):
        BlockSpec("b", width=0.0, depth=0.1, height=0.1, mass=0.1)
    with pytest.raises(ValidationError):
        BlockSpec("b", width=0.1, depth=-0.1, height=0.1, mass=0.1)
    with pytest.raises(ValidationError):
        BlockSpec("b", width=0.1, depth=0.1, height=0.1, mass=0.0)


def test_placed_block_rejects_non_finite_center():
    with pytest.raises(ValidationError):
        PlacedBlock(cube("b"), float("nan"), 0.0)
    with pytest.raises(ValidationError):
        PlacedBlock(cube("b"), 0.0, float("inf"))


def test_tower_rejects_duplicate_ids():
    with pytest.raises(ValidationError):
        column([cube("a"), cube("a")], [(0, 0), (0, 0)])


def test_validate_rejects_zero_overlap_pair():
    # 0.1-wide cubes with centers 0.1 apart touch edge-to-edge: zero overlap.
    tower = column([cube("a"), cube("b")], [(0.0, 0.0), (0.1, 0.0)])
    with pytest.raises(ValidationError):
        tower.validate()
    ok = column([cube("a"), cube("b")], [(0.0, 0.0), (0.09, 0.0)])
    ok.validate()


def test_validate_rejects_block_off_support():
    tower = column([cube("a")], [(0.7, 0.0)], support_half_extents=(0.5, 0.5))
    with pytest.raises(ValidationError):
        tower.validate()


def test_collapsed_tower_exempt_from_overlap_validation():
    tower = TowerState(
        blocks=(PlacedBlock(cube("a"), 0.0, 0.0), PlacedBlock(cube("b"), 0.4, 0.0)),
        collapsed=True,
    )
    tower.validate()


def test_noise_model_validation():
    with pytest.raises(ValidationError):
        NoiseModel(-0.01, 0.0)
    with pytest.raises(ValidationError):
        NoiseModel(0.0, 0.01, support_points=0)
    NoiseModel(0.0, 0.0)


@pytest.mark.parametrize("sigmas", [(math.inf, 0.01), (0.01, math.inf), (-math.inf, 0.0),
                                    (math.nan, 0.01), (0.01, math.nan)])
def test_noise_model_rejects_non_finite_sigmas(sigmas):
    with pytest.raises(ValidationError, match="finite"):
        NoiseModel(*sigmas)
    with pytest.raises(ValidationError, match="finite"):
        NoiseModel(*sigmas, support_points=5)


def test_support_grid_is_one_read_only_array_per_k():
    for k in (1, 2, 5, 64):
        grid = NoiseModel(0.01, 0.02, support_points=k).support_grid()
        assert NoiseModel(1.0, 0.0, support_points=k).support_grid() is grid
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0] = 1.0
        inv_cdf = NormalDist().inv_cdf
        assert grid.tolist() == [inv_cdf((j + 0.5) / k) for j in range(k)]


def test_discrete_support_grid_symmetric_with_zero_midpoint():
    noise = NoiseModel(0.01, 0.01, support_points=5)
    grid = noise.support_grid()
    assert len(grid) == 5
    assert grid[2] == 0.0
    assert np.allclose(grid, -grid[::-1])


def test_support_grid_matches_ndtri():
    from scipy.special import ndtri

    for k in (1, 2, 3, 4, 5, 9, 64, 4096):
        grid = NoiseModel(1.0, 1.0, support_points=k).support_grid()
        np.testing.assert_allclose(grid, ndtri((np.arange(k) + 0.5) / k),
                                   rtol=1e-14, atol=0.0)
    with pytest.raises(ValidationError):
        NoiseModel(1.0, 1.0, support_points=4097)


def test_heatmap_invariants():
    with pytest.raises(ValidationError):
        StabilityHeatmap(dims=(2, 1),
                         probabilities=(0.5,), stderr=(0.0, 0.0),
                         offsets=((0.0, 0.0), (1.0, 0.0)))
    with pytest.raises(ValidationError):
        StabilityHeatmap(dims=(1, 1),
                         probabilities=(1.5,), stderr=(0.0,),
                         offsets=((0.0, 0.0),))


# --- scenario files ---------------------------------------------------------


def test_scenario_round_trip(tmp_path):
    scenario = two_cube_scenario(0.02, 0.01)
    path = tmp_path / "s.json"
    save_scenario(scenario, path)
    loaded = load_scenario(path)
    assert loaded == scenario


def test_scenario_rejects_unknown_top_level_field():
    doc = scenario_to_dict(two_cube_scenario())
    doc["extra"] = 1
    with pytest.raises(SchemaError):
        parse_scenario(doc)


def test_scenario_rejects_unknown_nested_fields():
    doc = scenario_to_dict(two_cube_scenario())
    doc["noise"]["bias"] = 0.1
    with pytest.raises(SchemaError):
        parse_scenario(doc)

    doc = scenario_to_dict(two_cube_scenario())
    doc["blocks"][0]["friction"] = 0.5
    with pytest.raises(SchemaError):
        parse_scenario(doc)

    doc = scenario_to_dict(two_cube_scenario())
    doc["pending_blocks"][0]["center_x"] = 0.0
    with pytest.raises(SchemaError):
        parse_scenario(doc)


def test_scenario_rejects_missing_field():
    doc = scenario_to_dict(two_cube_scenario())
    del doc["noise"]
    with pytest.raises(SchemaError):
        parse_scenario(doc)


def test_scenario_rejects_bad_values():
    doc = scenario_to_dict(two_cube_scenario())
    doc["blocks"][0]["mass"] = -1.0
    with pytest.raises(SchemaError):
        parse_scenario(doc)

    doc = scenario_to_dict(two_cube_scenario())
    doc["noise"]["sigma_s"] = "big"
    with pytest.raises(SchemaError):
        parse_scenario(doc)


def test_scenario_rejects_duplicate_ids_across_tower_and_pending():
    doc = scenario_to_dict(two_cube_scenario())
    doc["pending_blocks"][0]["id"] = doc["blocks"][0]["id"]
    with pytest.raises(SchemaError):
        parse_scenario(doc)


def test_scenario_file_with_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError):
        load_scenario(path)


def test_pending_by_id():
    scenario = two_cube_scenario()
    assert scenario.pending_by_id("b2").id == "b2"
    with pytest.raises(KeyError):
        scenario.pending_by_id("nope")


def test_discrete_scenario_round_trip(tmp_path):
    base = two_cube_scenario(0.015, 0.015)
    scenario = replace(base, noise=NoiseModel(0.015, 0.015, support_points=5))
    assert scenario_to_dict(scenario)["noise"]["support_points"] == 5
    path = tmp_path / "s.json"
    save_scenario(scenario, path)
    assert load_scenario(path) == scenario
    assert "support_points" not in scenario_to_dict(base)["noise"]


@pytest.mark.parametrize("bad", [True, 2.5, "5", None, [5], 0, 4097])
def test_scenario_rejects_bad_support_points(bad):
    doc = scenario_to_dict(two_cube_scenario())
    doc["noise"]["support_points"] = bad
    with pytest.raises(SchemaError):
        parse_scenario(doc)


@pytest.mark.parametrize("name", ["two_cubes.json", "two_cubes_noise_free.json"])
def test_gaussian_scenario_files_round_trip_byte_identical(name, tmp_path):
    path = Path(__file__).resolve().parents[1] / "demos" / "scenarios" / name
    out = tmp_path / name
    save_scenario(load_scenario(path), out)
    assert out.read_bytes() == path.read_bytes()


_VALUE_TYPES = (
    "BlockSpec", "PlacedBlock", "TowerState", "NullAction", "PlaceAction",
    "NoiseModel", "ExogenousSample", "GroundTruth", "EpisodeTrace",
    "StabilityHeatmap", "Scenario", "InterfaceCheck", "StabilityResult",
    "TransitionResult", "AbductionResult", "SetAction", "SetSensorNoise",
    "SetActuationNoise", "SetInitialState", "Explanation",
    "PredictionEstimate", "SelectionResult",
)


@pytest.fixture(scope="module")
def value_objects():
    """One instance of every value type, built by running the pipeline."""
    from causalblocks import (NULL_ACTION, PlaceAction, SetAction, SetActuationNoise,
                              SetInitialState, SetSensorNoise, abduct, candidate_grid,
                              is_stable, predict_stability, sample_episode,
                              select_action, stability_heatmap, transition)
    from causalblocks.explain import explain

    sc = two_cube_scenario(0.01, 0.01)
    block = sc.pending_blocks[0]
    action = PlaceAction(block, 0.004, -0.002)
    trace = sample_episode(sc.tower, action, sc.noise, 3, scenario_id="pickle")
    grid = candidate_grid(sc.tower, block, 3, 3)
    heatmap = stability_heatmap(sc.tower, block, grid, sc.noise, 50, 1, dims=(3, 3))
    step = transition(sc.tower, action, (0.001, 0.0))
    return {
        "BlockSpec": block,
        "PlacedBlock": sc.tower.blocks[0],
        "TowerState": sc.tower,
        "NullAction": NULL_ACTION,
        "PlaceAction": action,
        "NoiseModel": NoiseModel(0.01, 0.02, support_points=5),
        "ExogenousSample": trace.ground_truth.exo,
        "GroundTruth": trace.ground_truth,
        "EpisodeTrace": trace,
        "StabilityHeatmap": heatmap,
        "Scenario": sc,
        "InterfaceCheck": step.checks[0],
        "StabilityResult": is_stable(sc.tower),
        "TransitionResult": step,
        "AbductionResult": abduct(trace, sc.noise, 20, 4),
        "SetAction": SetAction(action),
        "SetSensorNoise": SetSensorNoise(((0.0, 0.0),)),
        "SetActuationNoise": SetActuationNoise((0.0, 0.0)),
        "SetInitialState": SetInitialState(sc.tower),
        "Explanation": explain(trace, sc.noise, 20, 5)[0],
        "PredictionEstimate": predict_stability(sc.tower, action, sc.noise, 50, 6),
        "SelectionResult": select_action(heatmap, sc.tower, block, sc.noise, 0.5, 50, 7),
    }


@pytest.mark.parametrize("name", _VALUE_TYPES)
def test_value_objects_are_slotted_and_pickle_round_trip(value_objects, name):
    # the heatmap's worker pool sends values between processes by pickle
    value = value_objects[name]
    assert type(value).__name__ == name
    # slotted: no per-instance __dict__
    assert not hasattr(value, "__dict__")
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value)
    if name == "AbductionResult":
        # compares by identity (it holds arrays); check each field instead
        for field in fields(value):
            assert np.array_equal(getattr(copy, field.name), getattr(value, field.name))
    else:
        assert copy == value
        assert hash(copy) == hash(value)
