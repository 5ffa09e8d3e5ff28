import itertools
import json
import math

import pytest

from causalblocks import (
    EpisodeTrace,
    Explanation,
    NoiseModel,
    NullAction,
    PlaceAction,
    SetAction,
    SetActuationNoise,
    SetInitialState,
    SetSensorNoise,
    abduct,
    enumerate_candidates,
    explain,
    explain_with_abduction,
    render_explanation,
    report_to_dict,
    sample_episode,
    score_candidates,
)
from causalblocks.scenarios import cube, two_cube_scenario

from oracles import discrete_noise_values, oracle_stable

ZERO = NoiseModel(0.0, 0.0)


def place_b2(scenario, dx=0.0, dy=0.0):
    return PlaceAction(scenario.pending_blocks[0], dx, dy)


def failing_trace(sigma_s, sigma_a, dx=0.0, dy=0.0):
    sc = two_cube_scenario(sigma_s, sigma_a)
    action = place_b2(sc, dx, dy)
    for seed in range(500):
        t = sample_episode(sc.tower, action, sc.noise, seed)
        if not t.outcome:
            return sc, t
    raise AssertionError("no failing episode found")


# --- enumerate_candidates -------------------------------------------------------


def test_zero_actuation_draw_drops_actuation_candidate():
    sc = two_cube_scenario(0.02, 0.0)  # sigma_a = 0 so factual wa == (0, 0)
    trace = sample_episode(sc.tower, place_b2(sc, 0.01, 0.0), sc.noise, 1)
    kinds = [type(c) for c in enumerate_candidates(trace)]
    assert SetActuationNoise not in kinds
    assert SetSensorNoise in kinds


def test_noisy_failure_yields_four_candidates_in_order():
    sc, trace = failing_trace(0.02, 0.02, dx=0.03)
    candidates = enumerate_candidates(trace)
    assert [type(c) for c in candidates] == [
        SetActuationNoise, SetSensorNoise, SetAction, SetInitialState]
    assert candidates[0].wa == (0.0, 0.0)
    assert candidates[2].action.offset == (0.0, 0.0)


def test_heatmap_best_equal_to_factual_falls_back_to_centered():
    sc, trace = failing_trace(0.02, 0.02, dx=0.03)
    candidates = enumerate_candidates(trace, heatmap_best=trace.action)
    actions = [c.action for c in candidates if isinstance(c, SetAction)]
    assert actions == [place_b2(sc, 0.0, 0.0)]


def test_centered_factual_action_drops_action_candidate():
    sc = two_cube_scenario(0.02, 0.02)
    trace = sample_episode(sc.tower, place_b2(sc, 0.0, 0.0), sc.noise, 1)
    candidates = enumerate_candidates(trace, heatmap_best=trace.action)
    assert not any(isinstance(c, SetAction) for c in candidates)


def test_null_factual_action_without_alternative_has_no_action_candidate():
    sc = two_cube_scenario(0.02, 0.02)
    trace = sample_episode(sc.tower, NullAction(), sc.noise, 1)
    candidates = enumerate_candidates(trace)
    assert not any(isinstance(c, SetAction) for c in candidates)
    with_best = enumerate_candidates(trace, heatmap_best=place_b2(sc))
    assert any(isinstance(c, SetAction) for c in with_best)


def test_exact_sensing_drops_sensor_and_initial_state_candidates():
    sc, trace = failing_trace(0.0, 0.03)
    candidates = enumerate_candidates(trace)
    kinds = [type(c) for c in candidates]
    assert SetSensorNoise not in kinds  # factual ws is exactly zero
    assert SetInitialState not in kinds  # belief equals the true state
    assert kinds[0] is SetActuationNoise


# --- explain ---------------------------------------------------------------------


def test_actuation_caused_failure_blames_actuation():
    sc, trace = failing_trace(0.0, 0.03)
    explanations = explain(trace, sc.noise, 400, 11)
    assert isinstance(explanations[0].target, SetActuationNoise)
    assert explanations[0].pn == 1.0
    assert explanations[0].pns == 1.0


def test_action_caused_failure_blames_action():
    sc, trace = failing_trace(0.0, 0.0, dx=0.06)
    explanations = explain(trace, ZERO, 100, 11)
    assert isinstance(explanations[0].target, SetAction)
    assert explanations[0].pn == 1.0
    assert len(explanations) == 1  # noise and state candidates all dropped


def test_factual_counterfactual_has_zero_pn():
    sc = two_cube_scenario(0.02, 0.02)
    trace = sample_episode(sc.tower, place_b2(sc), sc.noise, 1)
    ab = abduct(trace, sc.noise, 300, 5)
    scored = score_candidates(trace, [SetAction(trace.action)], ab)
    assert scored[0].pn == 0.0
    assert scored[0].pns == 0.0


def test_pns_equals_pn_under_hard_abduction():
    sc, trace = failing_trace(0.02, 0.02, dx=0.02)
    explanations = explain(trace, sc.noise, 400, 3)
    assert explanations
    for e in explanations:
        assert e.pns == e.pn
        assert 0.0 <= e.pns <= 1.0


def test_ranking_sorted_by_pns():
    sc, trace = failing_trace(0.02, 0.02, dx=0.03)
    explanations = explain(trace, sc.noise, 500, 7)
    scores = [e.pns for e in explanations]
    assert scores == sorted(scores, reverse=True)


def test_ranking_invariant_to_candidate_order():
    sc, trace = failing_trace(0.02, 0.02, dx=0.03)
    candidates = enumerate_candidates(trace)
    ab = abduct(trace, sc.noise, 400, 9)
    base = score_candidates(trace, candidates, ab)
    if len({e.pns for e in base}) == len(base):  # tie-free case
        for perm in itertools.permutations(candidates):
            scored = score_candidates(trace, list(perm), ab)
            assert [e.target for e in scored] == [e.target for e in base]


def test_explain_requires_candidates():
    sc = two_cube_scenario(0.0, 0.0)
    trace = sample_episode(sc.tower, place_b2(sc, 0.0, 0.0), ZERO, 1)
    # perfect world: every candidate equals its factual value
    with pytest.raises(Exception):
        explain(trace, ZERO, 50, 1)


def test_explain_abduction_shared_across_candidates():
    sc, trace = failing_trace(0.02, 0.02, dx=0.02)
    explanations, abduction = explain_with_abduction(trace, sc.noise, 300, 5)
    assert all(e.n_samples == abduction.accepted for e in explanations)


def test_deterministic_ranking_matches_bruteforce_flips():
    # noise-free world: every candidate's score is a single deterministic
    # replay, so the ranking can be checked by direct enumeration with the
    # independent stability oracle
    sc = two_cube_scenario(0.0, 0.0)
    bad = place_b2(sc, 0.06, 0.0)
    trace = EpisodeTrace(scenario_id="det", z0=sc.tower, belief=sc.tower,
                         action=bad, outcome=False, noise=ZERO,
                         ground_truth=None)  # external: noise candidates kept
    candidates = enumerate_candidates(trace, heatmap_best=place_b2(sc, 0.01, 0.0))
    assert len(candidates) == 4

    half, mass = 0.05, 0.25

    def replay_stands(action_offset):
        blocks = [(mass, 0.0, 0.0, half, half),
                  (mass, action_offset[0], action_offset[1], half, half)]
        return oracle_stable(blocks, (0.5, 0.5))

    expected_pn = []
    for target in candidates:
        if isinstance(target, SetAction):
            offset = target.action.offset
        else:
            offset = bad.offset  # zero noise: other interventions change nothing
        flips = replay_stands(offset) != trace.outcome
        expected_pn.append(float(flips))

    explanations = explain(trace, ZERO, 50, 3,
                           heatmap_best=place_b2(sc, 0.01, 0.0))
    by_target = {e.target: e.pn for e in explanations}
    for target, pn in zip(candidates, expected_pn):
        assert by_target[target] == pn
    # the only flip-inducing candidate is ranked first
    assert isinstance(explanations[0].target, SetAction)
    assert explanations[0].pn == 1.0
    assert all(e.pn == 0.0 for e in explanations[1:])


# --- rendering ---------------------------------------------------------------------


def make_explanation(target, pn, observed=False, n=2000):
    return Explanation(target=target, factual_summary="", pn=pn, pns=pn,
                       n_samples=n, observed_outcome=observed, text="")


def test_render_perfect_actuation_full_rescue():
    e = make_explanation(SetActuationNoise((0.0, 0.0)), 1.0)
    text = render_explanation(e)
    assert "Had actuation been exact" in text
    assert "100%" in text
    assert "would have stood" in text
    assert "(PN=1.00, N=2000)" in text


def test_render_action_names_offset_in_centimeters():
    e = make_explanation(SetAction(PlaceAction(cube("b2"), 0.0125, -0.04)), 0.5)
    text = render_explanation(e)
    assert "1.25 cm" in text
    assert "-4.00 cm" in text


def test_render_zero_pn_branch():
    e = make_explanation(SetSensorNoise(((0.0, 0.0),)), 0.0)
    text = render_explanation(e)
    assert "would likely have been the same" in text


def test_render_success_trace_flips_to_fallen():
    e = make_explanation(SetActuationNoise((0.05, 0.0)), 0.8, observed=True)
    text = render_explanation(e)
    assert "would have fallen" in text


def test_render_deterministic():
    e = make_explanation(SetInitialState(two_cube_scenario().tower), 0.25)
    assert render_explanation(e) == render_explanation(e)
    # equal explanations in different reports share one sentence object
    twin = make_explanation(SetInitialState(two_cube_scenario().tower), 0.25)
    assert render_explanation(twin) is render_explanation(e)


def test_report_is_json_serializable():
    sc, trace = failing_trace(0.02, 0.02, dx=0.02)
    explanations, abduction = explain_with_abduction(trace, sc.noise, 200, 5)
    doc = report_to_dict(explanations, abduction, trace)
    text = json.dumps(doc)
    parsed = json.loads(text)
    assert parsed["observed_outcome"] is False
    assert 0.0 < parsed["acceptance_rate"] <= 1.0
    assert len(parsed["explanations"]) == len(explanations)
    assert all("text" in e and "target" in e for e in parsed["explanations"])


# --- discretized-noise oracle agreement ----------------------------------------------


def toy_discrete_setup():
    """One 0.1 cube at the origin; place another at offset (0.04, 0) under
    5-point discrete noise. Failure has sizable probability and the
    counterfactual scores are strictly between 0 and 1."""
    noise = NoiseModel(0.015, 0.015, support_points=5)
    sc = two_cube_scenario(0.015, 0.015)
    action = place_b2(sc, 0.04, 0.0)
    trace = EpisodeTrace(scenario_id="toy", z0=sc.tower, belief=sc.tower,
                         action=action, outcome=False, noise=noise,
                         ground_truth=None)
    return sc, noise, trace


def toy_oracle_pns(noise):
    """Exact enumeration of the discrete-noise twin-world scores."""
    values = discrete_noise_values(0.015, 5)
    half = 0.05
    mass = 0.25
    support = (0.5, 0.5)
    offset = (0.04, 0.0)

    def stands(s0_center, new_center):
        blocks = [
            (mass, s0_center[0], s0_center[1], half, half),
            (mass, new_center[0], new_center[1], half, half),
        ]
        return oracle_stable(blocks, support)

    def replay(ws, wa, target=None):
        s0 = (-ws[0], -ws[1])  # z0 is at the origin
        belief_top = (0.0, 0.0)
        act = offset
        if target == "actuation":
            wa = (0.0, 0.0)
        elif target == "sensing":
            belief_top = s0
        elif target == "action":
            act = (0.0, 0.0)
        intended = (belief_top[0] + act[0], belief_top[1] + act[1])
        new = (intended[0] + wa[0], intended[1] + wa[1])
        return stands(s0, new)

    combos = list(itertools.product(values, values, values, values))
    accepted = [(ws_x, ws_y, wa_x, wa_y)
                for ws_x, ws_y, wa_x, wa_y in combos
                if not replay((ws_x, ws_y), (wa_x, wa_y))]
    assert accepted
    out = {}
    for name in ("actuation", "sensing", "action"):
        flips = sum(replay((c[0], c[1]), (c[2], c[3]), target=name)
                    for c in accepted)
        out[name] = flips / len(accepted)
    return out


def test_discrete_twin_world_matches_enumeration():
    sc, noise, trace = toy_discrete_setup()
    exact = toy_oracle_pns(noise)
    ab = abduct(trace, noise, 4000, 19)
    targets = {
        "actuation": SetActuationNoise((0.0, 0.0)),
        "sensing": SetSensorNoise(((0.0, 0.0),)),
        "action": SetAction(place_b2(sc, 0.0, 0.0)),
    }
    scored = score_candidates(trace, list(targets.values()), ab)
    by_type = {name: e for name in targets
               for e in scored if e.target == targets[name]}
    for name, target in targets.items():
        e = by_type[name]
        p = exact[name]
        tol = 3.0 * math.sqrt(p * (1 - p) / ab.accepted) if 0 < p < 1 else 0.0
        assert abs(e.pn - p) <= tol, (name, e.pn, p)
    # the toy is built so at least one score is interior
    assert any(0.0 < p < 1.0 for p in exact.values())
