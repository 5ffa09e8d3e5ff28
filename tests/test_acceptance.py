"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Every tolerance is fixed here; nothing is calibrated after the fact.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np

from causalblocks import (
    BlockSpec,
    EpisodeTrace,
    NoiseModel,
    NullAction,
    PlaceAction,
    PlacedBlock,
    SetAction,
    StabilityHeatmap,
    TowerState,
    abduct,
    candidate_grid,
    counterfactual_outcomes,
    explain,
    is_stable,
    predict_stability,
    sample_episode,
    select_action,
    stability_heatmap,
)
from causalblocks.cli import main
from causalblocks.scenarios import cube, column, random_scenario, two_cube_scenario

from oracles import (
    discrete_noise_values,
    oracle_stable,
    tower_tuples,
    two_cube_place_probability,
)

ZERO = NoiseModel(0.0, 0.0)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({desc}): FAIL")
        raise
    print(f"criterion {num} ({desc}): PASS")


def place_b2(scenario, dx=0.0, dy=0.0):
    return PlaceAction(scenario.pending_blocks[0], dx, dy)


# -----------------------------------------------------------------------------
# 1. Physics oracle equivalence
# -----------------------------------------------------------------------------
#
# Exhaustive sweep of equal-cube towers with centers on a 9-point grid per
# axis. Cube size, grid pitch, mass, and table extents are all exact binary
# fractions, so the library and the independent brute-force checker compute
# identical real numbers and must agree exactly, boundary ties included.

CUBE_SIZE = 0.125
GRID_9 = [i * 0.03125 for i in range(-4, 5)]
SMALL_TABLE = (0.09375, 0.09375)
BIG_TABLE = (0.5, 0.5)


def _enumerate_configurations():
    # 1 block, both axes swept, small table (overhang cases): 81
    for x in GRID_9:
        for y in GRID_9:
            yield SMALL_TABLE, [(x, y)]
    # 2 blocks: base swept in x, top swept in both axes, small table: 729
    for x0 in GRID_9:
        for x1 in GRID_9:
            for y1 in GRID_9:
                yield SMALL_TABLE, [(x0, 0.0), (x1, y1)]
    # 3 blocks: middle and top swept in both axes, big table: 6561
    for x1 in GRID_9:
        for y1 in GRID_9:
            for x2 in GRID_9:
                for y2 in GRID_9:
                    yield BIG_TABLE, [(0.0, 0.0), (x1, y1), (x2, y2)]
    # 4 blocks: three upper blocks swept along x, big table: 729
    for x1 in GRID_9:
        for x2 in GRID_9:
            for x3 in GRID_9:
                yield BIG_TABLE, [(0.0, 0.0), (x1, 0.0), (x2, 0.0), (x3, 0.0)]


def test_criterion_1_physics_oracle_equivalence():
    with criterion(1, "physics oracle equivalence"):
        specs = [cube(f"c{i}", size=CUBE_SIZE, mass=0.25) for i in range(4)]
        start = time.perf_counter()
        checked = 0
        for support, centers in _enumerate_configurations():
            blocks = tuple(
                PlacedBlock(specs[i], cx, cy)
                for i, (cx, cy) in enumerate(centers)
            )
            tower = TowerState(blocks, support_half_extents=support)
            lib = is_stable(tower).stable
            ref = oracle_stable(tower_tuples(tower), support)
            assert lib == ref, (support, centers)
            checked += 1
        elapsed = time.perf_counter() - start
        assert checked == 81 + 729 + 6561 + 729
        assert elapsed < 10.0, f"enumeration took {elapsed:.1f}s"


# -----------------------------------------------------------------------------
# 2. Closed-form stability probability
# -----------------------------------------------------------------------------
#
# Placing one 0.1 m cube on another under sigma_s = sigma_a = 0.02: per axis
# the block's displacement is one sensing draw plus one actuation draw, so
# the per-axis survive probability is 2*Phi(0.05/(0.02*sqrt(2))) - 1 ~ 0.9229,
# and with i.i.d. noise on both axes the tower survives with the product of
# the two, ~ 0.8517. The Monte-Carlo estimate must match the closed form
# within three standard errors at n = 100,000. A depth-stretched variant
# (1 m deep blocks) removes the y-axis constraint and must match the
# per-axis value on its own.

P_AXIS = 0.9229001282564584
P_RECT = P_AXIS * P_AXIS


def test_criterion_2_closed_form_probability():
    with criterion(2, "closed-form stability probability"):
        oracle = two_cube_place_probability(0.0, 0.0, 0.05, 0.02, 0.02)
        assert abs(oracle - P_RECT) < 1e-12

        sc = two_cube_scenario(0.02, 0.02)
        start = time.perf_counter()
        est = predict_stability(sc.tower, place_b2(sc), sc.noise, 100_000, 20_240)
        elapsed = time.perf_counter() - start
        assert abs(est.p - oracle) <= 3.0 * est.stderr, (est.p, oracle)
        assert elapsed < 5.0, f"estimate took {elapsed:.1f}s"

        # depth-stretched variant: only the x axis can fail
        deep_base = BlockSpec("b1", width=0.1, depth=1.0, height=0.1, mass=0.25)
        deep_new = BlockSpec("b2", width=0.1, depth=1.0, height=0.1, mass=0.25)
        tower = column([deep_base], [(0.0, 0.0)], support_half_extents=(2.0, 2.0))
        est1d = predict_stability(tower, PlaceAction(deep_new, 0.0, 0.0),
                                  NoiseModel(0.02, 0.02), 100_000, 20_242)
        assert abs(est1d.p - P_AXIS) <= 3.0 * est1d.stderr, (est1d.p, P_AXIS)


# -----------------------------------------------------------------------------
# 3. NULL-action consistency
# -----------------------------------------------------------------------------


def test_criterion_3_null_action_consistency():
    with criterion(3, "NULL-action consistency"):
        verdicts = set()
        for k in range(50):
            sc = random_scenario(k)
            stable = is_stable(sc.tower).stable
            est = predict_stability(sc.tower, NullAction(), ZERO, 16, k)
            assert est.p in (0.0, 1.0)
            assert est.p == float(stable)
            verdicts.add(stable)
        assert verdicts == {True, False}, "suite must cover both verdicts"


# -----------------------------------------------------------------------------
# 4. Heatmap properties
# -----------------------------------------------------------------------------


def test_criterion_4a_zero_noise_heatmap_exact():
    with criterion(4, "a: zero-noise heatmap matches analytic region"):
        sc = two_cube_scenario(0.0, 0.0)
        block = sc.pending_blocks[0]
        grid = candidate_grid(sc.tower, block, 9, 9)
        hm = stability_heatmap(sc.tower, block, grid, ZERO, 16, 4, dims=(9, 9))
        for (ox, oy), p in zip(hm.offsets, hm.probabilities):
            expected = 1.0 if (abs(ox) < 0.05 and abs(oy) < 0.05) else 0.0
            assert p == expected, (ox, oy, p)


def _noisy_heatmap(seed, n_per_cell=1500):
    sc = two_cube_scenario(0.02, 0.02)
    block = sc.pending_blocks[0]
    grid = candidate_grid(sc.tower, block, 9, 9)
    hm = stability_heatmap(sc.tower, block, grid, sc.noise, n_per_cell, seed,
                           dims=(9, 9))
    pg = hm.prob_grid()
    se = np.array(hm.stderr).reshape(9, 9)
    return pg, se


def test_criterion_4b_mirror_symmetry():
    with criterion(4, "b: x/y mirror symmetry within 3 sigma"):
        pg, se = _noisy_heatmap(41)
        for axis in (0, 1):
            mirrored = np.flip(pg, axis=axis)
            se_m = np.flip(se, axis=axis)
            tol = 3.0 * np.sqrt(se ** 2 + se_m ** 2)
            assert np.all(np.abs(pg - mirrored) <= tol)


def test_criterion_4c_center_dominates_edges():
    with criterion(4, "c: center cell is at least every edge cell"):
        pg, se = _noisy_heatmap(43)
        center_p, center_se = pg[4, 4], se[4, 4]
        for ix in range(9):
            for iy in range(9):
                if ix in (0, 8) or iy in (0, 8):
                    tol = 3.0 * math.sqrt(center_se ** 2 + se[ix, iy] ** 2)
                    assert center_p >= pg[ix, iy] - tol


def test_criterion_4d_byte_identical_csv(tmp_path):
    with criterion(4, "d: byte-identical CSV across reruns"):
        from causalblocks import save_scenario

        scen_path = tmp_path / "scenario.json"
        save_scenario(two_cube_scenario(0.015, 0.02), scen_path)
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.csv"
            code = main(["heatmap", "--scenario", str(scen_path), "--block", "b2",
                         "--grid", "9x1", "--n", "200", "--seed", "77",
                         "--out", str(out)])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


# -----------------------------------------------------------------------------
# 5. Action selection
# -----------------------------------------------------------------------------


def test_criterion_5_action_selection():
    with criterion(5, "action selection"):
        sc = two_cube_scenario(0.0, 0.0)
        block = sc.pending_blocks[0]
        grid = candidate_grid(sc.tower, block, 9, 9)
        hm = stability_heatmap(sc.tower, block, grid, ZERO, 16, 6, dims=(9, 9))
        result = select_action(hm, sc.tower, block, ZERO, 0.5, 64, 6)
        assert result.action.offset == (0.0, 0.0)
        assert result.expected_p == 1.0
        assert result.admissible_count == 49

        # empty admissible set: argmax with lexicographic tie-break
        fixture = StabilityHeatmap(
            dims=(4, 1),
            probabilities=(0.7, 0.7, 0.2, 0.7),
            stderr=(0.0, 0.0, 0.0, 0.0),
            offsets=((0.0125, -0.1), (-0.0125, 0.0), (0.0, 0.0), (-0.0125, -0.2)))
        fallback = select_action(fixture, sc.tower, block, ZERO, 1.01, 16, 6)
        assert fallback.fallback
        assert fallback.action.offset == (-0.0125, -0.2)
        assert fallback.expected_p == 0.7


# -----------------------------------------------------------------------------
# 6. Counterfactual consistency axiom
# -----------------------------------------------------------------------------


def test_criterion_6_counterfactual_consistency():
    with criterion(6, "counterfactual consistency axiom"):
        rng = np.random.default_rng(60)
        outcomes_seen = set()
        for k in range(30):
            sc = random_scenario(k, sigma_s=0.008, sigma_a=0.012)
            if k % 3 == 0:
                action = NullAction()
            else:
                spec = sc.pending_blocks[0]
                action = PlaceAction(spec, float(rng.uniform(-0.02, 0.02)),
                                     float(rng.uniform(-0.02, 0.02)))
            trace = sample_episode(sc.tower, action, sc.noise, 600 + k,
                                   scenario_id=sc.scenario_id)
            outcomes_seen.add(trace.outcome)
            ab = abduct(trace, sc.noise, 150, 900 + k, max_attempts=100_000)
            cf = counterfactual_outcomes(trace, SetAction(trace.action), ab)
            assert cf.shape == (ab.accepted,)
            assert np.all(cf == trace.outcome)
        assert outcomes_seen == {True, False}, "suite must cover both outcomes"


# -----------------------------------------------------------------------------
# 7. Counterfactual oracle agreement
# -----------------------------------------------------------------------------


def _toy_exact_pns():
    """Exact twin-world scores for the discrete-noise toy by enumerating
    all 5^4 noise combinations (one block sensed, one placed)."""
    values = discrete_noise_values(0.015, 5)
    half, mass, support, offset = 0.05, 0.25, (0.5, 0.5), (0.04, 0.0)

    def stands(s0c, newc):
        return oracle_stable(
            [(mass, s0c[0], s0c[1], half, half),
             (mass, newc[0], newc[1], half, half)], support)

    def replay(ws, wa, target=None):
        s0 = (-ws[0], -ws[1])
        belief_top = (0.0, 0.0)
        act = offset
        if target == "actuation":
            wa = (0.0, 0.0)
        elif target == "sensing":
            belief_top = s0
        elif target == "action":
            act = (0.0, 0.0)
        intended = (belief_top[0] + act[0], belief_top[1] + act[1])
        return stands(s0, (intended[0] + wa[0], intended[1] + wa[1]))

    combos = list(itertools.product(values, repeat=4))
    accepted = [c for c in combos if not replay((c[0], c[1]), (c[2], c[3]))]
    exact = {}
    for name in ("actuation", "sensing", "action"):
        flips = sum(replay((c[0], c[1]), (c[2], c[3]), target=name)
                    for c in accepted)
        exact[name] = flips / len(accepted)
    return exact


def test_criterion_7_counterfactual_oracle_agreement():
    with criterion(7, "counterfactual oracle agreement"):
        from causalblocks import SetActuationNoise, SetSensorNoise
        from causalblocks.explain import score_candidates

        noise = NoiseModel(0.015, 0.015, support_points=5)
        sc = two_cube_scenario(0.015, 0.015)
        trace = EpisodeTrace(scenario_id="toy", z0=sc.tower, belief=sc.tower,
                             action=place_b2(sc, 0.04, 0.0), outcome=False,
                             noise=noise, ground_truth=None)
        exact = _toy_exact_pns()
        assert any(0.0 < p < 1.0 for p in exact.values())

        ab = abduct(trace, noise, 20_000, 70)
        assert ab.accepted == 20_000
        targets = {
            "actuation": SetActuationNoise((0.0, 0.0)),
            "sensing": SetSensorNoise(((0.0, 0.0),)),
            "action": SetAction(place_b2(sc, 0.0, 0.0)),
        }
        scored = {e.target: e for e in
                  score_candidates(trace, list(targets.values()), ab)}
        for name, target in targets.items():
            p = exact[name]
            pn_hat = scored[target].pn
            if 0.0 < p < 1.0:
                tol = 3.0 * math.sqrt(p * (1.0 - p) / ab.accepted)
                assert abs(pn_hat - p) <= tol, (name, pn_hat, p)
            else:
                assert pn_hat == p, (name, pn_hat, p)

        # deterministic failure: the flipped variable is ranked first, exactly
        det_sc = two_cube_scenario(0.0, 0.0)
        det_trace = sample_episode(det_sc.tower, place_b2(det_sc, 0.06, 0.0),
                                   ZERO, 1)
        assert not det_trace.outcome
        ranked = explain(det_trace, ZERO, 200, 71)
        assert isinstance(ranked[0].target, SetAction)
        assert ranked[0].pn == 1.0
        assert ranked[0].pns == 1.0


# -----------------------------------------------------------------------------
# 8. Abduction acceptance rate
# -----------------------------------------------------------------------------


def test_criterion_8_abduction_acceptance_rate():
    with criterion(8, "abduction acceptance rate matches closed form"):
        sc = two_cube_scenario(0.02, 0.02)
        trace = EpisodeTrace(scenario_id="ext", z0=sc.tower, belief=sc.tower,
                             action=place_b2(sc), outcome=True, noise=sc.noise,
                             ground_truth=None)
        attempts = 100_000
        result = abduct(trace, sc.noise, attempts, 80, max_attempts=attempts)
        assert result.attempts == attempts
        p = two_cube_place_probability(0.0, 0.0, 0.05, 0.02, 0.02)
        tol = 3.0 * math.sqrt(p * (1.0 - p) / attempts)
        assert abs(result.acceptance_rate - p) <= tol, (result.acceptance_rate, p)
