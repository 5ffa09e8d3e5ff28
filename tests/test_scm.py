import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import causalblocks
import causalblocks.scm as scm_mod
from causalblocks import (
    AbductionFailure,
    EpisodeTrace,
    NoiseModel,
    NullAction,
    PlaceAction,
    SchemaError,
    SetAction,
    SetActuationNoise,
    SetInitialState,
    SetSensorNoise,
    TowerState,
    ValidationError,
    abduct,
    counterfactual_outcomes,
    derive_sample_seed,
    derive_sample_seeds,
    draw_exogenous,
    is_stable,
    load_trace,
    predict_stability,
    replay_ground_truth,
    sample_episode,
    save_trace,
    transition,
)
from causalblocks.scm import draw_exogenous_batch, trace_from_dict, trace_to_dict
from causalblocks.scenarios import cube, column, two_cube_scenario

from oracles import discrete_probability, tower_tuples, two_cube_place_probability

ZERO = NoiseModel(0.0, 0.0)


def place_b2(scenario, dx=0.0, dy=0.0):
    return PlaceAction(scenario.pending_blocks[0], dx, dy)


# --- draws --------------------------------------------------------------------


def test_draw_is_deterministic():
    noise = NoiseModel(0.02, 0.01)
    assert draw_exogenous(99, 3, noise) == draw_exogenous(99, 3, noise)


def test_draw_shapes_and_scaling():
    noise = NoiseModel(0.0, 0.5)
    exo = draw_exogenous(1, 2, noise)
    assert len(exo.ws) == 2
    assert exo.ws == ((0.0, 0.0), (0.0, 0.0))
    assert exo.wa != (0.0, 0.0)


def test_batch_draws_match_scalar():
    noise = NoiseModel(0.013, 0.007)
    seeds = np.array([5, 17, 900], dtype=np.uint64)
    ws, wa = draw_exogenous_batch(seeds, 2, noise)
    for i, s in enumerate(seeds):
        exo = draw_exogenous(int(s), 2, noise)
        assert np.array_equal(ws[i], exo.ws_array())
        assert np.array_equal(wa[i], exo.wa_array())


def test_discrete_draws_come_from_support():
    noise = NoiseModel(0.01, 0.02, support_points=5)
    values_s = set((0.01 * noise.support_grid()).tolist())
    values_a = set((0.02 * noise.support_grid()).tolist())
    for seed in range(50):
        exo = draw_exogenous(seed, 1, noise)
        assert exo.ws[0][0] in values_s and exo.ws[0][1] in values_s
        assert exo.wa[0] in values_a and exo.wa[1] in values_a


# --- the draw stream (contract v3) ---------------------------------------------


def test_stream_outputs_and_indices_are_frozen():
    # SplitMix64 seeded at 1234567; the first five outputs are the standard
    # reference sequence of that generator.
    bits = scm_mod._splitmix64_stream(np.array([1234567], dtype=np.uint64), 6)
    assert bits.tolist() == [[6457827717110365317, 3203168211198807973,
                              9817491932198370423, 4593380528125082431,
                              16408922859458223821, 7804594928223864054]]
    assert scm_mod._support_indices(bits, 5).tolist() == [[1, 0, 2, 1, 4, 2]]
    assert scm_mod._support_indices(bits, 3).tolist() == [[1, 0, 1, 0, 2, 1]]


def test_gaussian_draws_are_frozen():
    # log and tan may round differently on another CPU, hence 4 ulp.
    ws, wa = draw_exogenous_batch(np.array([1234567], dtype=np.uint64), 2,
                                  NoiseModel(1.0, 1.0))
    np.testing.assert_array_max_ulp(
        ws[0], np.array([[0.6687418474759128, 1.2852914518644598],
                         [0.007002816605281466, 1.1231185837046667]]), maxulp=4)
    np.testing.assert_array_max_ulp(
        wa[0], np.array([-0.42845664947665096, 0.22483357415221164]), maxulp=4)


def test_discrete_draws_are_frozen():
    noise = NoiseModel(1.0, 2.0, support_points=5)
    grid = noise.support_grid()
    ws, wa = draw_exogenous_batch(np.array([1234567], dtype=np.uint64), 2, noise)
    assert np.array_equal(ws[0], grid[[[1, 0], [2, 1]]])
    assert np.array_equal(wa[0], 2.0 * grid[[4, 2]])


def test_stream_matches_scalar_splitmix64():
    from causalblocks.core import _MASK64, _SM_GAMMA, _splitmix64

    seeds = np.array([0, 1, 2 ** 63, 2 ** 64 - 1, 11259548218042673773], dtype=np.uint64)
    bits = scm_mod._splitmix64_stream(seeds, 9)
    for i, s in enumerate(seeds.tolist()):
        assert bits[i].tolist() == [_splitmix64((s + j * _SM_GAMMA) & _MASK64)
                                    for j in range(9)]


def test_extreme_bit_patterns_give_finite_normals():
    top = 2 ** 64 - 1
    pole = 2 ** 51 << 12  # m_y = 2^51: u2 = 1/2, where tan(pi u2) is largest
    bits = np.array([[0, 0], [top, top], [0, top], [top, 0], [0, pole]],
                    dtype=np.uint64)
    z = scm_mod._box_muller(bits)
    assert np.all(np.isfinite(z))
    # m = 0 maps to u1 = 2^-53, the largest radius the stream can produce.
    radius = np.sqrt(106 * np.log(2))
    assert z[0, 0] == pytest.approx(radius)
    assert z[4, 0] == pytest.approx(-radius, abs=1e-14)
    assert abs(z[4, 1]) < 1e-14


def _libm_box_muller(bits):
    """Draw contract v2's Box-Muller, with libm cos and sin of 2 pi u2."""
    m = (bits >> np.uint64(12)).astype(np.float64)
    radius = np.sqrt(-2.0 * np.log((m[..., 0] + 0.5) * 2.0 ** -52))
    theta = 2.0 * np.pi * (m[..., 1] * 2.0 ** -52)
    return np.stack((radius * np.cos(theta), radius * np.sin(theta)), axis=-1)


def test_gaussian_draws_match_libm_box_muller():
    # v3 takes the same angle as v2 through tan(pi u2); the identities only
    # move the last bits. Tolerance fixed in advance: 1e-14 per unit normal.
    seeds = derive_sample_seeds(2024, "libm", 200_000)
    bits = scm_mod._splitmix64_stream(seeds, 8).reshape(len(seeds), 4, 2)
    z = scm_mod._box_muller(bits)
    ref = _libm_box_muller(bits)
    assert z.shape == ref.shape == (200_000, 4, 2)
    np.testing.assert_allclose(z, ref, rtol=0.0, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(size=st.integers(min_value=1, max_value=9000),
       start=st.integers(min_value=0, max_value=9000),
       nblocks=st.integers(min_value=0, max_value=4),
       k=st.sampled_from([None, 1, 3, 5]),
       master=st.integers(min_value=0, max_value=2 ** 64 - 1))
def test_batch_slice_equals_slice_of_batch(size, start, nblocks, k, master):
    noise = NoiseModel(0.02, 0.01, support_points=k)
    seeds = derive_sample_seeds(master, "slice", start + size)
    ws_all, wa_all = draw_exogenous_batch(seeds, nblocks, noise)
    ws, wa = draw_exogenous_batch(seeds[start:], nblocks, noise)
    assert np.array_equal(ws, ws_all[start:])
    assert np.array_equal(wa, wa_all[start:])
    exo = draw_exogenous(int(seeds[start]), nblocks, noise)
    assert np.array_equal(exo.ws_array(), ws_all[start])
    assert np.array_equal(exo.wa_array(), wa_all[start])


def _stacked_reference(seeds, nblocks, noise):
    """Draw contract v3 written as the (n, B+1, 2) stack-and-slice formula:
    one row of 2(B+1) stream outputs per seed, rows 0..B-1 sensing, row B
    actuation, Box-Muller through the half-angle tangent t = tan(pi u2)."""
    from causalblocks.core import _SM_GAMMA, _splitmix64_array

    with np.errstate(over="ignore"):
        steps = np.arange(2 * (nblocks + 1), dtype=np.uint64) * np.uint64(_SM_GAMMA)
        bits = _splitmix64_array(seeds[:, None] + steps).reshape(len(seeds), nblocks + 1, 2)
    m = bits >> np.uint64(12)
    if noise.discrete:
        eps = noise.support_grid()[(m * np.uint64(noise.support_points)) >> np.uint64(52)]
    else:
        m = m.astype(np.float64)
        radius = np.sqrt(-2.0 * np.log((m[..., 0] + 0.5) * 2.0 ** -52))
        t = np.tan(np.pi * (m[..., 1] * 2.0 ** -52))
        scale = radius / (1.0 + t * t)
        eps = np.stack((scale * ((1.0 - t) * (1.0 + t)), scale * (2.0 * t)), axis=-1)
    return noise.sigma_s * eps[:, :nblocks, :], noise.sigma_a * eps[:, nblocks, :]


@pytest.mark.parametrize("nblocks", [0, 1, 4, 6])
@pytest.mark.parametrize("k", [None, 5])
def test_draws_match_stacked_reference(nblocks, k):
    noise = NoiseModel(0.013, 0.021, support_points=k)
    # more seeds than one block of worlds, and a ragged last block
    seeds = derive_sample_seeds(77, "stacked", 5000)
    ws, wa = draw_exogenous_batch(seeds, nblocks, noise)
    ref_ws, ref_wa = _stacked_reference(seeds, nblocks, noise)
    assert ws.shape == (5000, nblocks, 2) and wa.shape == (5000, 2)
    assert np.ascontiguousarray(ws).tobytes() == ref_ws.tobytes()
    assert np.ascontiguousarray(wa).tobytes() == np.ascontiguousarray(ref_wa).tobytes()
    # axis-major: every (x or y, block) row runs contiguously over the seeds
    assert ws.strides[0] == wa.strides[0] == 8


@pytest.mark.parametrize("nblocks", [0, 1, 4, 6])
@pytest.mark.parametrize("k", [None, 5])
@pytest.mark.parametrize("actuation", [False, True])
def test_workspace_draws_match_stacked_reference(nblocks, k, actuation):
    # Drawn into a slice of a wider workspace, as prediction draws its last
    # block; without the actuation row, the sensing rows are unchanged.
    noise = NoiseModel(0.013, 0.021, support_points=k)
    n, width, rows = 3000, 3100, nblocks + actuation
    seeds = derive_sample_seeds(78, "stacked", n)
    eps = np.full((2, rows, width), np.nan)
    work = np.zeros((2, 2 * rows, width), dtype=np.uint64)
    ws, wa = draw_exogenous_batch(seeds, nblocks, noise, out=eps[:, :, :n],
                                  work=work[:, :, :n])
    ref_ws, ref_wa = _stacked_reference(seeds, nblocks, noise)
    assert np.ascontiguousarray(ws).tobytes() == ref_ws.tobytes()
    if actuation:
        assert np.ascontiguousarray(wa).tobytes() == np.ascontiguousarray(ref_wa).tobytes()
    else:
        assert wa is None
    assert np.isnan(eps[:, :, n:]).all()


def test_draw_rows_must_fit_the_tower():
    seeds = derive_sample_seeds(1, "rows", 4)
    with pytest.raises(ValueError, match="rows"):
        draw_exogenous_batch(seeds, 2, ZERO, out=np.empty((2, 4, 4)))


def test_scalar_draw_takes_seed_mod_2_64():
    noise = NoiseModel(0.02, 0.01)
    assert draw_exogenous(-1, 2, noise) == draw_exogenous(2 ** 64 - 1, 2, noise)
    assert draw_exogenous(2 ** 64 + 5, 2, noise) == draw_exogenous(5, 2, noise)


def test_draws_do_not_import_scipy():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import causalblocks\n"
        "from causalblocks.scm import draw_exogenous_batch\n"
        "seeds = np.arange(10, dtype=np.uint64)\n"
        "draw_exogenous_batch(seeds, 2, causalblocks.NoiseModel(0.01, 0.01))\n"
        "draw_exogenous_batch(seeds, 2, causalblocks.NoiseModel(0.01, 0.01, support_points=5))\n"
        "print('scipy' in sys.modules)\n"
    )
    src = Path(causalblocks.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


# --- sample_episode -----------------------------------------------------------


def test_zero_noise_episode_belief_equals_truth():
    sc = two_cube_scenario(0.0, 0.0)
    trace = sample_episode(sc.tower, place_b2(sc), ZERO, 3, scenario_id=sc.scenario_id)
    assert trace.belief == sc.tower
    assert trace.z0 == sc.tower
    assert trace.outcome
    assert trace.ground_truth is not None
    assert len(trace.ground_truth.s1) == 2


def test_zero_noise_bad_offset_fails():
    sc = two_cube_scenario(0.0, 0.0)
    trace = sample_episode(sc.tower, place_b2(sc, 0.06, 0.0), ZERO, 3)
    assert not trace.outcome
    assert trace.ground_truth.s1.collapsed


def test_fixed_seed_reproduces_trace():
    sc = two_cube_scenario(0.02, 0.02)
    t1 = sample_episode(sc.tower, place_b2(sc), sc.noise, 7)
    t2 = sample_episode(sc.tower, place_b2(sc), sc.noise, 7)
    assert t1 == t2


def test_replay_ground_truth_reproduces_episode():
    sc = two_cube_scenario(0.02, 0.03)
    for seed in range(20):
        trace = sample_episode(sc.tower, place_b2(sc, 0.01, 0.0), sc.noise, seed)
        result = replay_ground_truth(trace)
        assert result.outcome == trace.outcome
        assert result.s1 == trace.ground_truth.s1


def test_replay_requires_ground_truth():
    sc = two_cube_scenario()
    trace = sample_episode(sc.tower, place_b2(sc), sc.noise, 0)
    from dataclasses import replace
    external = replace(trace, ground_truth=None)
    with pytest.raises(ValidationError):
        replay_ground_truth(external)


# --- single-sample do-queries ---------------------------------------------------
#
# A do-query sample inverts the belief (hypothesized true state = belief - ws)
# and replays the forced action. predict_stability with one sample is that
# draw: its sample 0 uses the seed derive_sample_seed(seed, "predict", 0).


def do_outcome(belief, action, noise, seed):
    return predict_stability(belief, action, noise, 1, seed).p == 1.0


def test_do_sample_zero_noise_equals_transition():
    sc = two_cube_scenario(0.0, 0.0)
    for dx in (0.0, 0.03, 0.06):
        action = place_b2(sc, dx, 0.0)
        assert do_outcome(sc.tower, action, ZERO, 5) == transition(
            sc.tower, action, (0.0, 0.0)).outcome


def test_do_sample_null_ignores_actuation_noise():
    sc = two_cube_scenario(0.0, 5.0)  # absurd actuation noise, zero sensing
    assert do_outcome(sc.tower, NullAction(), sc.noise, 11) == is_stable(sc.tower).stable


def test_do_sample_null_uses_hypothesized_state():
    # with sensing noise, a Null query re-checks stability of belief - ws
    noise = NoiseModel(0.03, 0.0)
    tower = column([cube("a"), cube("b")], [(0.0, 0.0), (0.045, 0.0)])
    outcomes = set()
    for seed in range(20):
        exo = draw_exogenous(derive_sample_seed(seed, "predict", 0), 2, noise)
        s0h = tower.with_centers(tower.centers() - exo.ws_array())
        outcome = do_outcome(tower, NullAction(), noise, seed)
        assert outcome == is_stable(s0h).stable
        outcomes.add(outcome)
    assert outcomes == {True, False}


def test_do_sample_deterministic_per_seed():
    sc = two_cube_scenario(0.02, 0.02)
    outs = [do_outcome(sc.tower, place_b2(sc), sc.noise, 42) for _ in range(5)]
    assert len(set(outs)) == 1


def test_do_sample_mean_approaches_closed_form():
    # sample i draws from derive_sample_seed(4, "mc", i)
    sc = two_cube_scenario(0.02, 0.02)
    n = 20_000
    p_hat = predict_stability(sc.tower, place_b2(sc), sc.noise, n, 4, stream_label="mc").p
    p = two_cube_place_probability(0.0, 0.0, 0.05, 0.02, 0.02)
    assert abs(p_hat - p) <= 3.0 * np.sqrt(p * (1 - p) / n)


def test_exchangeability_zero_sensor_noise():
    # with exact sensing and belief equal to truth, a do-query and a forward
    # episode make identical draws and identical outcomes, seed by seed
    noise = NoiseModel(0.0, 0.025)
    sc = two_cube_scenario()
    action = place_b2(sc, 0.02, 0.0)
    for seed in range(50):
        assert do_outcome(sc.tower, action, noise, seed) == sample_episode(
            sc.tower, action, noise, derive_sample_seed(seed, "predict", 0)).outcome


# --- abduct ---------------------------------------------------------------------


def test_abduct_zero_noise_accepts_everything():
    sc = two_cube_scenario(0.0, 0.0)
    trace = sample_episode(sc.tower, place_b2(sc), ZERO, 1)
    result = abduct(trace, ZERO, 50, 9)
    assert result.acceptance_rate == 1.0
    assert result.accepted == 50
    assert result.attempts == 50
    assert np.all(result.ws_accepted == 0.0)
    assert np.all(result.wa_accepted == 0.0)


def test_abduct_failure_on_inconsistent_trace():
    sc = two_cube_scenario(0.0, 0.0)
    trace = sample_episode(sc.tower, place_b2(sc), ZERO, 1)
    from dataclasses import replace
    impossible = replace(trace, outcome=False)
    with pytest.raises(AbductionFailure) as err:
        abduct(impossible, ZERO, 10, 9)
    assert err.value.attempts == 10_000
    assert err.value.accepted == 0


def test_abduct_respects_attempt_budget_override():
    sc = two_cube_scenario(0.0, 0.0)
    trace = sample_episode(sc.tower, place_b2(sc), ZERO, 1)
    from dataclasses import replace
    impossible = replace(trace, outcome=False)
    with pytest.raises(AbductionFailure) as err:
        abduct(impossible, ZERO, 10, 9, max_attempts=123)
    assert err.value.attempts == 123


def test_abduct_batch_size_independent():
    import causalblocks.scm as scm_mod

    sc = two_cube_scenario(0.02, 0.02)
    trace = sample_episode(sc.tower, place_b2(sc), sc.noise, 3)
    a = abduct(trace, sc.noise, 500, 17)
    old = scm_mod._ABDUCT_CHUNK
    try:
        scm_mod._ABDUCT_CHUNK = 37
        b = abduct(trace, sc.noise, 500, 17)
    finally:
        scm_mod._ABDUCT_CHUNK = old
    assert a.attempts == b.attempts
    assert a.acceptance_rate == b.acceptance_rate
    assert np.array_equal(a.ws_accepted, b.ws_accepted)
    assert np.array_equal(a.wa_accepted, b.wa_accepted)


def test_abduct_samples_replay_to_observed_outcome():
    sc = two_cube_scenario(0.02, 0.02)
    for seed in (1, 2):
        trace = sample_episode(sc.tower, place_b2(sc), sc.noise, seed)
        result = abduct(trace, sc.noise, 100, seed + 100)
        z0c = trace.z0.centers()
        for ws, wa in zip(result.ws_accepted[:25], result.wa_accepted[:25]):
            s0h = trace.z0.with_centers(z0c - ws)
            replayed = transition(s0h, trace.action, tuple(wa.tolist()),
                                  intended_center=(
                                      trace.z0.top_center()[0] + trace.action.offset_x,
                                      trace.z0.top_center()[1] + trace.action.offset_y))
            assert replayed.outcome == trace.outcome


def test_abduct_failure_trace_samples_lie_in_failure_region():
    # observed collapse with a centered placement: every accepted draw must
    # push the block past the footprint edge on at least one axis
    sc = two_cube_scenario(0.02, 0.02)
    trace = None
    for seed in range(200):
        t = sample_episode(sc.tower, place_b2(sc), sc.noise, seed)
        if not t.outcome:
            trace = t
            break
    assert trace is not None
    result = abduct(trace, sc.noise, 200, 5)
    d = result.ws_accepted[:, 0, :] + result.wa_accepted
    assert np.all(np.abs(d).max(axis=1) >= 0.05)


def test_abduct_acceptance_rate_matches_closed_form():
    sc = two_cube_scenario(0.02, 0.02)
    trace = EpisodeTrace(scenario_id="ext", z0=sc.tower, belief=sc.tower,
                         action=place_b2(sc), outcome=True, noise=sc.noise,
                         ground_truth=None)
    n_attempts = 40_000
    result = abduct(trace, sc.noise, n_attempts, 8, max_attempts=n_attempts)
    p = two_cube_place_probability(0.0, 0.0, 0.05, 0.02, 0.02)
    assert result.attempts == n_attempts
    assert abs(result.acceptance_rate - p) <= 3.0 * np.sqrt(p * (1 - p) / n_attempts)


@pytest.mark.parametrize("outcome", [True, False])
@pytest.mark.parametrize("nblocks", [1, 2, 3, 4])
def test_abduct_discrete_acceptance_matches_exact_enumeration(nblocks, outcome):
    # Abduction accepts a world when it replays to the observed outcome, so
    # its acceptance rate estimates P(outcome). Under 3-point noise that is
    # enumerated exactly: the true tower z0 - ws and the block landing at
    # z0's top + offset + wa.
    k, sigma_s, sigma_a = 3, 0.03, 0.02
    noise = NoiseModel(sigma_s, sigma_a, support_points=k)
    z0 = column([cube(f"b{i}") for i in range(nblocks)],
                [(0.01 * i, -0.005 * i) for i in range(nblocks)])
    new_block = cube("n")
    trace = EpisodeTrace(scenario_id="ext", z0=z0, belief=z0,
                         action=PlaceAction(new_block, 0.02, -0.01), outcome=outcome,
                         noise=noise, ground_truth=None)
    n_attempts = 20_000
    result = abduct(trace, noise, n_attempts, 31 + nblocks, max_attempts=n_attempts)
    tx, ty = z0.top_center()
    hx, hy = new_block.half_extents
    rows = tower_tuples(z0) + [(new_block.mass, tx + 0.02, ty - 0.01, hx, hy)]
    p = discrete_probability(rows, z0.support_half_extents,
                             [-sigma_s] * nblocks + [sigma_a], k)
    if not outcome:
        p = 1.0 - p
    assert 0.0 < p < 1.0
    assert result.attempts == n_attempts
    assert abs(result.acceptance_rate - p) <= 4.5 * math.sqrt(p * (1 - p) / n_attempts), p


def test_abduct_belief_inversion_exact():
    sc = two_cube_scenario(0.02, 0.02)
    trace = sample_episode(sc.tower, place_b2(sc), sc.noise, 2)
    result = abduct(trace, sc.noise, 200, 3)
    s0h = trace.z0.centers()[None, :, :] - result.ws_accepted
    assert np.array_equal(s0h + result.ws_accepted,
                          np.broadcast_to(trace.z0.centers(), s0h.shape))


def test_kernel_callers_pass_axis_major_worlds(monkeypatch):
    # abduction and replay hand the kernel poses whose planes
    # transpose(2, 1, 0) are C-contiguous, and predict hands the criterion
    # planes whose rows are contiguous, so it reads each row in one run
    import causalblocks.inference as inference_mod
    from causalblocks import physics

    contiguous = []

    def recording(s0_centers, belief_top, action, wa, base):
        contiguous.append(s0_centers.transpose(2, 1, 0).flags.c_contiguous)
        return physics.outcome_mask(s0_centers, belief_top, action, wa, base)

    def recording_criterion(planes, *args, **kwargs):
        contiguous.append(planes.strides[-1] == planes.itemsize)
        return physics._criterion(planes, *args, **kwargs)

    monkeypatch.setattr(inference_mod, "_criterion", recording_criterion)
    monkeypatch.setattr(scm_mod, "outcome_mask", recording)
    sc = two_cube_scenario(0.02, 0.02)
    for action in (NullAction(), place_b2(sc, 0.03)):
        predict_stability(sc.tower, action, sc.noise, 3000, 5)
    trace = sample_episode(sc.tower, place_b2(sc, 0.04), sc.noise, 3)
    abduction = abduct(trace, sc.noise, 500, 9)
    for target in (SetAction(place_b2(sc)), SetActuationNoise((0.0, 0.0)),
                   SetSensorNoise(((0.0, 0.0),))):
        counterfactual_outcomes(trace, target, abduction)
    assert len(contiguous) >= 6 and all(contiguous)


def test_abduct_rejects_bad_arguments():
    sc = two_cube_scenario()
    trace = sample_episode(sc.tower, place_b2(sc), sc.noise, 0)
    with pytest.raises(ValidationError):
        abduct(trace, sc.noise, 0, 1)


# --- counterfactual_outcomes -----------------------------------------------------


def failing_trace(sigma_s, sigma_a, dx=0.0, dy=0.0):
    sc = two_cube_scenario(sigma_s, sigma_a)
    action = place_b2(sc, dx, dy)
    for seed in range(500):
        t = sample_episode(sc.tower, action, sc.noise, seed)
        if not t.outcome:
            return sc, t
    raise AssertionError("no failing episode found")


def test_factual_action_reproduces_outcome_exactly():
    sc = two_cube_scenario(0.02, 0.02)
    for seed in range(4):
        trace = sample_episode(sc.tower, place_b2(sc), sc.noise, seed)
        ab = abduct(trace, sc.noise, 300, seed + 50)
        cf = counterfactual_outcomes(trace, SetAction(trace.action), ab)
        assert np.all(cf == trace.outcome)


def test_perfect_actuation_rescues_actuation_caused_failure():
    sc, trace = failing_trace(0.0, 0.03)
    ab = abduct(trace, sc.noise, 300, 7)
    cf = counterfactual_outcomes(trace, SetActuationNoise((0.0, 0.0)), ab)
    assert np.all(cf)


def test_centered_action_rescues_action_caused_failure():
    sc, trace = failing_trace(0.0, 0.0, dx=0.06)
    ab = abduct(trace, ZERO, 100, 7)
    cf = counterfactual_outcomes(trace, SetAction(place_b2(sc, 0.0, 0.0)), ab)
    assert np.all(cf)


def test_perfect_sensing_rescues_sensing_caused_failure():
    sc, trace = failing_trace(0.03, 0.0)
    ab = abduct(trace, sc.noise, 300, 7)
    cf = counterfactual_outcomes(trace, SetSensorNoise(((0.0, 0.0),)), ab)
    assert np.all(cf)


def test_initial_state_intervention_uses_given_tower():
    # force a true state that overhangs its table too far to stand at all;
    # the forced tower's own support extents must be honored
    sc = two_cube_scenario(0.0, 0.0)
    trace = sample_episode(sc.tower, NullAction(), ZERO, 1)
    assert trace.outcome
    ab = abduct(trace, ZERO, 20, 2)
    overhang = TowerState(blocks=sc.tower.blocks,
                          support_half_extents=(0.06, 0.06)).with_centers(
        np.array([[0.07, 0.0]]))
    assert not is_stable(overhang).stable
    cf = counterfactual_outcomes(trace, SetInitialState(overhang), ab)
    assert not np.any(cf)


def test_initial_state_intervention_rederives_belief():
    # with exact sensing, forcing a shifted-but-stable true state also
    # shifts the belief, so a centered placement still lands correctly
    sc = two_cube_scenario(0.0, 0.0)
    trace = sample_episode(sc.tower, place_b2(sc), ZERO, 1)
    ab = abduct(trace, ZERO, 20, 2)
    shifted = sc.tower.with_centers(np.array([[0.08, 0.0]]))
    cf = counterfactual_outcomes(trace, SetInitialState(shifted), ab)
    assert np.all(cf)


def test_initial_state_intervention_adds_the_sensing_error_to_the_belief():
    # One abducted world, built by hand: sensing error ws = (+0.04, 0) and
    # wa = 0. Forcing the true cube to the origin makes the belief read it
    # at 0 + 0.04, so Place (0.03, 0) aims at and lands on 0.07, past the
    # cube's 0.05 half width: it falls. With the sign of ws flipped it
    # would land at -0.01 and stand.
    sc = two_cube_scenario(0.0, 0.0)
    trace = sample_episode(sc.tower, place_b2(sc, 0.03, 0.0), ZERO, 1)
    world = scm_mod.AbductionResult(
        ws_accepted=np.array([[[0.04, 0.0]]]), wa_accepted=np.zeros((1, 2)),
        acceptance_rate=1.0, requested=1, accepted=1, attempts=1)
    at_origin = sc.tower.with_centers(np.zeros((1, 2)))
    cf = counterfactual_outcomes(trace, SetInitialState(at_origin), world)
    assert cf.tolist() == [False]


def test_null_counterfactual_checks_initial_stability():
    sc, trace = failing_trace(0.0, 0.03)
    ab = abduct(trace, sc.noise, 100, 3)
    cf = counterfactual_outcomes(trace, SetAction(NullAction()), ab)
    assert np.all(cf)  # the single-cube tower itself is stable


def test_empty_tower_pipeline():
    # first block placed on a bare table: sampling, abduction, and
    # counterfactuals must all handle the zero-block observation
    empty = TowerState(blocks=(), support_half_extents=(0.04, 0.04))
    noise = NoiseModel(0.0, 0.02)
    action = PlaceAction(cube("first"), 0.0, 0.0)
    trace = sample_episode(empty, action, noise, 12)
    ab = abduct(trace, noise, 100, 13)
    cf = counterfactual_outcomes(trace, SetAction(trace.action), ab)
    assert np.all(cf == trace.outcome)
    rescued = counterfactual_outcomes(trace, SetActuationNoise((0.0, 0.0)), ab)
    assert np.all(rescued)  # centered placement on the table always stands
    sensor = counterfactual_outcomes(trace, SetSensorNoise(()), ab)
    assert np.all(sensor == trace.outcome)  # no blocks to sense


def test_dimension_mismatch_rejected():
    sc = two_cube_scenario(0.02, 0.02)
    trace = sample_episode(sc.tower, place_b2(sc), sc.noise, 0)
    ab = abduct(trace, sc.noise, 50, 1)
    with pytest.raises(ValidationError):
        counterfactual_outcomes(trace, SetSensorNoise(((0, 0), (0, 0))), ab)
    two = column([cube("x"), cube("y")], [(0, 0), (0, 0)])
    with pytest.raises(ValidationError):
        counterfactual_outcomes(trace, SetInitialState(two), ab)


# --- trace files ------------------------------------------------------------------


def test_trace_round_trip(tmp_path):
    sc = two_cube_scenario(0.02, 0.02)
    trace = sample_episode(sc.tower, place_b2(sc, 0.01, -0.02), sc.noise, 5,
                           scenario_id=sc.scenario_id)
    path = tmp_path / "trace.json"
    save_trace(trace, path)
    assert load_trace(path) == trace


def test_loaded_traces_share_block_specs(tmp_path):
    sc = two_cube_scenario(0.02, 0.02)
    trace = sample_episode(sc.tower, place_b2(sc, 0.01, 0.0), sc.noise, 5)
    path = tmp_path / "trace.json"
    save_trace(trace, path)
    first, second = load_trace(path), load_trace(path)
    assert first == trace == second
    gt = first.ground_truth
    towers = (first.z0, first.belief, gt.s0, gt.s1, second.z0, second.ground_truth.s0)
    for k in range(len(trace.z0)):
        assert len({id(t.blocks[k].spec) for t in towers}) == 1
    assert gt.s1.blocks[-1].spec is first.action.spec is second.action.spec


def test_external_trace_round_trip(tmp_path):
    sc = two_cube_scenario(0.02, 0.02)
    trace = EpisodeTrace(scenario_id="ext", z0=sc.tower, belief=sc.tower,
                         action=NullAction(), outcome=True, noise=sc.noise,
                         ground_truth=None)
    path = tmp_path / "trace.json"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded == trace
    assert loaded.ground_truth is None


def test_trace_rejects_unknown_fields():
    sc = two_cube_scenario()
    trace = sample_episode(sc.tower, place_b2(sc), sc.noise, 0)
    doc = trace_to_dict(trace)
    doc["oops"] = 1
    with pytest.raises(SchemaError):
        trace_from_dict(doc)

    doc = trace_to_dict(trace)
    doc["action"]["speed"] = 2.0
    with pytest.raises(SchemaError):
        trace_from_dict(doc)


def test_trace_rejects_mismatched_noise_length():
    sc = two_cube_scenario()
    trace = sample_episode(sc.tower, place_b2(sc), sc.noise, 0)
    doc = trace_to_dict(trace)
    doc["ground_truth"]["exo"]["ws"].append([0.0, 0.0])
    with pytest.raises(SchemaError):
        trace_from_dict(doc)


def test_byte_identical_trace_files(tmp_path):
    sc = two_cube_scenario(0.02, 0.02)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_trace(sample_episode(sc.tower, place_b2(sc), sc.noise, 4), p1)
    save_trace(sample_episode(sc.tower, place_b2(sc), sc.noise, 4), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_discrete_trace_round_trip(tmp_path):
    sc = two_cube_scenario(0.015, 0.015)
    noise = NoiseModel(0.015, 0.015, support_points=5)
    trace = sample_episode(sc.tower, place_b2(sc, 0.04, 0.0), noise, 5)
    assert trace_to_dict(trace)["noise"]["support_points"] == 5
    path = tmp_path / "trace.json"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded == trace
    assert loaded.noise.support_points == 5


def test_gaussian_trace_omits_support_points():
    sc = two_cube_scenario(0.02, 0.02)
    trace = sample_episode(sc.tower, place_b2(sc), sc.noise, 0)
    assert trace_to_dict(trace)["noise"] == {"sigma_s": 0.02, "sigma_a": 0.02}


@pytest.mark.parametrize("bad", [True, 2.0, "5", 0, -3, None])
def test_trace_rejects_bad_support_points(bad):
    sc = two_cube_scenario()
    doc = trace_to_dict(sample_episode(sc.tower, place_b2(sc), sc.noise, 0))
    doc["noise"]["support_points"] = bad
    with pytest.raises(SchemaError):
        trace_from_dict(doc)
