import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalblocks import (
    BlockSpec,
    NoiseModel,
    NullAction,
    PlaceAction,
    StabilityHeatmap,
    TowerState,
    ValidationError,
    candidate_grid,
    derive_sample_seed,
    derive_sample_seeds,
    draw_exogenous,
    heatmap_to_csv,
    heatmap_to_pgm,
    predict_stability,
    select_action,
    stability_heatmap,
    transition,
)
from causalblocks.physics import stability_mask
from causalblocks.scm import draw_exogenous_batch
from causalblocks.scenarios import cube, column, random_scenario, two_cube_scenario

ZERO = NoiseModel(0.0, 0.0)

from oracles import discrete_probability, tower_tuples, two_cube_place_probability


def place_b2(scenario, dx=0.0, dy=0.0):
    return PlaceAction(scenario.pending_blocks[0], dx, dy)


# --- predict_stability ---------------------------------------------------------


def test_zero_noise_null_prediction_is_exact():
    sc = two_cube_scenario(0.0, 0.0)
    est = predict_stability(sc.tower, NullAction(), ZERO, 100, 1)
    assert est.p == 1.0
    assert est.stderr == 0.0

    leaning = column([cube("a"), cube("b")], [(0.0, 0.0), (0.07, 0.0)])
    est = predict_stability(leaning, NullAction(), ZERO, 100, 1)
    assert est.p == 0.0
    assert est.stderr == 0.0


def do_sample(belief, action, noise, seed):
    """One do-query outcome of a Place action: the hypothesized true state
    is belief - ws, and the placement aims from the believed top block."""
    exo = draw_exogenous(seed, len(belief), noise)
    s0h = belief.with_centers(belief.centers() - exo.ws_array())
    bx, by = belief.top_center()
    return transition(s0h, action, exo.wa,
                      intended_center=(bx + action.offset_x, by + action.offset_y)).outcome


def test_prediction_matches_per_sample_draws_exactly():
    sc = two_cube_scenario(0.02, 0.015)
    action = place_b2(sc, 0.01, -0.01)
    n = 400
    est = predict_stability(sc.tower, action, sc.noise, n, 9)
    outcomes = [do_sample(sc.tower, action, sc.noise,
                          derive_sample_seed(9, "predict", i)) for i in range(n)]
    assert est.p == np.mean(outcomes)


def test_prediction_matches_closed_form():
    sc = two_cube_scenario(0.02, 0.02)
    est = predict_stability(sc.tower, place_b2(sc), sc.noise, 30_000, 42)
    p = two_cube_place_probability(0.0, 0.0, 0.05, 0.02, 0.02)
    assert abs(est.p - p) <= 3.0 * est.stderr


def test_prediction_offset_matches_closed_form():
    sc = two_cube_scenario(0.02, 0.02)
    est = predict_stability(sc.tower, place_b2(sc, 0.05, 0.0), sc.noise, 30_000, 43)
    p = two_cube_place_probability(0.05, 0.0, 0.05, 0.02, 0.02)
    assert abs(est.p - p) <= 3.0 * est.stderr


def test_prediction_requires_samples():
    sc = two_cube_scenario()
    with pytest.raises(ValidationError):
        predict_stability(sc.tower, NullAction(), sc.noise, 0, 1)


def test_single_sample_prediction_has_zero_stderr():
    sc = two_cube_scenario(0.02, 0.02)
    est = predict_stability(sc.tower, place_b2(sc), sc.noise, 1, 5)
    assert est.p in (0.0, 1.0)
    assert est.stderr == 0.0


def test_prediction_reproducible():
    sc = two_cube_scenario(0.02, 0.02)
    a = predict_stability(sc.tower, place_b2(sc), sc.noise, 5000, 7)
    b = predict_stability(sc.tower, place_b2(sc), sc.noise, 5000, 7)
    assert a == b


@pytest.mark.parametrize("noise", [NoiseModel(0.02, 0.015),
                                   NoiseModel(0.02, 0.015, support_points=5)])
def test_prediction_independent_of_chunk_size(noise, monkeypatch):
    import causalblocks.inference as inference_mod

    sc = two_cube_scenario(0.02, 0.015)
    action = place_b2(sc, 0.03, -0.01)
    n = 9000
    single = predict_stability(sc.tower, action, noise, n, 11)
    per_world = inference_mod._bytes_per_world(len(sc.tower) + 1)
    for block in (1, 7, 8192):
        # a workspace budget that holds exactly ``block`` worlds
        monkeypatch.setattr(inference_mod, "_WORKSPACE_BYTES", block * per_world)
        est = predict_stability(sc.tower, action, noise, n, 11)
        assert (est.p, est.stderr) == (single.p, single.stderr)
    assert 0.0 < single.p < 1.0


def test_equal_counts_share_the_estimate_floats():
    sc = two_cube_scenario(0.0, 0.0)
    block = sc.pending_blocks[0]
    grid = candidate_grid(sc.tower, block, 9, 1)
    hm = stability_heatmap(sc.tower, block, grid, ZERO, 40, 3, dims=(9, 1))
    inside = [i for i, (ox, _) in enumerate(grid) if abs(ox) < 0.05]
    assert len(inside) == 7 and hm.probabilities[0] == hm.probabilities[-1] == 0.0
    for a in inside:
        assert hm.probabilities[a] is hm.probabilities[inside[0]]
        assert hm.stderr[a] is hm.stderr[inside[0]]
    assert hm.probabilities[0] is hm.probabilities[-1]
    est = predict_stability(sc.tower, PlaceAction(block, 0.0, 0.0), ZERO, 40, 5)
    assert est.p is hm.probabilities[inside[0]] and est.stderr is hm.stderr[inside[0]]

    noisy = NoiseModel(0.02, 0.02)
    for n, seed in ((7, 1), (999, 2), (1000, 3)):
        first = predict_stability(sc.tower, PlaceAction(block, 0.03, 0.0), noisy, n, seed)
        again = predict_stability(sc.tower, PlaceAction(block, -0.01, 0.02), noisy, n,
                                  seed + 10)
        assert first.stderr == math.sqrt(first.p * (1.0 - first.p) / n)
        if first.p == again.p:
            assert first.p is again.p and first.stderr is again.stderr


@settings(max_examples=20, deadline=None)
@given(tower_seed=st.integers(min_value=0, max_value=2 ** 32),
       k=st.sampled_from([None, 3, 5]),
       size=st.sampled_from(["1", "7", "1000", "block-1", "block", "block+1", "2block+3"]),
       seed=st.integers(min_value=0, max_value=2 ** 63))
def test_null_counts_equal_full_row_reference(tower_seed, k, size, seed):
    # A Null query draws only the B sensing rows; its worlds must stand
    # exactly as they do in the full (B+1)-row draws of the same seeds.
    import causalblocks.inference as inference_mod

    sc = random_scenario(tower_seed, max_blocks=6)
    tower = sc.tower
    noise = NoiseModel(0.01, 0.012, support_points=k)
    nb = len(tower)
    block = inference_mod._WORKSPACE_BYTES // inference_mod._bytes_per_world(nb)
    n = {"block-1": block - 1, "block": block, "block+1": block + 1,
         "2block+3": 2 * block + 3}.get(size) or int(size)
    cell_seeds = [seed, derive_sample_seed(seed, "other-cell", 0)]
    hits = inference_mod._count_hits(tower, [NullAction()] * 2, cell_seeds, noise, n,
                                     "predict")
    for cell_seed, cell_hits in zip(cell_seeds, hits):
        ws, wa = draw_exogenous_batch(derive_sample_seeds(cell_seed, "predict", n), nb, noise)
        assert wa.shape == (n, 2)
        stable = stability_mask(tower.centers()[None, :, :] - ws, tower.half_extents(),
                                tower.masses(), tower.support_half_extents)
        assert cell_hits == int(np.count_nonzero(stable))


@pytest.mark.parametrize("k", [None, 5])
def test_null_blocks_draw_only_the_sensing_rows(k, monkeypatch):
    import causalblocks.scm as scm_mod

    drawn = []
    stream = scm_mod._splitmix64_stream

    def counting_stream(seeds, count, *args, **kwargs):
        drawn.append((len(seeds), count))
        return stream(seeds, count, *args, **kwargs)

    monkeypatch.setattr(scm_mod, "_splitmix64_stream", counting_stream)
    tower = column([cube("a"), cube("b"), cube("c")], [(0.0, 0.0)] * 3)
    noise = NoiseModel(0.01, 0.01, support_points=k)
    new_block = cube("d")
    predict_stability(tower, NullAction(), noise, 50, 1)
    assert drawn == [(50, 2 * 3)]
    drawn.clear()
    predict_stability(tower, PlaceAction(new_block, 0.0, 0.0), noise, 50, 1)
    assert drawn == [(50, 2 * 4)]
    drawn.clear()
    stability_heatmap(tower, new_block, candidate_grid(tower, new_block, 3, 1), noise, 20, 1,
                      dims=(3, 1))
    assert drawn == [(60, 2 * 4)]
    drawn.clear()
    # the allocating path keeps drawing the actuation row
    ws, wa = draw_exogenous_batch(derive_sample_seeds(1, "predict", 50), 3, noise)
    assert drawn == [(50, 2 * 4)] and wa.shape == (50, 2)


def _full_draw_hits(tower, action, noise, cell_seed, n):
    """Stable worlds among n full (B+1)-row draws: the reference count."""
    nb = len(tower)
    ws, wa = draw_exogenous_batch(derive_sample_seeds(cell_seed, "predict", n), nb, noise)
    centers = tower.centers()[None, :, :] - ws
    halves, masses = tower.half_extents(), tower.masses()
    if isinstance(action, PlaceAction):
        tx, ty = tower.top_center()
        landing = np.array([tx + action.offset_x, ty + action.offset_y]) + wa
        centers = np.concatenate([centers, landing[:, None, :]], axis=1)
        halves = np.concatenate([halves, [action.spec.half_extents]])
        masses = np.append(masses, action.spec.mass)
    return int(np.count_nonzero(stability_mask(centers, halves, masses,
                                               tower.support_half_extents)))


def _counting_criterion(monkeypatch):
    """Wrap the criterion ``_count_hits`` calls; returns the list of world
    counts of its calls."""
    import causalblocks.inference as inference_mod

    worlds = []
    criterion = inference_mod._criterion

    def counting(planes, *args, **kwargs):
        worlds.append(planes.shape[2])
        return criterion(planes, *args, **kwargs)

    monkeypatch.setattr(inference_mod, "_criterion", counting)
    return worlds


@pytest.mark.parametrize("place", [False, True])
@pytest.mark.parametrize("excess", [-1, 0, 1])
def test_verdict_table_boundary_counts_equal_full_draws(place, excess, monkeypatch):
    # T = k^rows support tuples per axis against a workspace block of
    # T - excess worlds: at block - 1 and block the worlds are looked up in
    # verdict tables, at block + 1 they are drawn, and either way each cell
    # counts exactly the worlds that stand in the full draws.
    import causalblocks.inference as inference_mod

    tower = column([cube("a"), cube("b", size=0.08)], [(0.0, 0.0), (0.012, -0.008)])
    new_block = cube("c", size=0.06)
    noise = NoiseModel(0.03, 0.02, support_points=3)
    rows = len(tower) + place
    tuples = 3 ** rows
    block = tuples - excess
    monkeypatch.setattr(inference_mod, "_WORKSPACE_BYTES",
                        block * inference_mod._bytes_per_world(rows))
    worlds = _counting_criterion(monkeypatch)
    actions = ([PlaceAction(new_block, 0.01, 0.0), PlaceAction(new_block, -0.005, 0.004)]
               if place else [NullAction()] * 2)
    cell_seeds = [71, derive_sample_seed(71, "other-cell", 0)]
    n = inference_mod._TABLE_MIN_WORLDS
    hits = inference_mod._count_hits(tower, actions, cell_seeds, noise, n, "predict")
    for action, cell_seed, cell_hits in zip(actions, cell_seeds, hits):
        assert cell_hits == _full_draw_hits(tower, action, noise, cell_seed, n)
    assert 0 < hits[0] < n
    assert sum(worlds) == (2 * tuples if excess < 1 else 2 * n)


@pytest.mark.parametrize("nblocks", [3, 5])
@pytest.mark.parametrize("short", [1, 0])
def test_verdict_table_rule_in_worlds_counts_equal_full_draws(nblocks, short, monkeypatch):
    # A cell takes the tables from max(8 T, 3000) worlds on, and draws one
    # world short of that: T = 81 is held back by the 3000-world floor,
    # T = 729 by the 8 worlds per tuple. The counts are those of the full
    # draws on both sides.
    import causalblocks.inference as inference_mod

    tower = column([cube(f"b{i}") for i in range(nblocks)],
                   [(0.01 * i, -0.005 * i) for i in range(nblocks)])
    noise = NoiseModel(0.03, 0.03, support_points=3)
    tuples = 3 ** (nblocks + 1)
    n = max(inference_mod._TABLE_WORLDS_PER_TUPLE * tuples,
            inference_mod._TABLE_MIN_WORLDS) - short
    worlds = _counting_criterion(monkeypatch)
    action = PlaceAction(cube("n"), 0.03, 0.0)
    (hits,) = inference_mod._count_hits(tower, [action], [13], noise, n, "predict")
    assert hits == _full_draw_hits(tower, action, noise, 13, n)
    assert 0 < hits < n
    assert sum(worlds) == (n if short else tuples)


@pytest.mark.parametrize("n", [216, 250, 333])
def test_verdict_tables_of_cells_sharing_blocks_equal_full_draws(n, monkeypatch):
    # Blocks of 700 worlds hold two to four cells of n worlds, and a cell
    # may span two blocks; every cell builds its tables once, in its own
    # criterion call, and its count is exact. (The floor on worlds per cell
    # is lifted so that small cells share blocks.)
    import causalblocks.inference as inference_mod

    tower = column([cube("a"), cube("b", size=0.08)], [(0.0, 0.0), (0.012, -0.008)])
    new_block = cube("c", size=0.06)
    noise = NoiseModel(0.03, 0.02, support_points=3)
    monkeypatch.setattr(inference_mod, "_WORKSPACE_BYTES", 700 * inference_mod._bytes_per_world(3))
    monkeypatch.setattr(inference_mod, "_TABLE_MIN_WORLDS", 0)
    worlds = _counting_criterion(monkeypatch)
    actions = [PlaceAction(new_block, 0.004 * i - 0.012, 0.002 * i) for i in range(7)]
    cell_seeds = [derive_sample_seed(5, "cell", i) for i in range(7)]
    hits = inference_mod._count_hits(tower, actions, cell_seeds, noise, n, "predict")
    assert hits == [_full_draw_hits(tower, a, noise, s, n) for a, s in zip(actions, cell_seeds)]
    assert worlds == [27] * 7


def test_discrete_prediction_runs_the_kernel_on_the_tables_only(monkeypatch):
    # A 3-block Place under 3-point noise has 3^4 = 81 support tuples per
    # axis: a 20 000-world prediction runs the criterion on those alone,
    # and a heatmap on those of each cell. A silent fall back to the draws
    # would run it on every world.
    worlds = _counting_criterion(monkeypatch)
    tower = column([cube("a"), cube("b"), cube("c")], [(0.0, 0.0), (0.02, 0.0), (0.02, 0.02)])
    noise = NoiseModel(0.03, 0.02, support_points=3)
    est = predict_stability(tower, PlaceAction(cube("d"), 0.0, 0.0), noise, 20_000, 9)
    assert worlds == [81] and 0.0 < est.p < 1.0
    worlds.clear()
    grid = candidate_grid(tower, cube("d"), 3, 1)
    stability_heatmap(tower, cube("d"), grid, noise, 3000, 9, dims=(3, 1))
    assert worlds == [81] * 3
    worlds.clear()
    # Gaussian noise, and discrete noise on too few worlds, draw
    predict_stability(tower, PlaceAction(cube("d"), 0.0, 0.0), NoiseModel(0.02, 0.02), 500, 9)
    predict_stability(tower, PlaceAction(cube("d"), 0.0, 0.0), noise, 2000, 9)
    assert worlds == [500, 2000]


@pytest.mark.parametrize("rows", range(1, 8))
def test_workspace_holds_four_arrays_per_world(rows):
    # a seed, the (2, rows) draws, the (2, 2 rows) stream and the (2, 2,
    # rows) comparisons: the criterion's COMs and corners take no bytes of
    # their own
    import causalblocks.inference as inference_mod

    assert inference_mod._bytes_per_world(rows) == 8 + 52 * rows


def _cubes(nblocks):
    return column([cube(f"b{i}") for i in range(nblocks)],
                  [(0.004 * i, -0.003 * i) for i in range(nblocks)])


@pytest.mark.parametrize("rows", range(1, 8))
def test_blocks_of_a_prediction_differ_by_at_most_one_world(rows, monkeypatch):
    # A 20 000-world query takes the fewest blocks that fit the budget, all
    # of one size up to a world: no small tail block pays a block's fixed
    # cost. Null queries on `rows` cubes, Gaussian noise (the draw path).
    import causalblocks.inference as inference_mod

    worlds = _counting_criterion(monkeypatch)
    predict_stability(_cubes(rows), NullAction(), NoiseModel(0.01, 0.01), 20_000, 3)
    capacity = inference_mod._WORKSPACE_BYTES // inference_mod._bytes_per_world(rows)
    assert sum(worlds) == 20_000 and len(worlds) == -(-20_000 // capacity)
    assert max(worlds) - min(worlds) <= 1 and max(worlds) <= capacity


@pytest.mark.parametrize("k", [None, 3])
@pytest.mark.parametrize("rows", range(1, 8))
def test_prediction_memory_stays_within_the_workspace(rows, k):
    # Gaussian worlds are drawn; 3-point worlds are looked up in verdict
    # tables (3^rows <= 2187 tuples against 20 000 worlds).
    import causalblocks.inference as inference_mod

    tower = _cubes(rows - 1)
    action = PlaceAction(cube("top"), 0.002, 0.0)
    noise = NoiseModel(0.01, 0.01, support_points=k)
    predict_stability(tower, action, noise, 20_000, 5)  # fills the caches
    tracemalloc.start()
    try:
        predict_stability(tower, action, noise, 20_000, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < inference_mod._WORKSPACE_BYTES + 64 * 1024


def _leaning_tower(seed, nblocks):
    """A stack of cuboids, each shifted up to 15 mm off the one below, and
    a block to place on it."""
    rng = np.random.default_rng(seed)
    specs = [BlockSpec(f"b{i + 1}", *map(float, rng.uniform(0.06, 0.14, 2)), 0.05,
                       float(rng.uniform(0.1, 0.5)))
             for i in range(nblocks + 1)]
    offsets = np.cumsum(rng.uniform(-0.015, 0.015, (nblocks, 2)), axis=0)
    return column(specs[:nblocks], offsets.tolist()), specs[nblocks]


@pytest.mark.parametrize("k, nblocks", [(3, b) for b in range(1, 7)]
                         + [(5, b) for b in range(1, 5)])
def test_discrete_prediction_matches_exact_per_axis_enumeration(k, nblocks):
    # P(stable) = P_x * P_y, each enumerated exactly over the k^R support
    # tuples of one axis. The Monte-Carlo estimate of 20 000 worlds must lie
    # within 4.5 binomial standard errors of it, and be exact at 0 and 1.
    tower, new_block = _leaning_tower(100 * k + nblocks, nblocks)
    sigma_s, sigma_a = 0.03, 0.02
    noise = NoiseModel(sigma_s, sigma_a, support_points=k)
    blocks = tower_tuples(tower)
    tx, ty = tower.top_center()
    hx, hy = new_block.half_extents
    n = 20_000
    for action, rows, sigmas in (
            (NullAction(), blocks, [-sigma_s] * nblocks),
            (PlaceAction(new_block, 0.005, -0.004),
             blocks + [(new_block.mass, tx + 0.005, ty - 0.004, hx, hy)],
             [-sigma_s] * nblocks + [sigma_a])):
        exact = discrete_probability(rows, tower.support_half_extents, sigmas, k)
        est = predict_stability(tower, action, noise, n, 17 * nblocks + k)
        assert abs(est.p - exact) <= 4.5 * math.sqrt(exact * (1.0 - exact) / n), (action, exact)


def test_discrete_heatmap_row_matches_exact_per_axis_enumeration():
    tower, new_block = _leaning_tower(7, 4)
    noise = NoiseModel(0.03, 0.02, support_points=3)
    grid = candidate_grid(tower, new_block, 5, 1)
    n = 20_000
    hm = stability_heatmap(tower, new_block, grid, noise, n, 23, dims=(5, 1))
    tx, ty = tower.top_center()
    hx, hy = new_block.half_extents
    for (ox, oy), p in zip(grid, hm.probabilities):
        rows = tower_tuples(tower) + [(new_block.mass, tx + ox, ty + oy, hx, hy)]
        exact = discrete_probability(rows, tower.support_half_extents, [-0.03] * 4 + [0.02], 3)
        assert abs(p - exact) <= 4.5 * math.sqrt(exact * (1.0 - exact) / n), (ox, exact)


# --- candidate_grid --------------------------------------------------------------


def test_degenerate_grid_is_center():
    sc = two_cube_scenario()
    assert candidate_grid(sc.tower, sc.pending_blocks[0], 1, 1) == [(0.0, 0.0)]


def test_three_point_grid_hits_endpoints():
    sc = two_cube_scenario()
    grid = candidate_grid(sc.tower, sc.pending_blocks[0], 3, 1)
    assert grid == [(-0.05, 0.0), (0.0, 0.0), (0.05, 0.0)]


def test_grid_calls_share_offsets_but_not_the_list():
    sc = two_cube_scenario()
    block = sc.pending_blocks[0]
    a = candidate_grid(sc.tower, block, 9, 9)
    b = candidate_grid(sc.tower, block, 9, 9)
    assert a == b and a is not b
    assert all(p is q for p, q in zip(a, b))
    a.clear()
    assert candidate_grid(sc.tower, block, 9, 9) == b
    # another tower with another top block gets its own offsets
    other = column([cube("a", size=0.2)], [(0.0, 0.0)])
    assert candidate_grid(other, block, 9, 9)[-1] == (0.1, 0.1)


def test_grid_symmetric_under_negation():
    sc = two_cube_scenario()
    grid = candidate_grid(sc.tower, sc.pending_blocks[0], 9, 9)
    assert len(grid) == 81
    points = set(grid)
    assert all((-x, -y) in points for x, y in points)
    # mirrored offsets are exact bitwise negations
    xs = sorted({x for x, _ in grid})
    assert all(xs[i] == -xs[-1 - i] for i in range(len(xs)))


def test_grid_row_major_x_slow():
    sc = two_cube_scenario()
    grid = candidate_grid(sc.tower, sc.pending_blocks[0], 3, 2)
    assert grid[0][0] == grid[1][0]  # first two cells share x
    assert grid[0][1] != grid[1][1]


def test_grid_spans_rectangular_top_block():
    from causalblocks import BlockSpec

    slab = BlockSpec("slab", width=0.08, depth=0.12, height=0.05, mass=0.25)
    tower = column([slab], [(0.0, 0.0)])
    grid = candidate_grid(tower, cube("w"), 3, 3)
    assert grid[0] == (-0.04, -0.06)
    assert grid[-1] == (0.04, 0.06)


def test_grid_on_empty_tower_spans_support():
    empty = TowerState(blocks=(), support_half_extents=(0.2, 0.3))
    grid = candidate_grid(empty, cube("n"), 3, 3)
    assert grid[0] == (-0.2, -0.3)
    assert grid[-1] == (0.2, 0.3)


def test_grid_rejects_bad_dims():
    sc = two_cube_scenario()
    with pytest.raises(ValidationError):
        candidate_grid(sc.tower, sc.pending_blocks[0], 0, 3)


# --- stability_heatmap ------------------------------------------------------------


def zero_noise_heatmap(nx=9, ny=1, n_per_cell=8, seed=3):
    sc = two_cube_scenario(0.0, 0.0)
    block = sc.pending_blocks[0]
    grid = candidate_grid(sc.tower, block, nx, ny)
    return stability_heatmap(sc.tower, block, grid, ZERO, n_per_cell, seed,
                             dims=(nx, ny))


def test_zero_noise_heatmap_matches_analytic_region():
    hm = zero_noise_heatmap(nx=9, ny=9)
    for (ox, oy), p in zip(hm.offsets, hm.probabilities):
        expected = 1.0 if (abs(ox) < 0.05 and abs(oy) < 0.05) else 0.0
        assert p == expected


def test_heatmap_mirror_symmetry_under_noise():
    sc = two_cube_scenario(0.02, 0.02)
    block = sc.pending_blocks[0]
    nx = ny = 5
    grid = candidate_grid(sc.tower, block, nx, ny)
    hm = stability_heatmap(sc.tower, block, grid, sc.noise, 2000, 11, dims=(nx, ny))
    pg = hm.prob_grid()
    se = np.array(hm.stderr).reshape(nx, ny)
    for mirrored in (pg[::-1, :], pg[:, ::-1]):
        se_m = se[::-1, :] if mirrored is pg[::-1, :] else se[:, ::-1]
        tol = 3.0 * np.sqrt(se ** 2 + se_m ** 2)
        assert np.all(np.abs(pg - mirrored) <= tol)


def _same_proportion(p1, p2, n):
    """Two independent n-draw proportions estimate one probability: within
    6 pooled standard errors, an exact match when both are 0 or 1."""
    pooled = (p1 + p2) / 2.0
    var = pooled * (1.0 - pooled) * 2.0 / n
    if var <= 0.0:
        return p1 == p2
    return abs(p1 - p2) <= 6.0 * math.sqrt(var)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), k=st.sampled_from([None, 3, 5]))
def test_heatmap_of_mirror_symmetric_tower_is_mirror_symmetric(data, k):
    # Every block centered on x = 0, at any y: the tower, the noise and the
    # grid are symmetric under x -> -x, so mirrored cells estimate the same
    # probability, each from its own stream.
    length = st.floats(min_value=0.06, max_value=0.14)
    nblocks = data.draw(st.integers(min_value=1, max_value=4))
    specs = [BlockSpec(f"b{i}", data.draw(length), data.draw(length), 0.05,
                       data.draw(st.floats(min_value=0.1, max_value=0.5)))
             for i in range(nblocks + 1)]
    ys = [0.0]
    for lower, upper in zip(specs, specs[1:nblocks]):
        lim = 0.4 * min(lower.depth, upper.depth)
        ys.append(ys[-1] + data.draw(st.floats(min_value=-lim, max_value=lim)))
    tower = column(specs[:nblocks], [(0.0, y) for y in ys])
    sigma = st.floats(min_value=0.002, max_value=0.03)
    noise = NoiseModel(data.draw(sigma), data.draw(sigma), support_points=k)
    nx = ny = 5
    n = 400
    grid = candidate_grid(tower, specs[-1], nx, ny)
    hm = stability_heatmap(tower, specs[-1], grid, noise, n,
                           data.draw(st.integers(min_value=0, max_value=2 ** 63)),
                           dims=(nx, ny))
    pg = hm.prob_grid()
    for ix in range(nx // 2):
        for iy in range(ny):
            assert _same_proportion(pg[ix, iy], pg[nx - 1 - ix, iy], n), (ix, iy)


def test_heatmap_center_cell_beats_edges():
    sc = two_cube_scenario(0.02, 0.02)
    block = sc.pending_blocks[0]
    nx = ny = 5
    grid = candidate_grid(sc.tower, block, nx, ny)
    hm = stability_heatmap(sc.tower, block, grid, sc.noise, 2000, 13, dims=(nx, ny))
    pg = hm.prob_grid()
    se = np.array(hm.stderr).reshape(nx, ny)
    center = pg[nx // 2, ny // 2]
    center_se = se[nx // 2, ny // 2]
    edges = [(ix, iy) for ix in range(nx) for iy in range(ny)
             if ix in (0, nx - 1) or iy in (0, ny - 1)]
    for ix, iy in edges:
        tol = 3.0 * np.sqrt(center_se ** 2 + se[ix, iy] ** 2)
        assert center >= pg[ix, iy] - tol


def test_heatmap_reproducible():
    a = zero_noise_heatmap()
    b = zero_noise_heatmap()
    assert a == b


def test_center_cell_degrades_with_actuation_noise():
    # paired seeds: the same unit draws are scaled by each sigma, so the
    # comparison is nearly noise-free
    sc = two_cube_scenario()
    block = sc.pending_blocks[0]
    action = PlaceAction(block, 0.0, 0.0)
    low = predict_stability(sc.tower, action, NoiseModel(0.02, 0.02), 4000, 33)
    high = predict_stability(sc.tower, action, NoiseModel(0.02, 0.035), 4000, 33)
    tol = 3.0 * np.sqrt(low.stderr ** 2 + high.stderr ** 2)
    assert high.p <= low.p + tol


def _cell_block(tower):
    import causalblocks.inference as inference_mod

    nb = len(tower)
    return inference_mod._WORKSPACE_BYTES // inference_mod._bytes_per_world(nb + 1)


@settings(max_examples=12, deadline=None)
@given(tower_seed=st.integers(min_value=0, max_value=2 ** 32),
       dims=st.sampled_from([(1, 1), (3, 1), (9, 9)]),
       k=st.sampled_from([None, 5]),
       size=st.sampled_from(["1", "7", "999", "1000", "block-1", "block", "block+1",
                             "2block+3"]),
       seed=st.integers(min_value=0, max_value=2 ** 63))
def test_heatmap_cells_equal_single_cell_predictions(tower_seed, dims, k, size, seed):
    # Packing cells into shared world blocks, and splitting a cell across
    # blocks, leaves every cell its own stream: cell i is the prediction
    # from the derived seed ("heatmap-cell", i), bit for bit.
    sc = random_scenario(tower_seed, max_blocks=6)
    noise = NoiseModel(0.01, 0.012, support_points=k)
    block = _cell_block(sc.tower)
    n = {"block-1": block - 1, "block": block, "block+1": block + 1,
         "2block+3": 2 * block + 3}.get(size) or int(size)
    new_block = sc.pending_blocks[0]
    grid = candidate_grid(sc.tower, new_block, *dims)
    hm = stability_heatmap(sc.tower, new_block, grid, noise, n, seed, dims=dims)
    for i, (ox, oy) in enumerate(grid):
        est = predict_stability(sc.tower, PlaceAction(new_block, ox, oy), noise, n,
                                derive_sample_seed(seed, "heatmap-cell", i))
        assert (hm.probabilities[i], hm.stderr[i]) == (est.p, est.stderr), i


def test_heatmap_validates_input():
    sc = two_cube_scenario()
    block = sc.pending_blocks[0]
    with pytest.raises(ValidationError):
        stability_heatmap(sc.tower, block, [], sc.noise, 10, 1, dims=(0, 0))
    with pytest.raises(ValidationError):
        stability_heatmap(sc.tower, block, [(0.0, 0.0)], sc.noise, 0, 1, dims=(1, 1))
    with pytest.raises(ValidationError):
        stability_heatmap(sc.tower, block, [(0.0, 0.0)], sc.noise, 10, 1,
                          dims=(2, 2))


# --- select_action ----------------------------------------------------------------


def fixture_heatmap(probs, offsets, dims=None):
    n = len(probs)
    dims = dims or (n, 1)
    return StabilityHeatmap(
        dims=dims,
        probabilities=tuple(probs), stderr=tuple(0.0 for _ in probs),
        offsets=tuple(offsets))


def test_symmetric_admissible_subset_centroid_is_exact_zero():
    offsets = [(-0.0125, 0.0), (0.0, 0.0), (0.0125, 0.0)]
    hm = fixture_heatmap([0.95, 0.99, 0.95], offsets)
    sc = two_cube_scenario(0.0, 0.0)
    result = select_action(hm, sc.tower, sc.pending_blocks[0], ZERO, 0.9, 50, 1)
    assert result.action.offset == (0.0, 0.0)
    assert not result.fallback


def test_zero_noise_selection_centroid_and_probability():
    sc = two_cube_scenario(0.0, 0.0)
    block = sc.pending_blocks[0]
    grid = candidate_grid(sc.tower, block, 9, 1)
    hm = stability_heatmap(sc.tower, block, grid, ZERO, 32, 2, dims=(9, 1))
    result = select_action(hm, sc.tower, block, ZERO, 0.5, 64, 3)
    assert result.admissible_count == 7
    assert result.action.offset == (0.0, 0.0)
    assert result.expected_p == 1.0


def test_empty_admissible_set_falls_back_to_argmax():
    offsets = [(-0.0125, 0.0), (0.0, 0.0), (0.0125, 0.0)]
    hm = fixture_heatmap([0.2, 0.7, 0.4], offsets)
    sc = two_cube_scenario(0.0, 0.0)
    result = select_action(hm, sc.tower, sc.pending_blocks[0], ZERO, 1.01, 10, 1)
    assert result.fallback
    assert result.action.offset == (0.0, 0.0)
    assert result.expected_p == 0.7


def test_cell_exactly_at_threshold_is_admitted():
    # 600 of 1000 worlds: the estimate equals the threshold 0.6 exactly
    offsets = [(-0.0125, 0.0), (0.0, 0.0), (0.0125, 0.0)]
    hm = fixture_heatmap([0.25, 600 / 1000, 0.5], offsets)
    assert hm.probabilities[1] == 0.6
    sc = two_cube_scenario(0.0, 0.0)
    result = select_action(hm, sc.tower, sc.pending_blocks[0], ZERO, 0.6, 10, 1)
    assert not result.fallback
    assert result.admissible_count == 1
    assert result.action.offset == (0.0, 0.0)
    assert result.expected_p == 1.0  # re-estimated, not the heatmap's 0.6

    # just above every cell: the fallback takes the best cell as it stands
    above = math.nextafter(0.6, 1.0)
    result = select_action(hm, sc.tower, sc.pending_blocks[0], ZERO, above, 10, 1)
    assert result.fallback
    assert result.admissible_count == 0
    assert result.action.offset == (0.0, 0.0)
    assert result.expected_p == 0.6


def test_argmax_tie_breaks_lexicographically():
    offsets = [(0.0125, -0.1), (-0.0125, 0.0), (-0.0125, -0.2), (0.0, 0.0)]
    hm = fixture_heatmap([0.7, 0.7, 0.7, 0.1], offsets, dims=(4, 1))
    sc = two_cube_scenario(0.0, 0.0)
    result = select_action(hm, sc.tower, sc.pending_blocks[0], ZERO, 0.9, 10, 1)
    assert result.fallback
    assert result.action.offset == (-0.0125, -0.2)


def test_selection_invariant_to_probability_scaling():
    offsets = [(x, 0.0) for x in (-0.025, -0.0125, 0.0, 0.0125, 0.025)]
    probs = [0.2, 0.85, 0.95, 0.9, 0.3]
    sc = two_cube_scenario(0.0, 0.0)
    base = select_action(fixture_heatmap(probs, offsets), sc.tower,
                         sc.pending_blocks[0], ZERO, 0.8, 10, 1)
    scaled = select_action(fixture_heatmap([0.5 * p for p in probs], offsets),
                           sc.tower, sc.pending_blocks[0], ZERO, 0.4, 10, 1)
    assert base.action.offset == scaled.action.offset


def test_nan_threshold_rejected():
    hm = fixture_heatmap([0.2, 0.7], [(0.0, 0.0), (0.0125, 0.0)], dims=(2, 1))
    sc = two_cube_scenario(0.0, 0.0)
    with pytest.raises(ValidationError, match="nan"):
        select_action(hm, sc.tower, sc.pending_blocks[0], ZERO, float("nan"), 10, 1)


# --- exports -----------------------------------------------------------------------


def test_csv_format_golden():
    hm = zero_noise_heatmap(nx=3, ny=1, n_per_cell=4)
    expected = (
        "offset_x,offset_y,p_stable,stderr\n"
        "-0.050000,0.000000,0.000000,0.000000\n"
        "0.000000,0.000000,1.000000,0.000000\n"
        "0.050000,0.000000,0.000000,0.000000\n"
    )
    assert heatmap_to_csv(hm) == expected


def test_csv_has_no_negative_zero():
    hm = zero_noise_heatmap(nx=9, ny=1)
    assert "-0.000000" not in heatmap_to_csv(hm)


def test_pgm_format_golden():
    hm = zero_noise_heatmap(nx=9, ny=1)
    expected = "P2\n9 1\n255\n0 255 255 255 255 255 255 255 0\n"
    assert heatmap_to_pgm(hm) == expected


def test_pgm_row_order_is_y_rows():
    hm = zero_noise_heatmap(nx=3, ny=2)
    lines = heatmap_to_pgm(hm).splitlines()
    assert lines[1] == "3 2"
    assert len(lines) == 3 + 2
    assert all(len(row.split()) == 3 for row in lines[3:])
