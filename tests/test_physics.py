import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalblocks import (
    NullAction,
    PlaceAction,
    PlacedBlock,
    TowerState,
    ValidationError,
    is_stable,
    rect_margin,
    transition,
)
from causalblocks.physics import _criterion, outcome_mask, stability_mask
from causalblocks.scenarios import cube, column, random_scenario

from oracles import axis_stable, oracle_stable, tower_tuples


def blocks_at(xs, size=0.1, masses=None):
    specs = [cube(f"b{i}", size=size, mass=(masses[i] if masses else 0.25))
             for i in range(len(xs))]
    return column(specs, [(x, 0.0) for x in xs])


# --- rect_margin --------------------------------------------------------------


def test_rect_margin_signs():
    rect = (-1.0, -2.0, 1.0, 2.0)
    assert rect_margin(0.0, 0.0, rect) == 1.0
    assert rect_margin(0.9, 0.0, rect) == pytest.approx(0.1)
    assert rect_margin(1.0, 0.0, rect) == 0.0
    assert rect_margin(2.0, 0.0, rect) == -1.0
    assert rect_margin(2.0, 3.0, rect) == pytest.approx(-math.hypot(1.0, 1.0))


def test_rect_margin_empty_rect_is_outside():
    assert rect_margin(0.0, 0.0, (1.0, -1.0, -1.0, 1.0)) < 0.0


# --- is_stable ----------------------------------------------------------------


def test_two_cubes_offset_003_stable_with_expected_margins():
    tower = blocks_at([0.0, 0.03])
    result = is_stable(tower)
    assert result.stable
    # block interface: clearance is half-width minus offset, exactly
    assert result.checks[1].margin == 0.05 - 0.03
    # table interface has far more room than the block interface
    assert result.checks[0].margin > result.checks[1].margin


def test_two_cubes_offset_006_unstable_at_block_interface():
    tower = blocks_at([0.0, 0.06])
    result = is_stable(tower)
    assert not result.stable
    assert result.checks[1].margin <= 0.0
    assert result.checks[0].margin > 0.0


def test_three_cubes_unstable_from_group_com():
    # top-two COM sits at 0.06, outside the contact patch on the base block
    tower = blocks_at([0.0, 0.04, 0.08])
    result = is_stable(tower)
    assert not result.stable
    assert result.checks[1].margin <= 0.0
    # the top block alone is fine on the middle one
    assert result.checks[2].margin > 0.0


def test_boundary_com_counts_as_unstable():
    # COM of the upper block exactly on the contact edge
    tower = blocks_at([0.0, 0.05])
    result = is_stable(tower)
    assert not result.stable
    assert result.checks[1].margin == 0.0


def test_zero_overlap_pair_reports_unstable_not_error():
    tower = TowerState(blocks=(
        PlacedBlock(cube("a"), 0.0, 0.0),
        PlacedBlock(cube("b"), 0.25, 0.0),
    ))
    result = is_stable(tower)
    assert not result.stable
    assert result.checks[1].margin < 0.0


def test_empty_tower_is_stable():
    assert is_stable(TowerState(blocks=())).stable
    assert stability_mask(np.zeros((3, 0, 2)), np.zeros((0, 2)), np.zeros(0),
                          (0.5, 0.5)).tolist() == [True] * 3


def test_margin_checks_report_every_interface():
    tower = blocks_at([0.0, 0.02, 0.04, 0.01])
    result = is_stable(tower)
    assert [c.interface_index for c in result.checks] == [0, 1, 2, 3]
    assert result.stable == all(c.margin > 0.0 for c in result.checks)


@given(dx=st.floats(min_value=-0.12, max_value=0.12,
                    allow_nan=False, allow_infinity=False))
def test_two_cube_margin_is_halfwidth_minus_offset(dx):
    tower = blocks_at([0.0, dx])
    result = is_stable(tower)
    assert result.checks[1].margin == 0.05 - abs(dx)


@settings(max_examples=60, deadline=None)
@given(xs=st.lists(st.floats(min_value=-0.08, max_value=0.08,
                             allow_nan=False, allow_infinity=False),
                   min_size=1, max_size=4),
       ys=st.lists(st.floats(min_value=-0.08, max_value=0.08,
                             allow_nan=False, allow_infinity=False),
                   min_size=4, max_size=4))
def test_mirror_symmetry(xs, ys):
    specs = [cube(f"b{i}") for i in range(len(xs))]
    tower = column(specs, [(x, y) for x, y in zip(xs, ys)])
    mirrored = column(specs, [(-x, y) for x, y in zip(xs, ys)])
    a = is_stable(tower)
    b = is_stable(mirrored)
    assert a.stable == b.stable
    for ca, cb in zip(a.checks, b.checks):
        assert ca.margin == cb.margin
        assert ca.com_above[0] == -cb.com_above[0]
        assert ca.com_above[1] == cb.com_above[1]


@settings(max_examples=60, deadline=None)
@given(xs=st.lists(st.floats(min_value=-0.09, max_value=0.09,
                             allow_nan=False, allow_infinity=False),
                   min_size=1, max_size=4))
def test_is_stable_matches_brute_force(xs):
    tower = blocks_at(xs)
    assert is_stable(tower).stable == oracle_stable(
        tower_tuples(tower), tower.support_half_extents)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), data=st.data())
def test_criterion_matches_oracle_on_random_towers(seed, data):
    tower = random_scenario(seed, max_blocks=6).tower
    jitter = st.floats(min_value=-0.02, max_value=0.02,
                       allow_nan=False, allow_infinity=False)
    poses = st.lists(st.tuples(jitter, jitter), min_size=len(tower), max_size=len(tower))
    batch = tower.centers() + np.array([data.draw(poses) for _ in range(3)])
    mask = stability_mask(batch, tower.half_extents(), tower.masses(),
                          tower.support_half_extents)
    for centers, verdict in zip(batch, mask):
        jittered = tower.with_centers(centers)
        blocks = tower_tuples(jittered)
        result = is_stable(jittered)
        assert result.stable == bool(verdict) == oracle_stable(
            blocks, jittered.support_half_extents)
        assert result.stable == all(c.margin > 0.0 for c in result.checks)
        for k, check in enumerate(result.checks):
            group = blocks[k:]
            mass = math.fsum(b[0] for b in group)
            com = (math.fsum(b[0] * b[1] for b in group) / mass,
                   math.fsum(b[0] * b[2] for b in group) / mass)
            assert check.com_above == pytest.approx(com, rel=0.0, abs=1e-15)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       scale=st.sampled_from([0.002, 0.01, 0.03]), place=st.booleans())
def test_verdict_is_the_and_of_per_axis_verdicts(seed, scale, place):
    # The x tests read only x centers and the y tests only y centers. An
    # axis on its own is judged with the other axis's blocks all centered
    # at 0, where every test of that axis passes; pairing each world's x
    # plane with another world's y plane must then AND their verdicts.
    sc = random_scenario(seed, max_blocks=6)
    tower = sc.tower
    rng = np.random.default_rng(seed)
    centers = tower.centers() + rng.normal(0.0, scale, (200, len(tower), 2))
    halves, masses = tower.half_extents(), tower.masses()
    if place:
        landing = np.array(tower.top_center()) + rng.normal(0.0, scale, (200, 1, 2))
        centers = np.concatenate([centers, landing], axis=1)
        halves = np.concatenate([halves, [sc.pending_blocks[0].half_extents]])
        masses = np.append(masses, sc.pending_blocks[0].mass)
    support = tower.support_half_extents

    def verdicts(batch):
        return stability_mask(batch, halves, masses, support)

    x_only, y_only = centers.copy(), centers.copy()
    x_only[..., 1] = 0.0
    y_only[..., 0] = 0.0
    assert verdicts(np.zeros_like(centers)).all()
    x_ok, y_ok = verdicts(x_only), verdicts(y_only)
    assert np.array_equal(verdicts(centers), x_ok & y_ok)
    shift = np.roll(np.arange(len(centers)), 1)
    mixed = centers.copy()
    mixed[..., 1] = centers[shift, :, 1]
    assert np.array_equal(verdicts(mixed), x_ok & y_ok[shift])
    for i in range(0, len(centers), 40):
        for axis, ok in ((0, x_ok), (1, y_ok)):
            assert ok[i] == axis_stable(masses.tolist(), centers[i, :, axis].tolist(),
                                        halves[:, axis].tolist(), support[axis])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), keep=st.integers(0, 6),
       n=st.sampled_from([1, 7, 3000]), place=st.booleans())
def test_criterion_in_aliased_buffers_equals_fresh_arrays(seed, keep, n, place):
    # The buffers ``inference._count_hits`` hands the criterion: the COMs
    # overwrite the planes, and the corners go to a uint64 stream buffer
    # viewed as float64; all are slices of wider workspace arrays.
    sc = random_scenario(seed, max_blocks=6)
    tower = TowerState(sc.tower.blocks[:keep], sc.tower.support_half_extents)
    rng = np.random.default_rng(seed)
    centers = tower.centers() + rng.normal(0.0, 0.02, (n, len(tower), 2))
    halves, masses = tower.half_extents(), tower.masses()
    if place:
        landing = np.array(tower.top_center()) + rng.normal(0.0, 0.02, (n, 1, 2))
        centers = np.concatenate([centers, landing], axis=1)
        halves = np.concatenate([halves, [sc.pending_blocks[0].half_extents]])
        masses = np.append(masses, sc.pending_blocks[0].mass)
    rows = centers.shape[1]
    planes = np.ascontiguousarray(centers.transpose(2, 1, 0))
    args = (halves, masses, tower.support_half_extents)
    fresh = _criterion(planes, *args)

    width = n + 5
    eps = np.empty((2, rows, width))[..., :n]
    eps[...] = planes
    corners = np.empty((2, 2 * rows, width), dtype=np.uint64)[..., :n].view(np.float64)
    flags = np.empty((2, 2, rows, width), dtype=bool)[..., :n]
    aliased = _criterion(eps, *args, out=(eps, corners[:, :rows], corners[:, rows:], flags))
    assert aliased[0] is eps
    for got, want in zip(aliased, fresh):
        assert got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


# --- transition ---------------------------------------------------------------


def test_null_action_passthrough():
    tower = blocks_at([0.0, 0.02])
    result = transition(tower, NullAction(), (0.5, 0.5))
    assert result.s1 == tower
    assert result.outcome


def test_centered_place_is_stable():
    tower = blocks_at([0.0])
    action = PlaceAction(cube("new"), 0.0, 0.0)
    result = transition(tower, action, (0.0, 0.0))
    assert result.outcome
    assert len(result.s1) == 2
    assert not result.s1.collapsed


def test_offset_plus_noise_topples():
    tower = blocks_at([0.0])
    action = PlaceAction(cube("new"), 0.04, 0.0)
    result = transition(tower, action, (0.02, 0.0))
    assert not result.outcome
    assert result.s1.collapsed
    assert result.failed_interface == 1


def test_zero_overlap_place_collapses():
    tower = blocks_at([0.0])
    action = PlaceAction(cube("new"), 0.3, 0.0)
    result = transition(tower, action, (0.0, 0.0))
    assert not result.outcome
    assert result.s1.collapsed
    assert result.failed_interface == 1


def test_place_on_empty_tower_lands_on_support():
    empty = TowerState(blocks=(), support_half_extents=(0.2, 0.2))
    result = transition(empty, PlaceAction(cube("new"), 0.05, 0.0), (0.0, 0.0))
    assert result.outcome
    assert result.s1.blocks[0].center == (0.05, 0.0)


def test_place_overhanging_support_edge_falls():
    empty = TowerState(blocks=(), support_half_extents=(0.03, 0.03))
    result = transition(empty, PlaceAction(cube("new"), 0.04, 0.0), (0.0, 0.0))
    assert not result.outcome


def test_intended_center_override():
    tower = blocks_at([0.0])
    action = PlaceAction(cube("new"), 0.0, 0.0)
    result = transition(tower, action, (0.0, 0.0), intended_center=(0.06, 0.0))
    assert not result.outcome


def test_transition_from_collapsed_state_raises():
    tower = TowerState(blocks=(PlacedBlock(cube("a"), 0.0, 0.0),), collapsed=True)
    with pytest.raises(ValidationError):
        transition(tower, NullAction(), (0.0, 0.0))


def test_transition_is_deterministic():
    tower = blocks_at([0.0, 0.01])
    action = PlaceAction(cube("new"), 0.02, 0.01)
    r1 = transition(tower, action, (0.005, -0.002))
    r2 = transition(tower, action, (0.005, -0.002))
    assert r1 == r2


# --- vectorized kernel ---------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(xs=st.lists(st.floats(min_value=-0.09, max_value=0.09,
                             allow_nan=False, allow_infinity=False),
                   min_size=1, max_size=4))
def test_stability_mask_matches_is_stable(xs):
    tower = blocks_at(xs)
    mask = stability_mask(tower.centers()[None, :, :], tower.half_extents(),
                          tower.masses(), tower.support_half_extents)
    assert bool(mask[0]) == is_stable(tower).stable


def test_outcome_mask_matches_transition_for_place():
    tower = blocks_at([0.0, 0.01])
    action = PlaceAction(cube("new"), 0.02, 0.0)
    rng = np.random.default_rng(0)
    for _ in range(200):
        wa = rng.normal(0, 0.03, 2)
        expected = transition(tower, action, (wa[0], wa[1])).outcome
        got = outcome_mask(tower.centers()[None, :, :],
                           np.array(tower.top_center())[None, :],
                           action, wa[None, :], base=tower)
        assert bool(got[0]) == expected


def _layouts(centers):
    """The same (n, B, 2) poses as C order, as a transposed view of C-order
    (2, B, n) planes, and in Fortran order."""
    planes = np.ascontiguousarray(centers.transpose(2, 1, 0))
    return {"c": np.ascontiguousarray(centers),
            "axis-major view": planes.transpose(2, 1, 0),
            "fortran": np.asfortranarray(centers)}


@pytest.mark.parametrize("seed", [3, 11, 27])
def test_kernel_verdicts_do_not_depend_on_layout_or_batching(seed):
    sc = random_scenario(seed, max_blocks=6)
    tower = sc.tower.with_centers(np.zeros((len(sc.tower), 2)))
    rng = np.random.default_rng(seed)
    n = 301
    centers = tower.centers() + rng.normal(0.0, 0.02, (n, len(tower), 2))
    tops = np.array(tower.top_center()) + rng.normal(0.0, 0.01, (n, 2))
    wa = rng.normal(0.0, 0.01, (n, 2))
    place = PlaceAction(sc.pending_blocks[0], 0.01, -0.005)
    args = (tower.half_extents(), tower.masses(), tower.support_half_extents)

    expected = np.array([is_stable(tower.with_centers(c)).stable for c in centers])
    assert 0 < expected.sum() < n  # both verdicts occur
    expected_place = np.array([
        transition(tower.with_centers(c), place, tuple(w), intended_center=(
            t[0] + place.offset_x, t[1] + place.offset_y)).outcome
        for c, t, w in zip(centers, tops, wa)])
    assert 0 < expected_place.sum() < n
    for name, layout in _layouts(centers).items():
        assert np.array_equal(stability_mask(layout, *args), expected), name
        assert np.array_equal(outcome_mask(layout, tops, NullAction(), wa, tower),
                              expected), name
        for wa_layout in (wa, np.ascontiguousarray(wa.T).T):
            got = outcome_mask(layout, tops, place, wa_layout, tower)
            assert np.array_equal(got, expected_place), name
    for lo, hi in ((0, 1), (1, 64), (64, 300), (300, 301)):
        assert np.array_equal(stability_mask(centers[lo:hi], *args), expected[lo:hi])
        assert np.array_equal(outcome_mask(centers[lo:hi], tops[lo:hi], place, wa[lo:hi],
                                           tower), expected_place[lo:hi])


def test_edge_to_edge_contact_is_unstable():
    # b1 meets b0 edge to edge (contact x from 0.05 to 0.05, lo == hi), and
    # b2 meets b1 the same way on the other side, so the COM of b1 and b2
    # lies exactly on that degenerate contact at x = 0.05.
    tower = blocks_at([0.0, 0.1, 0.0])
    result = is_stable(tower)
    assert not result.stable
    min_x, min_y, max_x, max_y = result.checks[1].support_polygon
    com_x, com_y = result.checks[1].com_above
    assert min_x == max_x == com_x == 0.05
    assert min_y < com_y < max_y
    # The COM of the top block alone exactly on either edge of its contact.
    edges = [blocks_at([0.0, 0.05]), blocks_at([0.0, -0.05])]
    for t in [tower] + edges:
        assert not is_stable(t).stable
        assert stability_mask(t.centers()[None], t.half_extents(), t.masses(),
                              t.support_half_extents).tolist() == [False]
