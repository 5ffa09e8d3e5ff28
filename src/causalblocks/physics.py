"""Quasi-static stability of single-column cuboid towers.

A tower stands if, at every support interface, the combined center of mass
of everything above projects strictly inside the contact rectangle at that
interface. For flat stacked cuboids the contact rectangle is the exact
intersection of the two footprints (support surface and bottom block at
interface 0). A center of mass exactly on the boundary counts as unstable;
the boundary is a measure-zero set and the conservative call is the right
one for a robot.

This criterion is the reference semantics of the whole package: transition
outcomes, Monte-Carlo estimates, and counterfactual replays all reduce to
it, and it is written once, in ``_criterion``, over arrays of ``n`` towers.
``stability_mask`` and ``outcome_mask`` apply it to many candidate towers at
once; ``is_stable`` is its n=1 view, which adds a signed clearance per
interface, and ``transition`` builds the candidate tower and calls
``is_stable``. The scalar and batched verdicts therefore agree bit for bit.

The criterion works on per-axis planes: a batch of n towers of B blocks is a
(2, B, n) array, the x plane of block centers and then the y plane, with the
worlds contiguous along the last axis. Every step is then an elementwise
operation over long contiguous rows, and the draws in ``scm`` come out in
the same layout, so ``outcome_mask`` reads them without a transposing copy.
Batches are processed a block of worlds at a time (``core._WORLD_BLOCK``) to
keep the temporaries in cache; a caller with its own workspace hands
``_criterion`` the arrays to work in (``inference._count_hits``). The
COMs may go to the planes themselves: the criterion reads the centers for
the contact corners first, then turns them into COMs in place, so such a
caller keeps no buffer for the COMs. The test ``lo < com < hi`` on each
axis also rules out an empty contact (``lo >= hi``), so the criterion has
no separate overlap test; a contact that closes to an edge (``lo == hi``)
is unstable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (
    Action,
    NullAction,
    PlaceAction,
    TowerState,
    ValidationError,
    _WORLD_BLOCK,
)


@dataclass(frozen=True, slots=True)
class InterfaceCheck:
    """One support-interface test: where the above-group mass acts, the
    contact rectangle it must stay inside, and the signed clearance.

    ``margin`` is the signed distance from ``com_above`` to the rectangle
    boundary, positive strictly inside. Interface 0 is support-to-block-0.
    """

    interface_index: int
    com_above: tuple[float, float]
    support_polygon: tuple[float, float, float, float]
    margin: float


@dataclass(frozen=True, slots=True)
class StabilityResult:
    stable: bool
    checks: tuple[InterfaceCheck, ...]


@dataclass(frozen=True, slots=True)
class TransitionResult:
    s1: TowerState
    outcome: bool
    checks: tuple[InterfaceCheck, ...]

    @property
    def failed_interface(self) -> Optional[int]:
        """Lowest interface whose check failed, None when the tower stood."""
        for check in self.checks:
            if check.margin <= 0.0:
                return check.interface_index
        return None


def rect_margin(px: float, py: float,
                rect: tuple[float, float, float, float]) -> float:
    """Signed distance from (px, py) to the boundary of an axis-aligned
    rectangle, positive inside. Degenerate rectangles (min >= max) are
    treated as empty, so every point is outside."""
    min_x, min_y, max_x, max_y = rect
    qx = max(min_x - px, px - max_x)
    qy = max(min_y - py, py - max_y)
    outside = float(np.hypot(max(qx, 0.0), max(qy, 0.0)))
    inside = min(max(qx, qy), 0.0)
    return -(outside + inside)


def _criterion(planes: np.ndarray, halves: np.ndarray, masses: np.ndarray,
               support_half_extents: tuple[float, float],
               out: Optional[tuple[np.ndarray, ...]] = None
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The stability criterion for ``n`` towers that share specs.

    ``planes`` is (2, B, n): the x plane of block centers, then the y plane,
    fastest when each row runs contiguously over the worlds; ``halves``
    (B, 2) and ``masses`` (B,) apply to every tower. Returns ``(coms, lo,
    hi, stable)``: the above-group COM at each interface and the contact
    rectangle's corners, each (2, B, n), and the (n,) verdict, the AND over
    all 2B (axis, interface) rows. ``out``, when given, is ``(coms, lo, hi,
    flags)``: three float arrays (2, B, n) that take the COMs and corners,
    and a bool array (2, 2, B, n) that takes the comparisons, in place of
    fresh arrays; only the verdict is new. ``coms`` may be ``planes``
    itself: the corners are computed first, while the planes still hold
    the centers, and the COMs then overwrite them. ``lo`` and ``hi`` must
    not overlap ``planes``. The bool array's first (2, B, n) half then
    holds each (axis, interface) row's test ``lo < com < hi``, so its x
    rows AND to the x verdict.

    Above-group COMs are mass-weighted sums accumulated from the top block
    downward. The contact rectangle at interface k is the overlap of block
    k's footprint with the face below it: the support's at interface 0,
    block k-1's above that. A tower stands when every COM lies strictly
    inside its rectangle on both axes, ``lo < com < hi``; that already
    implies a non-empty contact (``lo < hi``), so there is no separate
    overlap test.
    """
    _, nb, n = planes.shape
    coms, lo, hi, flags = (None, None, None, (None, None)) if out is None else out
    # Each block's footprint, then, in place from the top down, clipped by
    # the face below it: block k-1's footprint, and the support's at k = 0.
    h = halves.T[:, :, None]
    lo = np.subtract(planes, h, out=lo)
    hi = np.add(planes, h, out=hi)
    for k in range(nb - 1, 0, -1):
        np.maximum(lo[:, k - 1], lo[:, k], out=lo[:, k])
        np.minimum(hi[:, k - 1], hi[:, k], out=hi[:, k])
    support = np.asarray(support_half_extents, dtype=float)[:, None, None]
    np.maximum(-support, lo[:, :1], out=lo[:, :1])
    np.minimum(support, hi[:, :1], out=hi[:, :1])

    wsum = np.multiply(planes, masses[:, None], out=coms)
    # Top-down running sum, in place: wsum[:, k] becomes the sum over blocks
    # k..B-1. A loop over the B rows adds in the same order as np.cumsum
    # but runs along the contiguous world axis, several times faster.
    for k in range(nb - 2, -1, -1):
        np.add(wsum[:, k + 1], wsum[:, k], out=wsum[:, k])
    msum = np.cumsum(masses[::-1])[::-1]
    coms = np.divide(wsum, msum[:, None], out=wsum)

    inside = np.greater(coms, lo, out=flags[0])
    inside &= np.less(coms, hi, out=flags[1])
    stable = np.logical_and.reduce(inside.reshape(2 * nb, n), axis=0)
    return coms, lo, hi, stable


def is_stable(state: TowerState) -> StabilityResult:
    """Check every interface of a tower, bottom to top: the n=1 view of the
    vectorized criterion, with a signed ``rect_margin`` per interface.

    An invalid geometry (zero footprint overlap somewhere) comes back as
    unstable at the offending interface rather than as an error.
    """
    coms, lo, hi, stable = _criterion(state.centers().T[:, :, None], state.half_extents(),
                                      state.masses(), state.support_half_extents)
    checks = []
    for k, ((px, py), (min_x, min_y), (max_x, max_y)) in enumerate(
            zip(coms[..., 0].T.tolist(), lo[..., 0].T.tolist(), hi[..., 0].T.tolist())):
        rect = (min_x, min_y, max_x, max_y)
        checks.append(InterfaceCheck(k, (px, py), rect, rect_margin(px, py, rect)))
    return StabilityResult(bool(stable[0]), tuple(checks))


def transition(state: TowerState, action: Action, wa: tuple[float, float],
               intended_center: Optional[tuple[float, float]] = None) -> TransitionResult:
    """Apply one action under actuation error ``wa`` and report the outcome.

    A Null action returns the state unchanged with its current stability as
    the outcome. A Place action puts the new block at ``intended_center +
    wa``; by default the intended center is the current top center plus the
    action offset, but callers that plan against a different believed state
    pass the intended center explicitly. A placement with zero footprint
    overlap on the old top block collapses the tower outright, and its only
    check is that top interface; its ``com_above`` is the criterion's group
    COM of the lone block, ``(m * cx) / m``, which may differ from the
    block center in the last bit.
    """
    if state.collapsed:
        raise ValidationError("transition from a collapsed state")

    if isinstance(action, NullAction):
        result = is_stable(state)
        return TransitionResult(state, result.stable, result.checks)

    if not isinstance(action, PlaceAction):
        raise TypeError(f"unknown action type: {action!r}")

    if intended_center is None:
        tx, ty = state.top_center()
        intended_center = (tx + action.offset_x, ty + action.offset_y)
    candidate = state.appended(action.spec, intended_center[0] + wa[0],
                               intended_center[1] + wa[1])
    result = is_stable(candidate)
    s1 = candidate if result.stable else replace(candidate, collapsed=True)
    checks = result.checks
    min_x, min_y, max_x, max_y = checks[-1].support_polygon
    if not (max_x > min_x and max_y > min_y):
        # no contact with the old top: the lower interfaces never bear it
        checks = checks[-1:]
    return TransitionResult(s1, result.stable, checks)


# ---------------------------------------------------------------------------
# Vectorized kernel
# ---------------------------------------------------------------------------


def _blockwise(n: int, verdicts) -> np.ndarray:
    """(n,) verdicts, ``verdicts(start, stop)`` filling one block of worlds
    at a time."""
    stable = np.empty(n, dtype=bool)
    for start in range(0, n, _WORLD_BLOCK):
        stop = min(start + _WORLD_BLOCK, n)
        stable[start:stop] = verdicts(start, stop)
    return stable


def stability_mask(centers: np.ndarray, halves: np.ndarray, masses: np.ndarray,
                   support_half_extents: tuple[float, float]) -> np.ndarray:
    """Stability verdicts for ``n`` towers that share specs but not poses.

    ``centers`` is (n, B, 2); ``halves`` (B, 2) and ``masses`` (B,) apply to
    every tower. Returns an (n,) boolean array, the ``is_stable`` verdict of
    each tower. The criterion reads the planes ``centers.transpose(2, 1,
    0)``, fastest when each plane row is contiguous: Fortran order, or a
    transposed view of C-order (2, B, n) planes.
    """
    planes = centers.transpose(2, 1, 0)
    return _blockwise(len(centers), lambda start, stop: _criterion(
        planes[:, :, start:stop], halves, masses, support_half_extents)[3])


def outcome_mask(s0_centers: np.ndarray, belief_top: np.ndarray, action: Action,
                 wa: np.ndarray, base: TowerState) -> np.ndarray:
    """Episode outcomes for n worlds sharing one base tower's specs.

    ``s0_centers`` (n, B, 2) are the true block poses per world and
    ``belief_top`` (n, 2) the believed top-block center the agent plans
    from (the support origin for an empty tower). For a Place action the
    new block lands at ``belief_top + offset + wa``; Null ignores both.
    """
    halves = base.half_extents()
    masses = base.masses()
    if isinstance(action, NullAction):
        return stability_mask(s0_centers, halves, masses, base.support_half_extents)

    if not isinstance(action, PlaceAction):
        raise TypeError(f"unknown action type: {action!r}")

    n, nb, _ = s0_centers.shape
    s0 = s0_centers.transpose(2, 1, 0)
    offset = np.array([[action.offset_x], [action.offset_y]])
    halves = np.concatenate([halves, [action.spec.half_extents]])
    masses = np.append(masses, action.spec.mass)

    def verdicts(start: int, stop: int) -> np.ndarray:
        planes = np.empty((2, nb + 1, stop - start))
        planes[:, :nb] = s0[:, :, start:stop]
        landing = planes[:, nb]
        np.add(belief_top[start:stop].T, offset, out=landing)
        landing += wa[start:stop].T
        return _criterion(planes, halves, masses, base.support_half_extents)[3]

    return _blockwise(n, verdicts)
