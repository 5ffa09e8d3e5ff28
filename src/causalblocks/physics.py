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
)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class StabilityResult:
    stable: bool
    checks: tuple[InterfaceCheck, ...]


@dataclass(frozen=True)
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


def _criterion(centers: np.ndarray, halves: np.ndarray, masses: np.ndarray,
               support_half_extents: tuple[float, float]
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The stability criterion for ``n`` towers that share specs.

    ``centers`` is (n, B, 2); ``halves`` (B, 2) and ``masses`` (B,) apply to
    every tower. Returns ``(coms, lo, hi, ok)``: the above-group COM at each
    interface and the contact rectangle's corners, each (n, B, 2), and the
    (n, B) per-interface verdict (non-empty contact, COM strictly inside).
    Above-group COMs are mass-weighted sums accumulated from the top block
    downward.
    """
    n, nb, _ = centers.shape
    weighted = centers * masses[None, :, None]
    # cum[:, k] = sum over blocks k..B-1, added top-down.
    wsum = np.cumsum(weighted[:, ::-1, :], axis=1)[:, ::-1, :]
    msum = np.cumsum(masses[::-1])[::-1]
    coms = wsum / msum[None, :, None]

    # The support surface sits below block 0, block k-1 below block k.
    support = np.broadcast_to(support_half_extents, (n, 1, 2))
    lower_min = np.concatenate([-support, centers[:, :-1] - halves[:-1]], axis=1)[:, :nb]
    lower_max = np.concatenate([support, centers[:, :-1] + halves[:-1]], axis=1)[:, :nb]

    upper_min = centers - halves[None, :, :]
    upper_max = centers + halves[None, :, :]

    lo = np.maximum(lower_min, upper_min)
    hi = np.minimum(lower_max, upper_max)

    ok = (lo < hi).all(axis=2) & (coms > lo).all(axis=2) & (coms < hi).all(axis=2)
    return coms, lo, hi, ok


def is_stable(state: TowerState) -> StabilityResult:
    """Check every interface of a tower, bottom to top: the n=1 view of the
    vectorized criterion, with a signed ``rect_margin`` per interface.

    An invalid geometry (zero footprint overlap somewhere) comes back as
    unstable at the offending interface rather than as an error.
    """
    coms, lo, hi, ok = _criterion(state.centers()[None], state.half_extents(),
                                  state.masses(), state.support_half_extents)
    checks = []
    for k, ((px, py), (min_x, min_y), (max_x, max_y)) in enumerate(
            zip(coms[0].tolist(), lo[0].tolist(), hi[0].tolist())):
        rect = (min_x, min_y, max_x, max_y)
        checks.append(InterfaceCheck(k, (px, py), rect, rect_margin(px, py, rect)))
    return StabilityResult(bool(ok[0].all()), tuple(checks))


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


def stability_mask(centers: np.ndarray, halves: np.ndarray, masses: np.ndarray,
                   support_half_extents: tuple[float, float]) -> np.ndarray:
    """Stability verdicts for ``n`` towers that share specs but not poses.

    ``centers`` is (n, B, 2); ``halves`` (B, 2) and ``masses`` (B,) apply to
    every tower. Returns an (n,) boolean array, the ``is_stable`` verdict of
    each tower.
    """
    return _criterion(centers, halves, masses, support_half_extents)[3].all(axis=1)


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

    n = s0_centers.shape[0]
    intended = belief_top + np.array([action.offset_x, action.offset_y])
    new_centers = intended + wa
    centers = np.concatenate([s0_centers, new_centers.reshape(n, 1, 2)], axis=1)
    halves = np.concatenate([halves, [action.spec.half_extents]])
    masses = np.append(masses, action.spec.mass)
    return stability_mask(centers, halves, masses, base.support_half_extents)
