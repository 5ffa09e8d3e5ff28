"""Interventional stability prediction and next-best placement selection.

``predict_stability`` estimates P(stable | belief, do(action)) by Monte
Carlo over the noise priors. ``stability_heatmap`` sweeps that estimate over
a grid of candidate placement offsets on the believed top block, and
``select_action`` picks the placement: the centroid of all cells whose
estimated probability clears a threshold, falling back to the best single
cell when none does.

Both run through ``_count_hits``: it allocates one workspace per call,
bounded by ``_WORKSPACE_BYTES`` whatever n or the grid, packs the worlds of
every cell end to end into blocks of that workspace, and takes each block
from seeds through draws to the stability criterion without allocating.
A world takes 8 + 52 rows bytes, as the criterion's corners and COMs
reuse the spent stream and the draws, and a call cuts its worlds into the
fewest blocks that fit, of equal size up to one world.
Under discrete noise, when the k^rows support tuples of one axis fit the
block capacity and a cell has many more worlds than tuples, a world's verdict is
instead looked up in per-axis verdict tables, which each cell builds once
from the criterion; the counts are the same bit for bit. Those tables, two
bool arrays of k^rows per cell, are the only arrays allocated besides the
workspace.
Each heatmap cell draws from its own derived seed stream, so a heatmap is
bit-identical to the cell-by-cell predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .core import (
    Action,
    BlockSpec,
    NoiseModel,
    NullAction,
    PlaceAction,
    StabilityHeatmap,
    TowerState,
    ValidationError,
    derive_sample_seed,
    derive_sample_seeds,
)
from .physics import _criterion
from .scm import _draw_support_indices, draw_exogenous_batch


@dataclass(frozen=True, slots=True)
class PredictionEstimate:
    """A Monte-Carlo probability with its binomial standard error."""

    p: float
    stderr: float
    n_samples: int


# Scratch bytes of one ``_count_hits`` call. Its worlds run a block at a
# time through one workspace of this size, allocated per call, so memory
# does not grow with n or the grid and concurrent callers share nothing.
_WORKSPACE_BYTES = 1 << 21

# A cell's discrete-noise worlds are looked up in verdict tables (see
# ``_count_hits``) only when it has at least this many worlds per support
# tuple and this many worlds in all: below either, building the tables, a
# criterion call per cell, costs more than it saves. Timed per prediction
# and per 9x9 heatmap, 1-6 blocks, k = 3-5.
_TABLE_WORLDS_PER_TUPLE = 8
_TABLE_MIN_WORLDS = 3000


def _workspace_layout(rows: int) -> tuple:
    """Leading shape and dtype of each workspace array, per world, for the
    ``rows`` block rows the criterion reads: B for a Null query, B+1 when a
    block is placed. They are its seed; its (2, rows) draws, which turn into
    the kernel's planes in place and then into the criterion's COMs; the
    (2, 2 rows) stream and its scratch for drawing them, which the
    criterion then reuses, viewed as float, for its two (2, rows) planes of
    corners; and the criterion's comparisons over (2, rows)."""
    return (((), np.uint64), ((2, rows), np.float64), ((2, 2 * rows), np.uint64),
            ((2, 2, rows), np.bool_))


def _bytes_per_world(rows: int) -> int:
    """Workspace bytes per world under ``_workspace_layout``."""
    return sum(math.prod(shape) * np.dtype(dtype).itemsize
               for shape, dtype in _workspace_layout(rows))


def _count_hits(belief: TowerState, actions: Sequence[Action],
                cell_seeds: Sequence[int], noise: NoiseModel, n: int,
                stream_label: str) -> list[int]:
    """Stable worlds per cell: cell i scores ``actions[i]`` in the n worlds
    of the seed stream (cell_seeds[i], stream_label, 0..n-1).

    The actions share one kind, and one block spec when they place. The
    cells' worlds are packed end to end into blocks of one workspace: seeds,
    then draws, then in place the true tower ``belief - ws`` and the landing
    ``aim + wa``, then the criterion, whose corners go to the spent stream
    and whose COMs overwrite the tower. Only the rows the criterion reads
    are drawn: a Null query leaves out the actuation row. The call takes as
    few blocks as the workspace budget allows, all of one size up to a
    world, so none is a small tail with a block's fixed cost. Every world
    keeps its own stream, so the counts do not depend on the block size or
    on how cells are packed.

    Under k-point noise, when the T = k^rows support tuples of one axis fit
    the budget's block capacity and n is at least
    ``_TABLE_WORLDS_PER_TUPLE`` T and ``_TABLE_MIN_WORLDS``, worlds are
    scored from per-axis verdict tables instead. The criterion ANDs x-plane
    tests, which read only x centers, with y-plane tests, so a world's x
    verdict depends only on its x support indices, and likewise for y. A cell runs the criterion once on
    its T tuples, computed as draws are; its worlds then need only their
    support indices, and a world stands when the x table at its base-k x
    code and the y table at its y code do. The counts are those of the
    draws, bit for bit. A cell's tables, 2T bools outside the workspace,
    are built when its first world is reached and dropped after its last
    block.
    """
    nb = len(belief)
    halves = belief.half_extents()
    masses = belief.masses()
    place = isinstance(actions[0], PlaceAction)
    if place:
        spec = actions[0].spec
        halves = np.concatenate([halves, [spec.half_extents]])
        masses = np.append(masses, spec.mass)
        tx, ty = belief.top_center()
        aims = [np.array([[tx + a.offset_x], [ty + a.offset_y]]) for a in actions]
    elif not isinstance(actions[0], NullAction):
        raise TypeError(f"unknown action type: {actions[0]!r}")
    rows = nb + place
    total = len(actions) * n
    capacity = max(1, _WORKSPACE_BYTES // _bytes_per_world(rows))
    blocks = -(-total // capacity)
    k = noise.support_points
    # The tables are built in the workspace, so the tuples must fit the
    # block capacity, and the workspace holds at least T worlds. (An empty
    # tower's Null query draws nothing, so it takes the draw path.)
    lookup = (noise.discrete and rows > 0 and k ** rows <= capacity
              and max(_TABLE_WORLDS_PER_TUPLE * k ** rows, _TABLE_MIN_WORLDS) <= n)
    tuples = k ** rows if lookup else 0
    size = max(-(-total // blocks), tuples)
    # One allocation, carved into the workspace arrays: freed whole, it
    # stays in the heap for the next call (glibc raises its mmap threshold
    # to the size of a freed mapping) instead of being handed back to the
    # system, so repeat calls fault in no fresh pages.
    buf = np.empty(size * _bytes_per_world(rows), dtype=np.uint8)
    arrays, offset = [], 0
    for shape, dtype in _workspace_layout(rows):
        nbytes = size * math.prod(shape) * np.dtype(dtype).itemsize
        arrays.append(buf[offset:offset + nbytes].view(dtype).reshape(*shape, size))
        offset += nbytes
    seeds, eps, work, flags = arrays
    centers = belief.centers().T[:, :, None]

    def stable_worlds(m: int, runs) -> np.ndarray:
        """Verdicts of the first m worlds, whose draws are in ``eps``."""
        np.subtract(centers, eps[:, :nb, :m], out=eps[:, :nb, :m])
        if place:
            for cell, a, b in runs:
                eps[:, nb, a:b] += aims[cell]
        corners = work[..., :m].view(np.float64)
        return _criterion(eps[..., :m], halves, masses, belief.support_half_extents,
                          out=(eps[..., :m], corners[:, :rows], corners[:, rows:],
                               flags[..., :m]))[3]

    if lookup:
        grid = noise.support_grid()

        def verdict_table(cell: int) -> np.ndarray:
            """(2, T) x and y verdicts of the cell's support tuples."""
            for r in range(rows):
                # digit r of tuple t in base k, row 0 the most significant
                eps[:, r, :tuples].reshape(2, k ** r, k, -1)[...] = grid[:, None]
            # scaled as ``draw_exogenous_batch`` scales its draws
            eps[:, :nb, :tuples] *= noise.sigma_s
            eps[:, nb:, :tuples] *= noise.sigma_a
            stable_worlds(tuples, [(cell, 0, tuples)])
            # the criterion's per-row ``inside`` flags, ANDed per axis
            return np.logical_and.reduce(flags[0, ..., :tuples], axis=1)

    hits = [0] * len(actions)
    tables = {}
    for block in range(blocks):
        start = total * block // blocks
        m = total * (block + 1) // blocks - start
        # (cell, first, stop) of each cell's run of worlds inside the block
        runs = [(cell, max(start, cell * n) - start, min(start + m, (cell + 1) * n) - start)
                for cell in range(start // n, (start + m - 1) // n + 1)]
        if lookup:
            # only the cells of this block hold tables
            tables = {cell: tables[cell] if cell in tables else verdict_table(cell)
                      for cell, _, _ in runs}
        for cell, a, b in runs:
            derive_sample_seeds(cell_seeds[cell], stream_label, b - a,
                                start=start + a - cell * n, out=seeds[a:b])
        if lookup:
            indices = _draw_support_indices(seeds[:m], rows, k, *work[..., :m])
            # each axis's base-k code, row 0 the most significant, into row 0
            codes = indices[:, 0]
            for r in range(1, rows):
                codes *= np.uint64(k)
                codes += indices[:, r]
            codes = codes.view(np.int64)
            # two rows of the criterion's flags take the looked-up verdicts
            verdicts = flags[0, :, 0, :m]
            for cell, a, b in runs:
                for axis in (0, 1):
                    np.take(tables[cell][axis], codes[axis, a:b], out=verdicts[axis, a:b],
                            mode="clip")
                stable = np.logical_and(verdicts[0, a:b], verdicts[1, a:b],
                                        out=verdicts[0, a:b])
                hits[cell] += int(np.count_nonzero(stable))
        else:
            draw_exogenous_batch(seeds[:m], nb, noise, out=eps[:, :, :m], work=work[..., :m])
            stable = stable_worlds(m, runs)
            for cell, a, b in runs:
                hits[cell] += int(np.count_nonzero(stable[a:b]))
    return hits


@lru_cache(maxsize=1024)
def _proportion(hits: int, n: int) -> tuple[float, float]:
    """``(p, stderr)`` of ``hits`` in ``n`` worlds, stderr sqrt(p(1-p)/n).
    Equal counts share the float objects, so kept estimates do not copy
    them."""
    p = hits / n
    return p, math.sqrt(p * (1.0 - p) / n)


def predict_stability(belief: TowerState, action: Action, noise: NoiseModel,
                      n_samples: int, seed: int,
                      stream_label: str = "predict") -> PredictionEstimate:
    """Estimate P(stable | belief, do(action)) from ``n_samples`` draws.

    Sample i uses the seed stream (stream_label, i); the estimate is the
    plain mean of the per-sample outcomes with stderr sqrt(p(1-p)/n).
    Samples are drawn and scored a block at a time, so memory stays bounded
    in n and the result does not depend on the block size.
    """
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
    (hits,) = _count_hits(belief, [action], [seed], noise, n_samples, stream_label)
    p, stderr = _proportion(hits, n_samples)
    return PredictionEstimate(p=p, stderr=stderr, n_samples=n_samples)


def _axis_offsets(n: int, extent: float) -> np.ndarray:
    # (i - c) * step with integer-or-half c keeps mirrored offsets exact
    # bitwise negations of each other; selection relies on that.
    if n == 1:
        return np.zeros(1)
    c = (n - 1) / 2.0
    step = extent / (n - 1)
    return (np.arange(n) - c) * step


@lru_cache(maxsize=8)
def _grid_cells(extent_x: float, extent_y: float, nx: int, ny: int
                ) -> tuple[tuple[float, float], ...]:
    xs = _axis_offsets(nx, extent_x).tolist()
    ys = _axis_offsets(ny, extent_y).tolist()
    return tuple((x, y) for x in xs for y in ys)


def candidate_grid(belief: TowerState, new_block: BlockSpec, nx: int, ny: int
                   ) -> list[tuple[float, float]]:
    """Uniform nx-by-ny grid of placement offsets spanning the believed top
    block's footprint (the support surface for an empty tower), endpoints
    included, row-major with x as the slow axis. Calls with equal extents
    and dims share the offset tuples, so kept heatmaps do not copy them."""
    if nx < 1 or ny < 1:
        raise ValidationError("grid dimensions must be >= 1")
    top = belief.top
    if top is not None:
        extent_x, extent_y = top.spec.width, top.spec.depth
    else:
        extent_x = 2.0 * belief.support_half_extents[0]
        extent_y = 2.0 * belief.support_half_extents[1]
    return list(_grid_cells(extent_x, extent_y, nx, ny))


def stability_heatmap(belief: TowerState, new_block: BlockSpec,
                      grid: Sequence[tuple[float, float]], noise: NoiseModel,
                      n_per_cell: int, seed: int,
                      dims: tuple[int, int]) -> StabilityHeatmap:
    """``predict_stability`` of a Place at every offset of the nx-by-ny
    ``grid`` (``dims`` = (nx, ny)).

    Cell i is the prediction with master seed ``derive_sample_seed(seed,
    "heatmap-cell", i)``, bit for bit; all cells are scored in one
    ``_count_hits`` call.
    """
    grid = list(grid)
    if not grid:
        raise ValidationError("heatmap grid must be non-empty")
    if n_per_cell < 1:
        raise ValidationError("n_per_cell must be >= 1")
    nx, ny = dims
    if nx * ny != len(grid):
        raise ValidationError(f"dims {dims} do not cover {len(grid)} grid cells")

    actions = [PlaceAction(new_block, ox, oy) for ox, oy in grid]
    cell_seeds = derive_sample_seeds(seed, "heatmap-cell", len(grid)).tolist()
    hits = _count_hits(belief, actions, cell_seeds, noise, n_per_cell, "predict")
    probs, errs = zip(*(_proportion(h, n_per_cell) for h in hits))
    return StabilityHeatmap(
        dims=dims,
        probabilities=probs,
        stderr=errs,
        offsets=tuple(grid),
    )


@dataclass(frozen=True, slots=True)
class SelectionResult:
    """Chosen placement with its (re-estimated) stability probability."""

    action: PlaceAction
    expected_p: float
    admissible_count: int
    fallback: bool


def select_action(heatmap: StabilityHeatmap, belief: TowerState,
                  new_block: BlockSpec, noise: NoiseModel, threshold: float,
                  n_samples: int, seed: int) -> SelectionResult:
    """Pick the placement offset from a heatmap.

    Cells with p >= threshold form the admissible set; the chosen offset is
    its component-wise centroid (exact pairwise cancellation, so a symmetric
    set yields exactly (0, 0)) and expected_p is re-estimated there with a
    fresh derived seed. With an empty admissible set the argmax cell wins,
    ties broken by smallest (offset_x, offset_y).
    """
    if math.isnan(threshold):
        # p >= nan is false for every cell: it would silently take the fallback
        raise ValidationError("threshold must be a number, got nan")
    admissible = [i for i, p in enumerate(heatmap.probabilities) if p >= threshold]
    if admissible:
        xs = [heatmap.offsets[i][0] for i in admissible]
        ys = [heatmap.offsets[i][1] for i in admissible]
        action = PlaceAction(new_block, math.fsum(xs) / len(xs), math.fsum(ys) / len(ys))
        est = predict_stability(belief, action, noise, n_samples,
                                derive_sample_seed(seed, "select-reestimate", 0))
        return SelectionResult(action=action, expected_p=est.p,
                               admissible_count=len(admissible), fallback=False)

    best = min(range(len(heatmap.probabilities)),
               key=lambda i: (-heatmap.probabilities[i], heatmap.offsets[i]))
    ox, oy = heatmap.offsets[best]
    return SelectionResult(
        action=PlaceAction(new_block, ox, oy),
        expected_p=heatmap.probabilities[best],
        admissible_count=0,
        fallback=True,
    )
