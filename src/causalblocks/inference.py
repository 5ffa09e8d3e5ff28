"""Interventional stability prediction and next-best placement selection.

``predict_stability`` estimates P(stable | belief, do(action)) by Monte
Carlo over the noise priors. ``stability_heatmap`` sweeps that estimate over
a grid of candidate placement offsets on the believed top block, and
``select_action`` picks the placement: the centroid of all cells whose
estimated probability clears a threshold, falling back to the best single
cell when none does.

Each heatmap cell draws from its own derived seed stream, so a heatmap is
bit-identical whether cells are computed serially or across any number of
worker processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .core import (
    Action,
    BlockSpec,
    NoiseModel,
    PlaceAction,
    StabilityHeatmap,
    TowerState,
    ValidationError,
    derive_sample_seed,
    derive_sample_seeds,
)
from .physics import outcome_mask
from .scm import draw_exogenous_batch


@dataclass(frozen=True, slots=True)
class PredictionEstimate:
    """A Monte-Carlo probability with its binomial standard error."""

    p: float
    stderr: float
    n_samples: int


_PREDICT_CHUNK = 65536


def predict_stability(belief: TowerState, action: Action, noise: NoiseModel,
                      n_samples: int, seed: int,
                      stream_label: str = "predict") -> PredictionEstimate:
    """Estimate P(stable | belief, do(action)) from ``n_samples`` draws.

    Sample i uses the seed stream (stream_label, i); the estimate is the
    plain mean of the per-sample outcomes with stderr sqrt(p(1-p)/n).
    Samples are drawn and scored in chunks, so memory stays bounded in n
    and the result does not depend on the chunk size.
    """
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
    # Fortran order keeps ``centers - ws`` in the draws' axis-major layout.
    centers = np.asfortranarray(belief.centers())[None, :, :]
    top = np.array(belief.top_center())
    hits = 0
    for start in range(0, n_samples, _PREDICT_CHUNK):
        m = min(_PREDICT_CHUNK, n_samples - start)
        seeds = derive_sample_seeds(seed, stream_label, m, start=start)
        ws, wa = draw_exogenous_batch(seeds, len(belief), noise)
        outcomes = outcome_mask(centers - ws, np.broadcast_to(top, (m, 2)), action, wa,
                                base=belief)
        hits += int(np.count_nonzero(outcomes))
    p = hits / n_samples
    stderr = math.sqrt(p * (1.0 - p) / n_samples)
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


def _heatmap_cell(args) -> tuple[int, float, float]:
    belief, new_block, offset, noise, n_per_cell, cell_seed, index = args
    est = predict_stability(belief, PlaceAction(new_block, offset[0], offset[1]),
                            noise, n_per_cell, cell_seed)
    return (index, est.p, est.stderr)


def _infer_dims(grid: Sequence[tuple[float, float]]) -> tuple[int, int]:
    xs = list(dict.fromkeys(x for x, _ in grid))
    ys = list(dict.fromkeys(y for _, y in grid))
    if len(xs) * len(ys) == len(grid):
        expected = [(x, y) for x in xs for y in ys]
        if all(a == b for a, b in zip(expected, grid)):
            return (len(xs), len(ys))
    return (len(grid), 1)


def stability_heatmap(belief: TowerState, new_block: BlockSpec,
                      grid: Sequence[tuple[float, float]], noise: NoiseModel,
                      n_per_cell: int, seed: int, workers: int = 1,
                      dims: Optional[tuple[int, int]] = None) -> StabilityHeatmap:
    """Run ``predict_stability`` for a Place at every grid offset.

    Cell i draws from the derived stream ("heatmap-cell", i), so results do
    not depend on ``workers``. ``dims`` may be given when the grid is a
    known nx-by-ny product; otherwise it is inferred (a non-product grid is
    treated as a single row).
    """
    grid = list(grid)
    if not grid:
        raise ValidationError("heatmap grid must be non-empty")
    if n_per_cell < 1:
        raise ValidationError("n_per_cell must be >= 1")
    if workers < 1:
        raise ValidationError("workers must be >= 1")
    if dims is None:
        dims = _infer_dims(grid)
    nx, ny = dims
    if nx * ny != len(grid):
        raise ValidationError(f"dims {dims} do not cover {len(grid)} grid cells")

    tasks = [
        (belief, new_block, grid[i], noise, n_per_cell,
         derive_sample_seed(seed, "heatmap-cell", i), i)
        for i in range(len(grid))
    ]
    probs = [0.0] * len(grid)
    errs = [0.0] * len(grid)
    if workers == 1:
        results = map(_heatmap_cell, tasks)
    else:
        # Imported here: the pool pulls in multiprocessing (about 40 modules
        # and 1.4 MB), which callers that never ask for workers do not need.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_heatmap_cell, tasks))
    for index, p, se in results:
        probs[index] = p
        errs[index] = se

    if nx > 1:
        spacing_x = grid[ny][0] - grid[0][0]
    else:
        spacing_x = 0.0
    if ny > 1:
        spacing_y = grid[1][1] - grid[0][1]
    else:
        spacing_y = 0.0
    return StabilityHeatmap(
        origin=grid[0],
        spacing=(spacing_x, spacing_y),
        dims=dims,
        probabilities=tuple(probs),
        stderr=tuple(errs),
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


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value + 0.0:.6f}"  # +0.0 normalizes negative zero


def heatmap_to_csv(heatmap: StabilityHeatmap) -> str:
    """CSV text: header then one row per cell in row-major grid order,
    six fractional digits, LF newlines."""
    lines = ["offset_x,offset_y,p_stable,stderr"]
    for (ox, oy), p, se in zip(heatmap.offsets, heatmap.probabilities, heatmap.stderr):
        lines.append(f"{_fmt(ox)},{_fmt(oy)},{_fmt(p)},{_fmt(se)}")
    return "\n".join(lines) + "\n"


def heatmap_to_pgm(heatmap: StabilityHeatmap) -> str:
    """Plain (P2) PGM: probabilities quantized to 0..255, ny rows of nx
    values, row iy listing cells (0, iy) .. (nx-1, iy)."""
    nx, ny = heatmap.dims
    lines = ["P2", f"{nx} {ny}", "255"]
    for iy in range(ny):
        row = [str(int(round(heatmap.probabilities[ix * ny + iy] * 255)))
               for ix in range(nx)]
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def write_heatmap_csv(heatmap: StabilityHeatmap, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(heatmap_to_csv(heatmap))


def write_heatmap_pgm(heatmap: StabilityHeatmap, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(heatmap_to_pgm(heatmap))
