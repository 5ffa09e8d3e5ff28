"""Domain types and the deterministic seeding contract.

Everything downstream (physics, sampling, inference, explanation) is built
on the value types defined here. All types are immutable, so they can be
shared freely between concurrent workers.

Units are meters and kilograms throughout. A tower is a single column of
axis-aligned cuboids, bottom first; vertical positions are implied by the
stacking order, so a block's pose is just its (x, y) center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from statistics import NormalDist
from typing import Optional, Union

import numpy as np


class ValidationError(ValueError):
    """A domain value violates one of its invariants."""


class SchemaError(ValidationError):
    """A JSON document does not match the documented schema."""


# ---------------------------------------------------------------------------
# Seeding contract
# ---------------------------------------------------------------------------
#
# Every random draw in this package comes from a per-sample seed
# ``derive_sample_seed(master_seed, stream_label, sample_index)`` (see
# ``scm`` for how a seed becomes noise draws). The mix is
# a splitmix64 avalanche chain, fixed here so any implementation (or another
# language) can reproduce the exact seed stream:
#
#   state = splitmix64(master_seed mod 2^64)
#   for each UTF-8 byte b of stream_label:  state = splitmix64(state XOR b)
#   seed  = splitmix64(state XOR (sample_index mod 2^64))
#
# where splitmix64(x) is the standard finalizer:
#
#   x += 0x9E3779B97F4A7C15                 (all arithmetic mod 2^64)
#   x = (x XOR (x >> 30)) * 0xBF58476D1CE4E5B9
#   x = (x XOR (x >> 27)) * 0x94D049BB133111EB
#   return x XOR (x >> 31)
#
# Because each sample owns its seed, estimates are bit-identical no matter
# how samples are batched.

_MASK64 = (1 << 64) - 1
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MUL1 = 0xBF58476D1CE4E5B9
_SM_MUL2 = 0x94D049BB133111EB

# Worlds per pass of the allocating paths of the vectorized draws and
# stability kernel (``draw_exogenous_batch`` without a workspace,
# ``stability_mask``, ``outcome_mask``), which abduction and replay use.
# Each pass allocates a dozen or so (2, B, block) temporaries; at this size
# they stay in cache and are reused from the heap, and memory stays bounded
# however many worlds a batch holds. Prediction and the heatmap run in a
# workspace instead (``inference._WORKSPACE_BYTES``). Results do not depend
# on either.
_WORLD_BLOCK = 2048


def _splitmix64(x: int) -> int:
    x = (x + _SM_GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * _SM_MUL1) & _MASK64
    x = ((x ^ (x >> 27)) * _SM_MUL2) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def _splitmix64_array(x: np.ndarray, scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """``_splitmix64`` applied elementwise to a fresh uint64 array, in place;
    ``scratch``, an array of its shape, takes the shifts when it is given."""
    with np.errstate(over="ignore"):
        x += np.uint64(_SM_GAMMA)
        x ^= np.right_shift(x, np.uint64(30), out=scratch)
        x *= np.uint64(_SM_MUL1)
        x ^= np.right_shift(x, np.uint64(27), out=scratch)
        x *= np.uint64(_SM_MUL2)
        x ^= np.right_shift(x, np.uint64(31), out=scratch)
    return x


def _label_state(master_seed: int, stream_label: str) -> int:
    state = _splitmix64(master_seed & _MASK64)
    for b in stream_label.encode("utf-8"):
        state = _splitmix64(state ^ b)
    return state


def derive_sample_seed(master_seed: int, stream_label: str, sample_index: int) -> int:
    """Derive the 64-bit seed for one (stream, sample) pair.

    Pure function of its arguments; distinct (label, index) pairs produce
    distinct seeds with overwhelming probability.
    """
    return _splitmix64(_label_state(master_seed, stream_label) ^ (sample_index & _MASK64))


def derive_sample_seeds(master_seed: int, stream_label: str, n: int, start: int = 0,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
    """Vectorized ``derive_sample_seed`` for indices ``start .. start+n-1``.

    Returns a uint64 array, ``out`` when it is given; ``out[i] ==
    derive_sample_seed(master, label, start + i)`` exactly.
    """
    state = np.uint64(_label_state(master_seed, stream_label))
    return _splitmix64_array(np.bitwise_xor(np.arange(start, start + n, dtype=np.uint64),
                                            state, out=out))


# ---------------------------------------------------------------------------
# Blocks and towers
# ---------------------------------------------------------------------------


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True, slots=True)
class BlockSpec:
    """A cuboid block: extents along x/y/z, mass, and a display color."""

    id: str
    width: float
    depth: float
    height: float
    mass: float
    color: str = "gray"

    def __post_init__(self) -> None:
        for name in ("width", "depth", "height", "mass"):
            value = getattr(self, name)
            _require_finite(name, value)
            if value <= 0.0:
                raise ValidationError(f"BlockSpec {self.id!r}: {name} must be > 0, got {value}")

    @property
    def half_extents(self) -> tuple[float, float]:
        """Footprint half extents (width/2, depth/2)."""
        return (self.width / 2.0, self.depth / 2.0)


@dataclass(frozen=True, slots=True)
class PlacedBlock:
    """A block at a world-frame (x, y) center; z follows from stacking order."""

    spec: BlockSpec
    center_x: float
    center_y: float

    def __post_init__(self) -> None:
        _require_finite("center_x", self.center_x)
        _require_finite("center_y", self.center_y)

    @property
    def center(self) -> tuple[float, float]:
        return (self.center_x, self.center_y)

    def footprint(self) -> tuple[float, float, float, float]:
        """Axis-aligned footprint as (min_x, min_y, max_x, max_y)."""
        hx, hy = self.spec.half_extents
        return (self.center_x - hx, self.center_y - hy, self.center_x + hx, self.center_y + hy)


def _footprint_overlap_positive(a: tuple[float, float, float, float],
                                b: tuple[float, float, float, float]) -> bool:
    return min(a[2], b[2]) > max(a[0], b[0]) and min(a[3], b[3]) > max(a[1], b[1])


@dataclass(frozen=True, slots=True)
class TowerState:
    """A single-column tower on a finite rectangular support surface.

    ``blocks`` is ordered bottom to top. The support surface is centered at
    the origin with the given half extents; a very large extent approximates
    an unbounded table. ``collapsed`` marks a terminal failed state whose
    block poses are no longer meaningful.
    """

    blocks: tuple[PlacedBlock, ...]
    support_half_extents: tuple[float, float] = (0.5, 0.5)
    collapsed: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(self.blocks))
        hx, hy = self.support_half_extents
        if not (hx > 0.0 and hy > 0.0):
            raise ValidationError("support_half_extents must be positive")
        ids = [b.spec.id for b in self.blocks]
        if len(set(ids)) != len(ids):
            raise ValidationError(f"duplicate block ids in tower: {ids}")

    def validate(self) -> None:
        """Reject a non-collapsed tower with any zero-overlap adjacent pair.

        Raises ValidationError; collapsed towers are exempt (their geometry
        is no longer a stack).
        """
        if self.collapsed or not self.blocks:
            return
        support = (-self.support_half_extents[0], -self.support_half_extents[1],
                   self.support_half_extents[0], self.support_half_extents[1])
        if not _footprint_overlap_positive(self.blocks[0].footprint(), support):
            raise ValidationError("block 0 does not overlap the support surface")
        for k in range(1, len(self.blocks)):
            lower = self.blocks[k - 1].footprint()
            upper = self.blocks[k].footprint()
            if not _footprint_overlap_positive(lower, upper):
                raise ValidationError(
                    f"blocks {k - 1} and {k} have zero footprint overlap")

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def top(self) -> Optional[PlacedBlock]:
        return self.blocks[-1] if self.blocks else None

    def top_center(self) -> tuple[float, float]:
        """Center of the top block, or the support origin for an empty tower."""
        if self.blocks:
            return self.blocks[-1].center
        return (0.0, 0.0)

    def centers(self) -> np.ndarray:
        """(B, 2) array of block centers, bottom first."""
        return np.array([[b.center_x, b.center_y] for b in self.blocks], dtype=float).reshape(len(self.blocks), 2)

    def masses(self) -> np.ndarray:
        return np.array([b.spec.mass for b in self.blocks], dtype=float)

    def half_extents(self) -> np.ndarray:
        """(B, 2) array of footprint half extents, bottom first."""
        return np.array([b.spec.half_extents for b in self.blocks], dtype=float).reshape(len(self.blocks), 2)

    def with_centers(self, centers: np.ndarray) -> "TowerState":
        """Copy of this tower with block centers replaced (same specs)."""
        if centers.shape != (len(self.blocks), 2):
            raise ValidationError(f"centers must have shape ({len(self.blocks)}, 2)")
        blocks = tuple(
            PlacedBlock(b.spec, float(c[0]), float(c[1]))
            for b, c in zip(self.blocks, centers)
        )
        return replace(self, blocks=blocks)

    def appended(self, spec: BlockSpec, center_x: float, center_y: float,
                 collapsed: bool = False) -> "TowerState":
        """Copy with one more block on top."""
        block = PlacedBlock(spec, center_x, center_y)
        return replace(self, blocks=self.blocks + (block,), collapsed=collapsed)


# ---------------------------------------------------------------------------
# Actions and interventions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class NullAction:
    """Leave the tower untouched (the no-op stability query)."""


@dataclass(frozen=True, slots=True)
class PlaceAction:
    """Place ``spec`` with its center at the believed top-block center plus
    (offset_x, offset_y); on an empty tower the offset is relative to the
    support origin."""

    spec: BlockSpec
    offset_x: float
    offset_y: float

    def __post_init__(self) -> None:
        _require_finite("offset_x", self.offset_x)
        _require_finite("offset_y", self.offset_y)

    @property
    def offset(self) -> tuple[float, float]:
        return (self.offset_x, self.offset_y)


Action = Union[NullAction, PlaceAction]

NULL_ACTION = NullAction()


@dataclass(frozen=True, slots=True)
class SetAction:
    """Force the agent's action."""

    action: Action


@dataclass(frozen=True, slots=True)
class SetSensorNoise:
    """Force the per-block sensing errors (one (dx, dy) per block)."""

    ws: tuple[tuple[float, float], ...]


@dataclass(frozen=True, slots=True)
class SetActuationNoise:
    """Force the placement error."""

    wa: tuple[float, float]


@dataclass(frozen=True, slots=True)
class SetInitialState:
    """Force the true initial tower."""

    s0: TowerState


InterventionTarget = Union[SetAction, SetSensorNoise, SetActuationNoise, SetInitialState]


# ---------------------------------------------------------------------------
# Noise
# ---------------------------------------------------------------------------


# A discrete draw indexes the support as (m * k) >> 52 with a 52-bit m in
# uint64 arithmetic, which stays exact only while k <= 2^12.
MAX_SUPPORT_POINTS = 4096


@dataclass(frozen=True, slots=True)
class NoiseModel:
    """Zero-mean sensor and actuation noise, i.i.d. per block and per axis.

    ``sigma_s`` scales the per-block sensing error, ``sigma_a`` the placement
    error. By default each component is Gaussian. When ``support_points`` is
    set, each component instead takes one of that many equiprobable values
    (the sigma-scaled Gaussian quantile midpoints); this discrete mode keeps
    the full sampling machinery exactly enumerable, which is what the
    enumeration oracles in the test suite check against.
    """

    sigma_s: float
    sigma_a: float
    support_points: Optional[int] = None

    def __post_init__(self) -> None:
        _require_finite("sigma_s", self.sigma_s)
        _require_finite("sigma_a", self.sigma_a)
        if not (self.sigma_s >= 0.0) or not (self.sigma_a >= 0.0):
            raise ValidationError("noise sigmas must be >= 0")
        for name in ("sigma_s", "sigma_a"):
            value = getattr(self, name)
            # a unit draw is below 8.6 in size: the scaled draws stay inside
            # float range, with room for the kernel's mass-weighted sums
            if value > 1e300:
                raise ValidationError(f"{name} must be at most 1e300, got {value!r}")
        if self.support_points is not None and not (1 <= self.support_points <= MAX_SUPPORT_POINTS):
            raise ValidationError(
                f"support_points must be between 1 and {MAX_SUPPORT_POINTS} when given")

    @property
    def discrete(self) -> bool:
        return self.support_points is not None

    def support_grid(self) -> np.ndarray:
        """Unit support values for discrete mode (scaled by sigma at draw
        time): one read-only array per k, shared by every call."""
        if self.support_points is None:
            raise ValidationError("support_grid is only defined in discrete mode")
        return _support_grid(self.support_points)


@lru_cache(maxsize=64)
def _support_grid(k: int) -> np.ndarray:
    inv_cdf = NormalDist().inv_cdf
    grid = np.array([inv_cdf((j + 0.5) / k) for j in range(k)])
    grid.setflags(write=False)
    return grid


@dataclass(frozen=True, slots=True)
class ExogenousSample:
    """Concrete noise draws for one episode: per-block sensing error and one
    actuation error."""

    ws: tuple[tuple[float, float], ...]
    wa: tuple[float, float]

    def __post_init__(self) -> None:
        for dx, dy in self.ws:
            _require_finite("ws", dx)
            _require_finite("ws", dy)
        for value in self.wa:
            _require_finite("wa", value)

    def ws_array(self) -> np.ndarray:
        return np.array(self.ws, dtype=float).reshape(len(self.ws), 2)

    def wa_array(self) -> np.ndarray:
        return np.array(self.wa, dtype=float)


# ---------------------------------------------------------------------------
# Episodes, heatmaps and scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class GroundTruth:
    """What actually happened in a simulated episode."""

    s0: TowerState
    exo: ExogenousSample
    s1: TowerState


@dataclass(frozen=True, slots=True)
class EpisodeTrace:
    """One full run of the generative model.

    ``z0`` is the recorded state estimate, ``belief`` the noise-corrupted
    state the agent acted on, ``outcome`` True when the tower stood.
    ``ground_truth`` is present exactly when the trace came from simulation.
    ``noise`` records the generating noise model so post-hoc analysis of a
    trace file needs no side channel.
    """

    scenario_id: str
    z0: TowerState
    belief: TowerState
    action: Action
    outcome: bool
    noise: NoiseModel
    ground_truth: Optional[GroundTruth] = None


@dataclass(frozen=True, slots=True)
class StabilityHeatmap:
    """Per-cell stability probabilities over a grid of placement offsets.

    ``dims`` are the (nx, ny) counts. ``probabilities`` and ``stderr`` are
    row-major with x as the slow axis: cell (ix, iy) lives at index
    ``ix * ny + iy``. ``offsets`` stores the exact offsets, relative to the
    believed top-block center, that the cells were evaluated at (symmetric
    grids are bitwise symmetric, which downstream selection relies on).
    """

    dims: tuple[int, int]
    probabilities: tuple[float, ...]
    stderr: tuple[float, ...]
    offsets: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        nx, ny = self.dims
        n = nx * ny
        if len(self.probabilities) != n or len(self.stderr) != n or len(self.offsets) != n:
            raise ValidationError("heatmap arrays must have nx*ny entries")
        if any(not (0.0 <= p <= 1.0) for p in self.probabilities):
            raise ValidationError("probabilities must lie in [0, 1]")
        if any(se < 0.0 for se in self.stderr):
            raise ValidationError("stderr must be non-negative")

    def prob_grid(self) -> np.ndarray:
        """(nx, ny) array view of the probabilities."""
        nx, ny = self.dims
        return np.array(self.probabilities, dtype=float).reshape(nx, ny)


@dataclass(frozen=True, slots=True)
class Scenario:
    """A tower, the blocks still to be placed, and the ambient noise."""

    scenario_id: str
    tower: TowerState
    pending_blocks: tuple[BlockSpec, ...]
    noise: NoiseModel

    def pending_by_id(self, block_id: str) -> BlockSpec:
        for spec in self.pending_blocks:
            if spec.id == block_id:
                return spec
        raise KeyError(block_id)
