"""Structural equations of the stacking task and twin-world machinery.

The generative story for one episode:

    s0  (true tower)      exogenous, flat prior
    z0  = s0              recorded state estimate
    s0' = z0 + ws         the belief the agent plans from
    s1  = T(s0, a, wa)    physics on the true state, with the intended
                          placement computed from the believed top block
    y   = s1 stood

Sensor noise matters because the agent aims relative to where it believes
the top block is, while the block lands in the true world. Interventional
queries (``inference.predict_stability``) condition on the belief and
invert it: a hypothesized true state is ``belief - ws``. Counterfactual
queries condition a recorded episode on its observation and outcome:
abduction keeps the noise draws that replay to the observed outcome,
anchoring the replayed belief at ``z0`` exactly (equivalently, sampling
the true state's posterior under a flat prior). ``counterfactual_outcomes``
then replays those worlds with one variable forced.

Every draw comes from a per-sample seed (see ``core.derive_sample_seed``).
A seed keys a counter-based SplitMix64 stream, and all samples of a batch
are drawn in one array computation, so estimates do not depend on batching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    Action,
    EpisodeTrace,
    ExogenousSample,
    GroundTruth,
    InterventionTarget,
    NoiseModel,
    PlaceAction,
    SetAction,
    SetActuationNoise,
    SetInitialState,
    SetSensorNoise,
    TowerState,
    ValidationError,
    derive_sample_seeds,
    _MASK64,
    _SM_GAMMA,
    _WORLD_BLOCK,
    _splitmix64_array,
)
# The trace file codec is in ``formats``; these two are also read here.
from .formats import load_trace, save_trace
from .physics import TransitionResult, outcome_mask, transition


class AbductionFailure(RuntimeError):
    """No exogenous draw consistent with the observed outcome was found
    within the attempt budget."""

    def __init__(self, requested: int, attempts: int):
        super().__init__(
            f"abduction failed: 0 of {attempts} attempts reproduced the "
            f"observed outcome ({requested} samples requested)")
        self.requested = requested
        self.attempts = attempts
        self.accepted = 0


# ---------------------------------------------------------------------------
# Exogenous draws
# ---------------------------------------------------------------------------
#
# Draw contract v3. Sample seed s keys a SplitMix64 stream whose output j is
# splitmix64((s + j * 0x9E3779B97F4A7C15) mod 2^64), i.e. the j-th output of
# a standard SplitMix64 generator seeded at s, so any output is computable
# from (s, j) alone. One episode consumes a (B+1, 2) block of unit draws:
# row r takes outputs 2r (x) and 2r+1 (y); rows 0..B-1 scale by sigma_s into
# the per-block sensing errors, row B scales by sigma_a into the actuation
# error. Each output keeps its top 52 bits, m = out >> 12, so that m + 0.5 is
# exact in float64 and u = (m + 0.5) * 2^-52 lies strictly inside (0, 1).
#
#   Gaussian: Box-Muller on each row, u1 = (m_x + 0.5) * 2^-52, u2 = m_y *
#             2^-52, r = sqrt(-2 ln u1), and v2's angle 2 pi u2 taken through
#             t = tan(pi u2) (NumPy's tan is a vector loop, cos and sin scalar
#             libm): q = r / (1 + t^2), x = q * ((1 - t)(1 + t)), y = q * 2t.
#             v3 is within 1.3e-15 of v2's r * (cos, sin); the last bits
#             follow the platform's tan and log. At u2 = 1/2, t ~ 1.6e16
#             stays finite and x = -r.
#   Discrete: each component indexes the support grid at (m * k) >> 52.
#
# A batch is the same per-seed computation done as array operations, a block
# of seeds at a time, so a batched estimate equals the sample-by-sample one
# bit for bit. The batch is stored axis-major, (2, B+1, n): x outputs, then y.
# A Null prediction reads only the sensing rows 0..B-1, so it draws those
# alone: outputs 2B and 2B+1 are not computed, and every output it does draw
# has the value above. No value changes, so the contract stays v3.

_TWO_M52 = 2.0 ** -52


def _splitmix64_stream(seeds: np.ndarray, count: int, out: Optional[np.ndarray] = None,
                       scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """(n, count) uint64 array: out[i, j] is output j of the stream keyed by
    seeds[i]. It is the transposed view of a C-order (count, n) array, so
    each output index j is one contiguous row over the seeds; that array is
    ``out`` when it is given, and ``scratch`` (its shape) takes the shifts."""
    with np.errstate(over="ignore"):
        steps = np.arange(count, dtype=np.uint64) * np.uint64(_SM_GAMMA)
        return _splitmix64_array(np.add(steps[:, None], seeds[None, :], out=out), scratch).T


def _box_muller(bits: np.ndarray, out: Optional[np.ndarray] = None,
                scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """Standard normals from uint64 pairs along the last axis, written into
    ``out`` (the shape of ``bits``) when it is given. With ``scratch``, a
    float array of that shape, every intermediate goes to ``bits``, ``out``
    or ``scratch`` instead of a fresh array, and ``bits`` is overwritten."""
    if out is None:
        out = np.empty(bits.shape)
    # Where each intermediate goes: x and y into out's halves, the factors
    # of the angle terms into scratch's; None takes a fresh array.
    x, y, s, c = (None,) * 4 if scratch is None else (
        out[..., 0], out[..., 1], scratch[..., 0], scratch[..., 1])
    m = np.right_shift(bits, np.uint64(12), out=None if scratch is None else bits)
    u1 = np.multiply(np.add(m[..., 0], 0.5, out=x), _TWO_M52, out=x)
    radius = np.sqrt(np.multiply(-2.0, np.log(u1, out=x), out=x), out=x)
    # m * (pi 2^-52) is pi * u2 bit for bit (2^-52 scales exactly). tan
    # gets the product's contiguous rows, so it always runs its vector loop.
    t = np.tan(np.multiply(m[..., 1], np.pi * _TWO_M52, out=y), out=y)
    radius /= np.add(1.0, np.multiply(t, t, out=s), out=s)
    cos_factor = np.multiply(np.subtract(1.0, t, out=s), np.add(1.0, t, out=c), out=s)
    np.multiply(radius, np.multiply(2.0, t, out=y), out=out[..., 1])
    np.multiply(radius, cos_factor, out=out[..., 0])
    return out


def _support_indices(bits: np.ndarray, k: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Indices into a k-point support grid, uniform over 0..k-1, written
    into ``out`` (which may be ``bits``) when it is given."""
    shifted = np.right_shift(bits, np.uint64(12), out=out)
    return np.right_shift(np.multiply(shifted, np.uint64(k), out=out), np.uint64(52), out=out)


def _draw_support_indices(seeds: np.ndarray, rows: int, k: int,
                          stream: Optional[np.ndarray] = None,
                          scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """(2, rows, n) uint64 support indices of the draws keyed by ``seeds``,
    axis-major like the draws: [0, r] from stream output 2r, [1, r] from
    2r+1. ``stream`` and ``scratch``, uint64 (2 rows, n) arrays with
    contiguous rows, take the stream and then the indices, which come back
    as a view of ``scratch``; without them the arrays are fresh."""
    bits = _splitmix64_stream(seeds, 2 * rows, stream, scratch)
    # Read through its (2, R, n) view, the stream's rows map to the draws';
    # the indices go to the scratch in the draws' order, so later steps
    # read whole contiguous rows.
    planes = bits.T.reshape(rows, 2, len(seeds)).transpose(1, 0, 2)
    return _support_indices(planes, k, out=None if scratch is None
                            else scratch.reshape(planes.shape))


def draw_exogenous_batch(seeds: np.ndarray, nblocks: int, noise: NoiseModel,
                         out: Optional[np.ndarray] = None, work: Optional[np.ndarray] = None
                         ) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Stacked draws for many seeds: ws (n, B, 2) and wa (n, 2).

    Both are transposed views of one axis-major (2, R, n) array (x plane,
    then y plane, the seeds contiguous along the last axis), the layout the
    physics kernel works in; ``out`` is that array when it is given. R is
    B+1, or B when ``out`` holds only the sensing rows: then the actuation
    row is not drawn and wa is None. With ``work``, a uint64 array
    (2, 2R, n), the stream and every intermediate live in ``work`` and
    ``out``, and the batch is drawn in one pass; without it, a block of
    seeds at a time into fresh arrays.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    n = len(seeds)
    grid = noise.support_grid() if noise.discrete else None
    eps = np.empty((2, nblocks + 1, n)) if out is None else out
    rows = eps.shape[1]
    if rows not in (nblocks, nblocks + 1):
        raise ValueError(f"out holds {rows} rows for a {nblocks}-block tower")
    step = _WORLD_BLOCK if work is None else max(n, 1)
    for start in range(0, n, step):
        stop = min(start + step, n)
        stream, scratch = (None, None) if work is None else work[:, :, start:stop]
        block = eps[:, :, start:stop]
        if grid is None:
            # (m, 2R) view of the (2R, m) stream: row r pairs outputs 2r, 2r+1.
            bits = _splitmix64_stream(seeds[start:stop], 2 * rows, stream, scratch)
            pairs = bits.reshape(stop - start, rows, 2)
            _box_muller(pairs, out=block.transpose(2, 1, 0), scratch=None if scratch is None
                        else scratch.view(np.float64).T.reshape(pairs.shape))
        else:
            indices = _draw_support_indices(seeds[start:stop], rows, noise.support_points,
                                            stream, scratch)
            np.take(grid, indices.view(np.int64), out=block, mode="clip")
    eps[:, :nblocks] *= noise.sigma_s
    eps[:, nblocks:] *= noise.sigma_a
    return eps[:, :nblocks].transpose(2, 1, 0), eps[:, nblocks].T if rows > nblocks else None


def draw_exogenous(seed: int, nblocks: int, noise: NoiseModel) -> ExogenousSample:
    """One draw of (ws, wa) from the noise priors: the n=1 batch, with the
    seed taken mod 2^64."""
    ws, wa = draw_exogenous_batch(np.array([seed & _MASK64], dtype=np.uint64),
                                  nblocks, noise)
    return ExogenousSample(ws=tuple(map(tuple, ws[0].tolist())),
                           wa=tuple(wa[0].tolist()))


# ---------------------------------------------------------------------------
# Forward sampling
# ---------------------------------------------------------------------------


def _intended_center(belief: TowerState, action: Action) -> Optional[tuple[float, float]]:
    if isinstance(action, PlaceAction):
        bx, by = belief.top_center()
        return (bx + action.offset_x, by + action.offset_y)
    return None


def sample_episode(s0: TowerState, action: Action, noise: NoiseModel, seed: int,
                   scenario_id: str = "") -> EpisodeTrace:
    """Run the full generative model once and record everything.

    The belief is the true state plus per-block sensing error; the intended
    placement is computed from the believed top block, the physics from the
    true one.
    """
    s0.validate()
    exo = draw_exogenous(seed, len(s0), noise)
    z0 = s0
    if len(s0):
        belief = s0.with_centers(s0.centers() + exo.ws_array())
    else:
        belief = s0
    result = transition(s0, action, exo.wa,
                        intended_center=_intended_center(belief, action))
    return EpisodeTrace(
        scenario_id=scenario_id,
        z0=z0,
        belief=belief,
        action=action,
        outcome=result.outcome,
        noise=noise,
        ground_truth=GroundTruth(s0=s0, exo=exo, s1=result.s1),
    )


def replay_ground_truth(trace: EpisodeTrace) -> TransitionResult:
    """Deterministically re-run a simulated trace's transition.

    Requires ground truth; useful for reporting which interface failed and
    for checking that stored traces are self-consistent.
    """
    if trace.ground_truth is None:
        raise ValidationError("trace has no ground truth to replay")
    gt = trace.ground_truth
    return transition(gt.s0, trace.action, gt.exo.wa,
                      intended_center=_intended_center(trace.belief, trace.action))


# ---------------------------------------------------------------------------
# Abduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False, slots=True)
class AbductionResult:
    """Exogenous draws consistent with an observed episode.

    ``ws_accepted`` is (N, B, 2) and ``wa_accepted`` (N, 2), transposed
    views of axis-major arrays like the draws; every row replays to the
    observed outcome with the trace's action. The hypothesized true state
    of row i puts each block at ``z0 - ws_accepted[i]``.
    """

    ws_accepted: np.ndarray
    wa_accepted: np.ndarray
    acceptance_rate: float
    requested: int
    accepted: int
    attempts: int

    def __post_init__(self) -> None:
        self.ws_accepted.setflags(write=False)
        self.wa_accepted.setflags(write=False)

    def __len__(self) -> int:
        return self.accepted


_ABDUCT_CHUNK = 8192


def default_attempt_budget(n_requested: int) -> int:
    return max(100 * n_requested, 10_000)


def abduct(trace: EpisodeTrace, noise: NoiseModel, n_requested: int, seed: int,
           max_attempts: Optional[int] = None) -> AbductionResult:
    """Posterior draws of (ws, wa) given the trace's observation and outcome.

    The observation is conditioned on exactly by inversion (each candidate
    world reconstructs its true state as ``z0 - ws``, so its belief is
    ``z0`` by construction); the binary outcome is conditioned on by
    rejection. Attempt i uses the seed stream ("abduct", i), and the result
    is identical however the attempts are batched. Raises AbductionFailure
    if the budget is exhausted with no acceptance.
    """
    if n_requested <= 0:
        raise ValidationError("n_requested must be positive")
    if trace.z0.collapsed:
        raise ValidationError("cannot abduct from a collapsed observation")
    budget = default_attempt_budget(n_requested) if max_attempts is None else max_attempts
    if budget < 1:
        raise ValidationError("attempt budget must be positive")

    z0 = trace.z0
    nb = len(z0)
    # Fortran order keeps ``z0_centers - ws`` in the draws' axis-major layout.
    z0_centers = np.asfortranarray(z0.centers())
    belief_top = np.array(z0.top_center())

    # Accepted draws are gathered as (2, B, k) and (2, k) planes.
    ws_chunks: list[np.ndarray] = []
    wa_chunks: list[np.ndarray] = []
    attempts = 0
    accepted = 0
    while attempts < budget and accepted < n_requested:
        m = min(_ABDUCT_CHUNK, budget - attempts)
        seeds = derive_sample_seeds(seed, "abduct", m, start=attempts)
        # The chunk is drawn and scored a block of worlds at a time, so the
        # working set does not grow with it; only the hits are kept.
        hits, ws_hits, wa_hits = [], [], []
        for start in range(0, m, _WORLD_BLOCK):
            ws, wa = draw_exogenous_batch(seeds[start:start + _WORLD_BLOCK], nb, noise)
            outcomes = outcome_mask(z0_centers[None, :, :] - ws,
                                    np.broadcast_to(belief_top, wa.shape),
                                    trace.action, wa, base=z0)
            block_hits = np.flatnonzero(outcomes == trace.outcome)
            hits.append(start + block_hits)
            ws_hits.append(np.take(ws.transpose(2, 1, 0), block_hits, axis=2))
            wa_hits.append(np.take(wa.T, block_hits, axis=1))
        hits = np.concatenate(hits)
        keep = len(hits)
        if accepted + keep >= n_requested:
            keep = n_requested - accepted
            # Count only the attempts up to and including the one that
            # filled the request; keeps results batch-size independent.
            attempts += int(hits[keep - 1]) + 1
        else:
            attempts += m
        if keep:
            ws_chunks.append(np.concatenate(ws_hits, axis=2)[:, :, :keep])
            wa_chunks.append(np.concatenate(wa_hits, axis=1)[:, :keep])
            accepted += keep

    if accepted == 0:
        raise AbductionFailure(n_requested, attempts)

    return AbductionResult(
        ws_accepted=np.concatenate(ws_chunks, axis=2).transpose(2, 1, 0),
        wa_accepted=np.concatenate(wa_chunks, axis=1).T,
        acceptance_rate=accepted / attempts,
        requested=n_requested,
        accepted=accepted,
        attempts=attempts,
    )


# ---------------------------------------------------------------------------
# Interventions and counterfactual replay
# ---------------------------------------------------------------------------


def counterfactual_outcomes(trace: EpisodeTrace, target: InterventionTarget,
                            abduction: AbductionResult) -> np.ndarray:
    """Replay every abducted world with one variable forced.

    All non-intervened exogenous values keep their abducted draws; the
    belief is re-derived inside each twin world (true state plus its
    sensing error), so upstream interventions propagate downstream. Returns
    the boolean outcome per abducted sample.
    """
    if abduction.accepted == 0:
        raise ValidationError("abduction carries no samples")
    z0 = trace.z0
    nb = len(z0)
    n = abduction.accepted
    ws = abduction.ws_accepted
    wa = abduction.wa_accepted
    z0_centers = np.asfortranarray(z0.centers())

    action = trace.action
    base = z0

    if isinstance(target, SetAction):
        action = target.action
        s0 = z0_centers[None, :, :] - ws
        belief_top = np.broadcast_to(np.array(z0.top_center()), (n, 2))
    elif isinstance(target, SetActuationNoise):
        s0 = z0_centers[None, :, :] - ws
        belief_top = np.broadcast_to(np.array(z0.top_center()), (n, 2))
        wa = np.broadcast_to(np.array(target.wa, dtype=float), (n, 2))
    elif isinstance(target, SetSensorNoise):
        if len(target.ws) != nb:
            raise ValidationError(
                f"sensor-noise intervention has {len(target.ws)} entries "
                f"for a {nb}-block tower")
        ws_forced = np.array(target.ws, dtype=float).reshape(nb, 2)
        s0 = z0_centers[None, :, :] - ws
        if nb:
            belief_top = s0[:, -1, :] + ws_forced[-1]
        else:
            belief_top = np.zeros((n, 2))
    elif isinstance(target, SetInitialState):
        if len(target.s0) != nb:
            raise ValidationError(
                f"initial-state intervention has {len(target.s0)} blocks "
                f"for a {nb}-block tower")
        base = target.s0
        forced = target.s0.centers()
        s0 = np.broadcast_to(forced[None, :, :], (n, nb, 2))
        if nb:
            belief_top = forced[-1] + ws[:, -1, :]
        else:
            belief_top = np.zeros((n, 2))
    else:
        raise TypeError(f"unknown intervention target: {target!r}")

    return outcome_mask(s0, belief_top, action, wa, base=base)
