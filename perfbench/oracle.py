"""Reference values computed outside the package under test.

Inputs arrive as the plain data of ``inputs.py`` (never as package objects),
and every verdict on whether a tower stands comes from ``oracle_stable`` in
``tests/oracles.py``. Noise draws come from the benchmark's own generator
(NumPy ``SFC64``, which the package does not use), discrete noise is
enumerated exactly, and the closed forms are the ones in ``tests/oracles.py``.

The generative model restated from the package documentation:

    s0 = belief - ws                    true tower (predict), or z0 - ws (abduction)
    new block = belief_top + offset + wa
    outcome = the tower s0 (+ new block) stands

and a counterfactual replays one abducted world with a single variable
forced, re-deriving the believed top block inside the twin world.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np

from inputs import Case

_ORACLES = None


def oracles():
    """``tests/oracles.py`` of the checkout, loaded read-only by path."""
    global _ORACLES
    if _ORACLES is None:
        path = Path(__file__).resolve().parent.parent / "tests" / "oracles.py"
        spec = importlib.util.spec_from_file_location("causalblocks_test_oracles", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        _ORACLES = module
    return _ORACLES


def own_rng(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(list(key)))


# ---------------------------------------------------------------------------
# One world
# ---------------------------------------------------------------------------


def stands(case: Case, s0, new) -> bool:
    """``s0`` is a list of (x, y) true centers, ``new`` the placed block's
    center or None."""
    blocks = [(b.mass, x, y, b.width / 2.0, b.depth / 2.0)
              for b, (x, y) in zip(case.specs, s0)]
    if new is not None:
        p = case.place
        blocks.append((p.block.mass, new[0], new[1], p.block.width / 2.0, p.block.depth / 2.0))
    return oracles().oracle_stable(blocks, case.support)


def replay(case: Case, ws, wa, target: str = "factual", alt_offset=None) -> bool:
    """Outcome of one world.

    ``ws`` is a list of B (dx, dy) sensing errors, ``wa`` the actuation error.
    ``target`` forces one variable: "actuation" (wa = 0), "sensing" (ws = 0
    in the belief), "action" (offset = ``alt_offset``), "initial_state" (the
    true tower is the recorded belief ``case.belief_centers``).
    """
    z0 = case.centers
    nb = len(z0)
    if target == "initial_state":
        s0 = list(case.belief_centers)
    else:
        s0 = [(z0[i][0] - ws[i][0], z0[i][1] - ws[i][1]) for i in range(nb)]
    if case.place is None:
        return stands(case, s0, None)
    if target in ("sensing", "initial_state"):
        sensed = (0.0, 0.0) if target == "sensing" else ws[-1]
        top = (s0[-1][0] + sensed[0], s0[-1][1] + sensed[1]) if nb else (0.0, 0.0)
    else:
        top = z0[-1] if nb else (0.0, 0.0)
    off = alt_offset if target == "action" else (case.place.offset_x, case.place.offset_y)
    if target == "actuation":
        wa = (0.0, 0.0)
    return stands(case, s0, (top[0] + off[0] + wa[0], top[1] + off[1] + wa[1]))


# ---------------------------------------------------------------------------
# Stability probabilities
# ---------------------------------------------------------------------------


def gaussian_draws(case: Case, m: int, *key: int):
    rng = own_rng(*key)
    ws = rng.standard_normal((m, case.nblocks, 2)) * case.sigma_s
    wa = rng.standard_normal((m, 2)) * case.sigma_a
    return ws, wa


def mc_probability(case: Case, m: int, *key: int) -> float:
    """Independent Monte-Carlo estimate of P(stable | belief, do(action))."""
    ws, wa = gaussian_draws(case, m, *key)
    hits = sum(replay(case, ws[i].tolist(), wa[i].tolist()) for i in range(m))
    return hits / m


def discrete_combinations(case: Case):
    """Every equiprobable (ws, wa) of discrete noise: k^(2B+2) for a Place,
    k^(2B) for Null (which never reads wa)."""
    o = oracles()
    vs = o.discrete_noise_values(case.sigma_s, case.k)
    va = o.discrete_noise_values(case.sigma_a, case.k)
    nb = case.nblocks
    wa_choices = list(itertools.product(va, repeat=2)) if case.place is not None else [(0.0, 0.0)]
    for ws_flat in itertools.product(vs, repeat=2 * nb):
        ws = [(ws_flat[2 * i], ws_flat[2 * i + 1]) for i in range(nb)]
        for wa in wa_choices:
            yield ws, wa


def exact_probability(case: Case) -> float:
    hits = total = 0
    for ws, wa in discrete_combinations(case):
        hits += replay(case, ws, wa)
        total += 1
    return hits / total


def closed_form_probability(case: Case) -> float:
    """Gaussian closed forms: a cube placed on one equal cube, or one block
    alone on a support narrower than itself (Null)."""
    o = oracles()
    if case.closed_form == "two_cube_place":
        half = case.specs[0].width / 2.0
        return o.two_cube_place_probability(case.place.offset_x, case.place.offset_y,
                                            half, case.sigma_s, case.sigma_a)
    if case.closed_form == "plinth_null":
        (x, y), = case.centers
        return (o.interval_probability(-x, case.support[0], case.sigma_s)
                * o.interval_probability(-y, case.support[1], case.sigma_s))
    if case.closed_form == "two_stack_null":
        (x0, y0), (x1, y1) = case.centers
        sigma_rel = math.sqrt(2.0) * case.sigma_s
        half = case.specs[1].width / 2.0
        return (o.interval_probability(x1 - x0, half, sigma_rel)
                * o.interval_probability(y1 - y0, half, sigma_rel))
    raise ValueError(f"no closed form {case.closed_form!r}")


def reference_probability(case: Case, m: int, *key: int) -> tuple[float, int | None]:
    """(p, sample count) with sample count None for exact values."""
    if case.k is not None:
        return exact_probability(case), None
    if case.closed_form is not None:
        return closed_form_probability(case), None
    return mc_probability(case, m, *key), m


# ---------------------------------------------------------------------------
# Twin worlds
# ---------------------------------------------------------------------------


def twin_world_reference(case: Case, outcome: bool, candidates: list[str],
                         m: int, *key: int) -> dict:
    """Acceptance and PN of each candidate for one observed episode.

    Returns {"accept": (p, n or None), "pn": {candidate: (p, n or None)}}.
    Gaussian slots draw ``m`` worlds from the benchmark's generator;
    discrete slots enumerate every world.
    """
    if case.k is not None:
        worlds = list(discrete_combinations(case))
    else:
        ws, wa = gaussian_draws(case, m, *key)
        worlds = [(ws[i].tolist(), wa[i].tolist()) for i in range(m)]
    accepted = [w for w in worlds if replay(case, *w) == outcome]
    exact = case.k is not None
    flips = {}
    for name in candidates:
        flips[name] = sum(replay(case, *w, target=name, alt_offset=(0.0, 0.0)) != outcome
                          for w in accepted)
    n_acc = len(accepted)
    return {
        "accept": (n_acc / len(worlds), None if exact else len(worlds)),
        "pn": {name: (f / n_acc if n_acc else float("nan"), None if exact else n_acc)
               for name, f in flips.items()},
    }


# ---------------------------------------------------------------------------
# Tests with tolerances fixed in advance
# ---------------------------------------------------------------------------

# Every statistical comparison below rejects a correct program with
# probability at most ALPHA, so thousands of comparisons over a set of runs
# leave a false alarm far less likely than one in a hundred thousand.
ALPHA = 1e-9
Z = 6.0  # two-sided normal quantile of about 2e-9


def binomial_ok(p_hat: float, n: int, p: float) -> bool:
    """``p_hat`` is a proportion of ``n`` i.i.d. draws with success
    probability exactly ``p``."""
    k = round(p_hat * n)
    if abs(k - p_hat * n) > 1e-6 * max(1, n):
        return False
    if p <= 0.0 or p >= 1.0:
        return k == round(p * n)
    from scipy.stats import binom

    return binom.cdf(k, n, p) > ALPHA / 2 and binom.sf(k - 1, n, p) > ALPHA / 2


def same_proportion(p1: float, n1: int, p2: float, n2: int) -> bool:
    """Two independent proportions estimate the same probability."""
    pooled = (p1 * n1 + p2 * n2) / (n1 + n2)
    var = pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2)
    if var <= 0.0:
        return p1 == p2
    return abs(p1 - p2) <= Z * math.sqrt(var)


def matches(p_hat: float, n: int, ref: tuple[float, int | None]) -> bool:
    p, m = ref
    if m is None:
        return binomial_ok(p_hat, n, p)
    return same_proportion(p_hat, n, p, m)


def chi2_ok(terms: list[tuple[float, int, tuple[float, int | None]]]) -> bool:
    """Aggregate of many (p_hat, n, reference) comparisons: the sum of
    squared standardized differences against the chi-square tail."""
    stat = 0.0
    df = 0
    for p_hat, n, (p, m) in terms:
        if m is None:
            var = p * (1.0 - p) / n
        else:
            pooled = (p_hat * n + p * m) / (n + m)
            var = pooled * (1.0 - pooled) * (1.0 / n + 1.0 / m)
        if var <= 0.0:
            if p_hat != p:
                return False
            continue
        stat += (p_hat - p) ** 2 / var
        df += 1
    if df == 0:
        return True
    from scipy.stats import chi2

    return chi2.sf(stat, df) > ALPHA
