"""Post-hoc counterfactual explanations of an observed episode.

Given a recorded trace, the engine abducts noise draws consistent with the
observed outcome once, then scores a small set of single-variable
counterfactual settings on those shared worlds: perfect actuation, perfect
sensing, an alternative placement, and the world exactly as believed. Each
candidate gets a probability of necessity (the outcome flips) and of
necessity-and-sufficiency (the factual setting reproduces the outcome and
the counterfactual flips it); under hard abduction the factual replay
succeeds in every world, so the two coincide. Candidates are ranked by PNS
and rendered as fixed-template sentences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

from .core import (
    Action,
    EpisodeTrace,
    NoiseModel,
    PlaceAction,
    ValidationError,
)
from .scm import (
    AbductionResult,
    InterventionTarget,
    SetAction,
    SetActuationNoise,
    SetInitialState,
    SetSensorNoise,
    abduct,
    action_to_dict,
    counterfactual_outcomes,
    tower_to_dict,
)


@dataclass(frozen=True, slots=True)
class Explanation:
    """One scored counterfactual setting.

    ``pn`` is the fraction of abducted worlds whose outcome flips under the
    setting; ``pns`` additionally requires the factual replay to reproduce
    the observed outcome in the same world (always true under hard
    abduction, so pns == pn there, and pns <= pn in general).
    """

    target: InterventionTarget
    factual_summary: str
    pn: float
    pns: float
    n_samples: int
    observed_outcome: bool
    text: str


def _cm(value: float) -> str:
    return f"{value * 100.0:.2f} cm"


def _zero_ws(nblocks: int) -> tuple[tuple[float, float], ...]:
    return tuple((0.0, 0.0) for _ in range(nblocks))


def enumerate_candidates(trace: EpisodeTrace,
                         heatmap_best: Optional[Action] = None
                         ) -> list[InterventionTarget]:
    """Default candidate causes for a trace, in fixed order: perfect
    actuation, perfect sensing, an alternative action (``heatmap_best`` or
    the centered placement), and the tower as believed.

    Candidates equal to the factual realization are dropped (factual noise
    and true state are only known for simulated traces; without ground
    truth the noise candidates are kept). An alternative action equal to
    the factual one falls back to the centered placement, and is dropped if
    that is still the factual action; a Null factual action without
    ``heatmap_best`` yields no action candidate at all, since there is no
    block to center.
    """
    nb = len(trace.z0)
    exo = trace.ground_truth.exo if trace.ground_truth is not None else None
    candidates: list[InterventionTarget] = []

    perfect_wa = (0.0, 0.0)
    if exo is None or exo.wa != perfect_wa:
        candidates.append(SetActuationNoise(perfect_wa))

    perfect_ws = _zero_ws(nb)
    if exo is None or exo.ws != perfect_ws:
        candidates.append(SetSensorNoise(perfect_ws))

    centered = (PlaceAction(trace.action.spec, 0.0, 0.0)
                if isinstance(trace.action, PlaceAction) else None)
    alternative = heatmap_best if heatmap_best is not None else centered
    if alternative == trace.action:
        alternative = centered
    if alternative is not None and alternative != trace.action:
        candidates.append(SetAction(alternative))

    true_s0 = trace.ground_truth.s0 if trace.ground_truth is not None else None
    if true_s0 is None or trace.belief != true_s0:
        candidates.append(SetInitialState(trace.belief))

    return candidates


def _factual_summary(trace: EpisodeTrace, target: InterventionTarget) -> str:
    exo = trace.ground_truth.exo if trace.ground_truth is not None else None
    if isinstance(target, SetActuationNoise):
        if exo is None:
            return "actuation error unrecorded"
        return f"actuation error ({_cm(exo.wa[0])}, {_cm(exo.wa[1])})"
    if isinstance(target, SetSensorNoise):
        if exo is None:
            return "sensing errors unrecorded"
        worst = max((math.hypot(dx, dy) for dx, dy in exo.ws), default=0.0)
        return f"sensing errors up to {_cm(worst)}"
    if isinstance(target, SetAction):
        a = trace.action
        if isinstance(a, PlaceAction):
            return f"placed {a.spec.id} at offset ({_cm(a.offset_x)}, {_cm(a.offset_y)})"
        return "took no action"
    if isinstance(target, SetInitialState):
        if trace.ground_truth is None:
            return "true initial tower unrecorded"
        return "true initial tower differed from the belief"
    raise TypeError(f"unknown intervention target: {target!r}")


def _counterfactual_clause(target: InterventionTarget) -> str:
    if isinstance(target, SetActuationNoise):
        if target.wa == (0.0, 0.0):
            return "Had actuation been exact"
        return f"Had the actuation error been ({_cm(target.wa[0])}, {_cm(target.wa[1])})"
    if isinstance(target, SetSensorNoise):
        if all(pair == (0.0, 0.0) for pair in target.ws):
            return "Had sensing been exact"
        return "Had the sensing errors taken the alternative values"
    if isinstance(target, SetAction):
        a = target.action
        if isinstance(a, PlaceAction):
            return (f"Had {a.spec.id} been placed at offset "
                    f"({_cm(a.offset_x)}, {_cm(a.offset_y)})")
        return "Had no block been placed"
    if isinstance(target, SetInitialState):
        return "Had the tower truly been as believed"
    raise TypeError(f"unknown intervention target: {target!r}")


def render_explanation(e: Explanation) -> str:
    """Fixed sentence per target variant, stable across runs."""
    return _sentence(_counterfactual_clause(e.target), e.pn, e.n_samples,
                     e.observed_outcome)


# Sentences recur across reports (a few clauses, n + 1 PN values): share them.
@lru_cache(maxsize=1024)
def _sentence(clause: str, pn: float, n_samples: int, observed_outcome: bool) -> str:
    stats = f"(PN={pn:.2f}, N={n_samples})"
    if pn == 0.0:
        return f"{clause}, the outcome would likely have been the same {stats}."
    flipped = "stood" if not observed_outcome else "fallen"
    verb = "would have stood" if flipped == "stood" else "would have fallen"
    return (f"{clause}, the tower {verb} in {pn:.0%} of "
            f"consistent worlds {stats}.")


def score_candidates(trace: EpisodeTrace, candidates: list[InterventionTarget],
                     abduction: AbductionResult) -> list[Explanation]:
    """Score candidates on one shared abduction and rank them.

    Sorted by pns descending, ties by pn then enumeration order.
    """
    if not candidates:
        raise ValidationError("no counterfactual candidates to score")
    # Factual replay; reproduces the observed outcome in every abducted
    # world by construction, making pns coincide with pn.
    factual = counterfactual_outcomes(trace, SetAction(trace.action), abduction)
    factual_ok = factual == trace.outcome
    n = abduction.accepted

    scored: list[tuple[tuple, Explanation]] = []
    for i, target in enumerate(candidates):
        outcomes = counterfactual_outcomes(trace, target, abduction)
        flips = outcomes != trace.outcome
        pn = float(flips.mean())
        pns = float((factual_ok & flips).mean())
        e = Explanation(
            target=target,
            factual_summary=_factual_summary(trace, target),
            pn=pn,
            pns=pns,
            n_samples=n,
            observed_outcome=trace.outcome,
            text="",
        )
        scored.append(((-pns, -pn, i), replace(e, text=render_explanation(e))))

    scored.sort(key=lambda item: item[0])
    return [e for _, e in scored]


def explain_with_abduction(trace: EpisodeTrace, noise: NoiseModel,
                           n_samples: int, seed: int,
                           heatmap_best: Optional[Action] = None,
                           max_attempts: Optional[int] = None
                           ) -> tuple[list[Explanation], AbductionResult]:
    """Abduct once, then score the default candidates on the shared worlds."""
    candidates = enumerate_candidates(trace, heatmap_best)
    if not candidates:
        raise ValidationError(
            "every candidate equals its factual value; nothing to explain")
    abduction = abduct(trace, noise, n_samples, seed, max_attempts=max_attempts)
    return score_candidates(trace, candidates, abduction), abduction


def explain(trace: EpisodeTrace, noise: NoiseModel, n_samples: int, seed: int,
            heatmap_best: Optional[Action] = None,
            max_attempts: Optional[int] = None) -> list[Explanation]:
    """Ranked counterfactual explanations of a trace (see module docs)."""
    explanations, _ = explain_with_abduction(
        trace, noise, n_samples, seed,
        heatmap_best=heatmap_best, max_attempts=max_attempts)
    return explanations


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------


def target_to_dict(target: InterventionTarget) -> dict:
    if isinstance(target, SetActuationNoise):
        return {"kind": "actuation_noise", "wa": list(target.wa)}
    if isinstance(target, SetSensorNoise):
        return {"kind": "sensor_noise", "ws": [list(p) for p in target.ws]}
    if isinstance(target, SetAction):
        return {"kind": "action", "action": action_to_dict(target.action)}
    if isinstance(target, SetInitialState):
        return {"kind": "initial_state", "s0": tower_to_dict(target.s0)}
    raise TypeError(f"unknown intervention target: {target!r}")


def explanation_to_dict(e: Explanation) -> dict:
    return {
        "target": target_to_dict(e.target),
        "factual_summary": e.factual_summary,
        "pn": e.pn,
        "pns": e.pns,
        "n_samples": e.n_samples,
        "text": e.text,
    }


def report_to_dict(explanations: list[Explanation],
                   abduction: AbductionResult, trace: EpisodeTrace) -> dict:
    return {
        "scenario_id": trace.scenario_id,
        "observed_outcome": trace.outcome,
        "acceptance_rate": abduction.acceptance_rate,
        "abduction_attempts": abduction.attempts,
        "explanations": [explanation_to_dict(e) for e in explanations],
    }
