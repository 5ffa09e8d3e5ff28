"""Spans around the package's public functions, recorded from outside.

The package imports functions by name (``from .scm import
draw_exogenous_batch``), so a function is wrapped once in the namespace of
every module that calls it. A span records its name, start, end, parent
span and operation id; counts taken from a call's arguments or result ride
on its span. Spans stay in memory until the run writes them out.

A layer's self time is the duration of its spans minus the part of each
span that its child spans cover. A count is taken only at the outermost
span of its metric, so a function that later calls another of the same
layer is not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import json
from time import perf_counter


def _place(action) -> bool:
    return type(action).__name__ == "PlaceAction"


def _kernel_counts(a, result):
    n, nb = a["s0_centers"].shape[:2]
    return {"worlds": n, "block_rows": n * (nb + _place(a["action"]))}


# (module, function, counts from (bound arguments, result)). The span is
# named after the function; each entry wraps the binding one caller looks
# up at call time.
WRAPPED = (
    ("inference", "derive_sample_seed", lambda a, r: {"seeds": 1}),
    ("inference", "derive_sample_seeds", lambda a, r: {"seeds": a["n"]}),
    ("scm", "derive_sample_seeds", lambda a, r: {"seeds": a["n"]}),
    ("inference", "draw_exogenous_batch", lambda a, r: {"rows": len(a["seeds"])}),
    ("scm", "draw_exogenous_batch", lambda a, r: {"rows": len(a["seeds"])}),
    ("scm", "draw_exogenous", lambda a, r: {"rows": 1}),
    ("inference", "outcome_mask", _kernel_counts),
    ("scm", "outcome_mask", _kernel_counts),
    ("scm", "transition", None),
    ("physics", "is_stable", None),
    ("scm", "sample_episode", None),
    ("scm", "save_trace", None),
    ("scm", "load_trace", None),
    ("explain", "abduct", lambda a, r: {"attempts": r.attempts, "accepted": r.accepted}),
    ("explain", "counterfactual_outcomes", None),
    ("explain", "score_candidates", lambda a, r: {"candidates": len(a["candidates"])}),
    ("explain", "explain_with_abduction", None),
    ("explain", "report_to_dict", None),
    ("inference", "predict_stability", lambda a, r: {"calls": 1}),
    ("inference", "candidate_grid", None),
    ("inference", "stability_heatmap", lambda a, r: {"cells": len(a["grid"])}),
    ("inference", "select_action", None),
)

# Per-layer metrics: (name, unit, span names, what to sum). "self" sums self
# time in ms; any other word sums that count. Next to these a traced run
# reports scm.abduct_accept_ratio (accepted / attempts) and
# trace.overhead_ms (traced minus untraced wall time of one operation).
LAYER_METRICS = (
    ("core.seeds_ms", "ms", ("derive_sample_seed", "derive_sample_seeds"), "self"),
    ("core.seeds", "count", ("derive_sample_seed", "derive_sample_seeds"), "seeds"),
    ("scm.draws_ms", "ms", ("draw_exogenous_batch", "draw_exogenous"), "self"),
    ("scm.draw_rows", "count", ("draw_exogenous_batch", "draw_exogenous"), "rows"),
    ("physics.kernel_ms", "ms", ("outcome_mask",), "self"),
    ("physics.kernel_worlds", "count", ("outcome_mask",), "worlds"),
    ("physics.kernel_block_rows", "count", ("outcome_mask",), "block_rows"),
    ("physics.scalar_ms", "ms", ("is_stable", "transition"), "self"),
    ("scm.episode_self_ms", "ms", ("sample_episode",), "self"),
    ("scm.trace_io_ms", "ms", ("save_trace", "load_trace"), "self"),
    ("scm.abduct_self_ms", "ms", ("abduct",), "self"),
    ("scm.abduct_attempts", "count", ("abduct",), "attempts"),
    ("scm.replay_self_ms", "ms", ("counterfactual_outcomes",), "self"),
    ("explain.score_self_ms", "ms", ("score_candidates",), "self"),
    ("explain.candidates", "count", ("score_candidates",), "candidates"),
    ("inference.predict_self_ms", "ms", ("predict_stability",), "self"),
    ("inference.predict_calls", "count", ("predict_stability",), "calls"),
    ("inference.heatmap_self_ms", "ms", ("stability_heatmap",), "self"),
    ("inference.heatmap_cells", "count", ("stability_heatmap",), "cells"),
    ("inference.select_self_ms", "ms", ("select_action",), "self"),
)


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or None, op id, counts or None]
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def span(self, name: str, fn, count=None):
        sig = inspect.signature(fn) if count is not None else None
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        for module_name, name, count in WRAPPED:
            module = modules[module_name]
            fn = getattr(module, name, None)
            if fn is None:
                continue
            self._originals.append((module, name, fn))
            setattr(module, name, self.span(name, fn, count))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, fn = self._originals.pop()
            setattr(module, attr, fn)

    def run_op(self, op_id, fn, *args):
        """Call ``fn`` as operation ``op_id`` under a root span "op"."""
        self.op = op_id
        try:
            return self.span("op", fn)(*args)
        finally:
            self.op = None

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, counts) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "counts": counts}) + "\n")


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


def layer_totals(spans) -> dict:
    """Totals of every LAYER_METRICS entry plus abduction acceptance."""
    selfs = self_times(spans)
    totals = {}
    for metric, _unit, names, what in LAYER_METRICS:
        names = set(names)
        total = 0.0
        for i, span in enumerate(spans):
            if span[0] not in names:
                continue
            if what == "self":
                total += selfs[i] * 1e3
                continue
            parent = span[3]
            nested = False
            while parent is not None:
                if spans[parent][0] in names:
                    nested = True
                    break
                parent = spans[parent][3]
            if not nested and span[5]:
                total += span[5].get(what, 0)
        totals[metric] = total
    accepted = sum(s[5]["accepted"] for s in spans if s[0] == "abduct" and s[5])
    attempts = totals["scm.abduct_attempts"]
    totals["scm.abduct_accept_ratio"] = accepted / attempts if attempts else 0.0
    return totals
