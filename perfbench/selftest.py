"""Self-test of the harness: an oracle against a closed form, and self-time
arithmetic on hand-built spans. Every benchmark run calls ``run``; run it
alone with ``python3 perfbench/selftest.py`` from the repository root.
"""

from __future__ import annotations

import math
import sys

import inputs as inp
import oracle
import spans


def _span_problems() -> list[str]:
    # root [0, 10] has children [1, 4] and [3, 6] (overlapping: union 5)
    # and [8, 12] (clipped to [8, 10]); child [1, 4] has its own child
    # [2, 3]; the draws span [3, 6] holds a nested draws span [4, 5].
    hand = [
        ["op", 0.0, 10.0, None, 0, None],
        ["abduct", 1.0, 4.0, 0, 0, {"attempts": 10, "accepted": 4}],
        ["draw_exogenous_batch", 3.0, 6.0, 0, 0, {"rows": 7}],
        ["outcome_mask", 2.0, 3.0, 1, 0, {"worlds": 5, "block_rows": 15}],
        ["draw_exogenous", 4.0, 5.0, 2, 0, {"rows": 1}],
        ["select_action", 8.0, 12.0, 0, 0, None],
    ]
    want_self = [3.0, 2.0, 2.0, 1.0, 1.0, 4.0]
    got = spans.self_times(hand)
    problems = []
    if any(not math.isclose(a, b, abs_tol=1e-12) for a, b in zip(got, want_self)):
        problems.append(f"self times {got} != {want_self}")
    totals = spans.layer_totals(hand)
    want = {"scm.draws_ms": 3000.0, "scm.draw_rows": 7, "physics.kernel_ms": 1000.0,
            "physics.kernel_block_rows": 15, "scm.abduct_self_ms": 2000.0,
            "scm.abduct_attempts": 10, "scm.abduct_accept_ratio": 0.4,
            "inference.select_self_ms": 4000.0, "core.seeds": 0}
    for name, value in want.items():
        if not math.isclose(totals[name], value, abs_tol=1e-9):
            problems.append(f"{name} = {totals[name]}, want {value}")
    return problems


def _oracle_problems() -> list[str]:
    problems = []
    block = inp.Block(0.1, 0.1, 0.1, 0.25)
    place = inp.Case("two-cube", (block,), ((0.0, 0.0),), inp.Place(block, 0.03, -0.01),
                     0.02, 0.015, closed_form="two_cube_place")
    plinth = inp.Case("plinth", (block,), ((0.004, -0.002),), None, 0.012, 0.012,
                      support=(0.015, 0.02), closed_form="plinth_null")
    stack = inp.Case("stack", (block, block), ((0.0, 0.0), (0.02, 0.01)), None, 0.015, 0.015,
                     closed_form="two_stack_null")
    for case in (place, plinth, stack):
        p = oracle.closed_form_probability(case)
        m = 3000
        p_mc = oracle.mc_probability(case, m, 0, 1)
        if not oracle.binomial_ok(p_mc, m, p):
            problems.append(f"{case.name}: oracle Monte Carlo {p_mc} against closed form {p}")
    # A discrete model with one support point is noise-free: exactly the
    # noise-free verdict.
    one = inp.Case("one-point", (block,), ((0.0, 0.0),), inp.Place(block, 0.049, 0.0),
                   0.02, 0.02, k=1)
    if oracle.exact_probability(one) != 1.0:
        problems.append("one-point discrete noise should stand exactly")
    return problems


def run() -> list[str]:
    return _span_problems() + _oracle_problems()


if __name__ == "__main__":
    from run import load_package

    load_package()
    found = run()
    for line in found:
        print(line)
    print("selftest:", "FAIL" if found else "PASS")
    sys.exit(1 if found else 0)
