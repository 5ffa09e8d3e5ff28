"""Interventional stability prediction against the closed form.

For one cube placed on another, the placed block's displacement per axis
is one sensing draw plus one actuation draw, so the survival probability
has a Gaussian closed form. This script sweeps the placement offset and
prints the Monte-Carlo estimate next to the exact value.
"""

import math
from statistics import NormalDist

from causalblocks import PlaceAction, predict_stability
from causalblocks.scenarios import two_cube_scenario

SIGMA_S = 0.02
SIGMA_A = 0.02
HALF_WIDTH = 0.05


def exact(offset_x, offset_y):
    sigma = math.hypot(SIGMA_S, SIGMA_A)
    cdf = NormalDist().cdf

    def axis(offset):
        return cdf((HALF_WIDTH - offset) / sigma) - cdf((-HALF_WIDTH - offset) / sigma)

    return axis(offset_x) * axis(offset_y)


def main():
    scenario = two_cube_scenario(SIGMA_S, SIGMA_A)
    block = scenario.pending_blocks[0]

    print(f"sigma_s = {SIGMA_S}, sigma_a = {SIGMA_A}, n = 40000 per point")
    print(f"{'offset_x':>9} {'estimate':>9} {'exact':>9} {'z':>6}")
    for i, offset in enumerate([0.0, 0.01, 0.02, 0.03, 0.04, 0.05]):
        action = PlaceAction(block, offset, 0.0)
        est = predict_stability(scenario.tower, action, scenario.noise,
                                n_samples=40_000, seed=100 + i)
        p = exact(offset, 0.0)
        z = (est.p - p) / est.stderr if est.stderr else 0.0
        print(f"{offset:9.3f} {est.p:9.4f} {p:9.4f} {z:+6.2f}")

    print()
    print("A NULL query re-uses the same machinery to score the current")
    print("tower without placing anything:")
    from causalblocks import NullAction

    est = predict_stability(scenario.tower, NullAction(), scenario.noise,
                            n_samples=20_000, seed=7)
    print(f"  p(current tower stands) = {est.p:.4f} +- {est.stderr:.4f}")


if __name__ == "__main__":
    main()
