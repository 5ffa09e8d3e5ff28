"""Workload inputs, generated from the benchmark seed as plain data.

Each workload draws its inputs from ``random.Random`` keyed by the seed and
the input's slot, so the same seed gives the same inputs and the package
receives only the objects built from them (``package_objects``). The
oracles in ``oracle.py`` read the plain data, never the package objects.

Sizes are meters. Workload costs are made to depend on the seed as little
as possible: predict and plan fix the world counts, and every Gaussian
explain slot fixes its abduction acceptance through a closed form (for the
taller towers, the closed form of their top interface, which decides the
outcome: the wide blocks below it fail with a probability under 1e-3).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

SUPPORT = (0.5, 0.5)


@dataclass(frozen=True)
class Block:
    width: float
    depth: float
    height: float
    mass: float


@dataclass(frozen=True)
class Place:
    block: Block
    offset_x: float
    offset_y: float


@dataclass(frozen=True)
class Case:
    """A tower as the robot believes it (the recorded z0 for an episode),
    an action, and the noise model. ``k`` set means discrete noise with k
    support points; ``closed_form`` names the Gaussian closed form that
    applies, if any."""

    name: str
    specs: tuple[Block, ...]
    centers: tuple[tuple[float, float], ...]
    place: Optional[Place]
    sigma_s: float
    sigma_a: float
    k: Optional[int] = None
    support: tuple[float, float] = SUPPORT
    closed_form: Optional[str] = None
    # The recorded belief of an episode (set from its trace); a
    # counterfactual "initial state" forces the true tower to it.
    belief_centers: tuple[tuple[float, float], ...] = ()

    @property
    def nblocks(self) -> int:
        return len(self.specs)


@dataclass(frozen=True)
class ExplainSlot:
    """One explained episode. Simulated slots run ``sample_episode`` from
    ``episode_seed`` (chosen at set-up so the outcome is ``outcome``);
    recorded slots build a trace with no ground truth and a fixed
    abduction seed."""

    case: Case
    outcome: bool
    simulated: bool
    episode_seed: int = 0
    abduct_seed: Optional[int] = None
    target_accept: float = 0.0


def seeded(seed: int, *label) -> random.Random:
    return random.Random("|".join(str(x) for x in (seed,) + label))


# ---------------------------------------------------------------------------
# Nominal geometry (no noise), used only to shape the inputs
# ---------------------------------------------------------------------------


def nominal_margin(specs, centers, support, extra=None) -> float:
    """Smallest clearance, over every interface, between the above-group's
    center of mass and the edge of its contact rectangle; negative when the
    noise-free tower falls. ``extra`` is (Block, (x, y)) placed on top."""
    specs = list(specs)
    centers = list(centers)
    if extra is not None:
        specs.append(extra[0])
        centers.append(extra[1])
    worst = math.inf
    for k in range(len(specs)):
        mass = sum(s.mass for s in specs[k:])
        cx = sum(s.mass * c[0] for s, c in zip(specs[k:], centers[k:])) / mass
        cy = sum(s.mass * c[1] for s, c in zip(specs[k:], centers[k:])) / mass
        if k == 0:
            lo = (-support[0], -support[1])
            hi = support
        else:
            b, c = specs[k - 1], centers[k - 1]
            lo = (c[0] - b.width / 2, c[1] - b.depth / 2)
            hi = (c[0] + b.width / 2, c[1] + b.depth / 2)
        b, c = specs[k], centers[k]
        lo = (max(lo[0], c[0] - b.width / 2), max(lo[1], c[1] - b.depth / 2))
        hi = (min(hi[0], c[0] + b.width / 2), min(hi[1], c[1] + b.depth / 2))
        worst = min(worst, cx - lo[0], hi[0] - cx, cy - lo[1], hi[1] - cy)
    return worst


def _phi(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _interval(offset: float, half: float, sigma: float) -> float:
    """P(|offset + N(0, sigma^2)| < half)."""
    return _phi((half - offset) / sigma) - _phi((-half - offset) / sigma)


def _solve_offset(target: float, other: float, half: float, sigma: float) -> float:
    """Offset x >= 0 with _interval(x) * other == target (bisection; the
    interval probability falls as |x| grows)."""
    lo, hi = 0.0, half + 8.0 * sigma
    if _interval(0.0, half, sigma) * other < target:
        raise ValueError("target probability out of reach")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if _interval(mid, half, sigma) * other > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _cube(r: random.Random) -> Block:
    s = r.uniform(0.08, 0.12)
    return Block(s, s, s, 0.25)


def _cuboid(r: random.Random) -> Block:
    return Block(r.uniform(0.07, 0.13), r.uniform(0.07, 0.13),
                 r.uniform(0.04, 0.08), r.uniform(0.1, 0.5))


def _random_tower(r: random.Random, nblocks: int, spread: float):
    """Cuboids stacked with random offsets up to ``spread`` of the largest
    offset that keeps footprints overlapping; redrawn until the noise-free
    tower stands with some clearance."""
    while True:
        specs = [_cuboid(r) for _ in range(nblocks)]
        centers = [(r.uniform(-0.01, 0.01), r.uniform(-0.01, 0.01))]
        for i in range(1, nblocks):
            lim_x = spread * (specs[i - 1].width + specs[i].width) / 2
            lim_y = spread * (specs[i - 1].depth + specs[i].depth) / 2
            px, py = centers[-1]
            centers.append((px + r.uniform(-lim_x, lim_x), py + r.uniform(-lim_y, lim_y)))
        if nominal_margin(specs, centers, SUPPORT) > 0.006:
            return tuple(specs), tuple(centers)


def _wide_base(r: random.Random, nblocks: int):
    """Wide, nearly centered blocks that carry a tower's top without ever
    deciding its outcome."""
    specs = tuple(Block(r.uniform(0.2, 0.24), r.uniform(0.2, 0.24),
                        r.uniform(0.04, 0.08), r.uniform(0.3, 0.6))
                  for _ in range(nblocks))
    centers = tuple((r.uniform(-0.004, 0.004), r.uniform(-0.004, 0.004))
                    for _ in range(nblocks))
    return specs, centers


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

# (blocks, action, noise support points or None); a Gaussian one-block
# Place is the closed-form two-cube case, a Gaussian one-block Null stands on
# a plinth narrower than the block (also closed form).
PREDICT_SLOTS = (
    (1, "place", None), (1, "null", None), (2, "null", None), (3, "place", None),
    (4, "null", None), (5, "place", None), (6, "null", None), (6, "place", None),
    (1, "place", 5), (2, "null", 5), (2, "place", 4), (3, "place", 3),
)
PREDICT_WORLDS = 20_000


def predict_case(seed: int, slot: int) -> Case:
    nblocks, kind, k = PREDICT_SLOTS[slot]
    r = seeded(seed, "predict", slot)
    name = f"predict-{slot}-{nblocks}b-{kind}-{'k%d' % k if k else 'gauss'}"
    if k is None and nblocks == 1 and kind == "place":
        base = _cube(r)
        half = base.width / 2
        sigma_eff = r.uniform(0.4, 0.65) * half
        theta = r.uniform(0.5, 1.07)
        return Case(name, (base,), ((0.0, 0.0),),
                    Place(base, r.uniform(-0.5, 0.5) * half, r.uniform(-0.5, 0.5) * half),
                    sigma_eff * math.cos(theta), sigma_eff * math.sin(theta),
                    closed_form="two_cube_place")
    if k is None and nblocks == 1:
        base = _cuboid(r)
        plinth = (r.uniform(0.2, 0.4) * base.width, r.uniform(0.2, 0.4) * base.depth)
        sigma = r.uniform(0.5, 0.8) * min(plinth)
        center = (r.uniform(-0.2, 0.2) * plinth[0], r.uniform(-0.2, 0.2) * plinth[1])
        return Case(name, (base,), (center,), None, sigma, sigma,
                    support=plinth, closed_form="plinth_null")

    specs, centers = _random_tower(r, nblocks, spread=0.3)
    place = None
    margin = nominal_margin(specs, centers, SUPPORT)
    while kind == "place":
        top = specs[-1]
        place = Place(_cuboid(r), r.uniform(-0.3, 0.3) * top.width / 2,
                      r.uniform(-0.3, 0.3) * top.depth / 2)
        tx, ty = centers[-1]
        margin = nominal_margin(specs, centers, SUPPORT,
                                (place.block, (tx + place.offset_x, ty + place.offset_y)))
        if margin > 0.004:
            break
    # Noise on the scale of the tightest clearance keeps P(stable) well
    # inside (0, 1).
    sigma = margin / r.uniform(1.0, 1.6)
    return Case(name, specs, centers, place, sigma, sigma, k=k)


def predict_cases(seed: int) -> list[Case]:
    return [predict_case(seed, i) for i in range(len(PREDICT_SLOTS))]


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------

PLAN_GRID = (9, 9)
PLAN_WORLDS_PER_CELL = 1000
PLAN_THRESHOLD = 0.6
# two-cube, a centered (mirror-symmetric) three-block stack, and a random
# five-block tower
PLAN_SLOTS = ("two-cube", "symmetric-3", "random-5")
PLAN_SYMMETRIC = ("two-cube", "symmetric-3")


def plan_case(seed: int, slot: int) -> Case:
    kind = PLAN_SLOTS[slot]
    r = seeded(seed, "plan", slot)
    name = f"plan-{slot}-{kind}"
    if kind == "two-cube":
        base = _cube(r)
        sigma_eff = r.uniform(0.3, 0.4) * base.width / 2
        theta = r.uniform(0.5, 1.07)
        return Case(name, (base,), ((0.0, 0.0),), Place(base, 0.0, 0.0),
                    sigma_eff * math.cos(theta), sigma_eff * math.sin(theta),
                    closed_form="two_cube_place")
    if kind == "symmetric-3":
        specs = tuple(_cuboid(r) for _ in range(3))
        centers = ((0.0, 0.0),) * 3
    else:
        specs, centers = _random_tower(r, int(kind[-1]), spread=0.1)
    block = _cuboid(r)
    sigma = r.uniform(0.08, 0.12) * min(specs[-1].width, specs[-1].depth) / 2
    return Case(name, specs, centers, Place(block, 0.0, 0.0), sigma, sigma)


def plan_cases(seed: int) -> list[Case]:
    return [plan_case(seed, i) for i in range(len(PLAN_SLOTS))]


# ---------------------------------------------------------------------------
# explain
# ---------------------------------------------------------------------------

EXPLAIN_WORLDS = 2000
# (blocks, action, observed outcome, target abduction acceptance). The
# decisive pair sits on wide blocks: a cube and the cube placed on it, or
# two stacked cubes under Null. A Null episode's outcome is the noise-free
# verdict on its true tower, so a Null slot that fell has its top cube past
# the edge and an acceptance above one half.
EXPLAIN_SLOTS = (
    (1, "place", True, 0.90),
    (1, "place", False, 0.04),
    (2, "null", False, 0.70),
    (4, "place", True, 0.85),
    (5, "place", False, 0.12),
    (4, "null", True, 0.60),
)


def explain_slot(seed: int, slot: int) -> ExplainSlot:
    nblocks, kind, outcome, accept = EXPLAIN_SLOTS[slot]
    r = seeded(seed, "explain", slot)
    top = _cube(r)
    half = top.width / 2
    # sigma_eff is the spread of the decisive pair's relative displacement
    # per axis; the x offset is solved so the pair stands with the
    # probability the acceptance asks for.
    sigma_eff = r.uniform(0.28, 0.38) * half
    oy = r.uniform(0.0, 0.2) * half
    p_stand = accept if outcome else 1.0 - accept
    ox = _solve_offset(p_stand, _interval(oy, half, sigma_eff), half, sigma_eff)
    nbase = nblocks - (1 if kind == "place" else 2)
    specs, centers = _wide_base(r, nbase)
    bx, by = centers[-1] if centers else (0.0, 0.0)
    if kind == "place":
        theta = r.uniform(0.5, 1.07)
        sigma_s, sigma_a = sigma_eff * math.cos(theta), sigma_eff * math.sin(theta)
        specs, centers = specs + (top,), centers + ((bx, by),)
        place, closed = Place(top, ox, oy), "two_cube_place"
    else:
        sigma_s = sigma_a = sigma_eff / math.sqrt(2.0)
        specs, centers = specs + (top, top), centers + ((bx, by), (bx + ox, by + oy))
        place, closed = None, "two_stack_null"
    name = f"explain-{slot}-{nblocks}b-{kind}-{'stood' if outcome else 'fell'}"
    case = Case(name, specs, centers, place, sigma_s, sigma_a,
                closed_form=closed if nbase == 0 else None)
    return ExplainSlot(case, outcome, simulated=True, target_accept=accept)


def recorded_slots() -> list[ExplainSlot]:
    """Discrete-noise traces recorded outside the simulator. They do not
    depend on the benchmark seed: the same two traces and abduction seeds
    in every run."""
    cube = Block(0.1, 0.1, 0.1, 0.25)
    toy = Case("explain-toy-k5", (cube,), ((0.0, 0.0),), Place(cube, 0.04, 0.0),
               0.015, 0.015, k=5)
    stack = Case("explain-stack-k3", (cube, cube), ((0.0, 0.0), (0.03, 0.0)), None,
                 0.02, 0.02, k=3)
    return [ExplainSlot(toy, False, simulated=False, abduct_seed=70),
            ExplainSlot(stack, True, simulated=False, abduct_seed=71)]


def explain_slots(seed: int) -> list[ExplainSlot]:
    return [explain_slot(seed, i) for i in range(len(EXPLAIN_SLOTS))] + recorded_slots()


# ---------------------------------------------------------------------------
# Package objects
# ---------------------------------------------------------------------------


def package_objects(cb, case: Case):
    """(tower, action, noise) as the package's own types."""
    core = cb.core
    specs = [core.BlockSpec(f"b{i + 1}", s.width, s.depth, s.height, s.mass)
             for i, s in enumerate(case.specs)]
    tower = core.TowerState(tuple(core.PlacedBlock(s, x, y)
                                  for s, (x, y) in zip(specs, case.centers)),
                            support_half_extents=case.support)
    if case.place is None:
        action = core.NULL_ACTION
    else:
        b = case.place.block
        new = core.BlockSpec(f"b{len(specs) + 1}", b.width, b.depth, b.height, b.mass)
        action = core.PlaceAction(new, case.place.offset_x, case.place.offset_y)
    noise = core.NoiseModel(case.sigma_s, case.sigma_a, support_points=case.k)
    return tower, action, noise
