"""Independent reference implementations used to check the library.

Everything here is deliberately written from scratch (plain Python loops,
fsum accumulation, scipy CDFs) so it shares no code path with the package
under test.
"""

import itertools
import math

from scipy.stats import norm


def oracle_stable(blocks, support_half):
    """Brute-force quasi-static check.

    ``blocks`` is a bottom-up list of (mass, cx, cy, hx, hy) tuples; the
    support rectangle is centered at the origin with half extents
    ``support_half``. At every interface the combined center of mass of all
    blocks above must fall strictly inside the intersection of the two
    touching footprints.
    """
    n = len(blocks)
    for k in range(n):
        group = blocks[k:]
        mtot = math.fsum(b[0] for b in group)
        comx = math.fsum(b[0] * b[1] for b in group) / mtot
        comy = math.fsum(b[0] * b[2] for b in group) / mtot

        if k == 0:
            lo_x, hi_x = -support_half[0], support_half[0]
            lo_y, hi_y = -support_half[1], support_half[1]
        else:
            m, cx, cy, hx, hy = blocks[k - 1]
            lo_x, hi_x = cx - hx, cx + hx
            lo_y, hi_y = cy - hy, cy + hy
        m, cx, cy, hx, hy = blocks[k]
        lo_x = max(lo_x, cx - hx)
        hi_x = min(hi_x, cx + hx)
        lo_y = max(lo_y, cy - hy)
        hi_y = min(hi_y, cy + hy)

        if not (lo_x < hi_x and lo_y < hi_y):
            return False
        if not (lo_x < comx < hi_x and lo_y < comy < hi_y):
            return False
    return True


def tower_tuples(tower):
    """Convert a TowerState into the tuple form oracle_stable consumes."""
    out = []
    for b in tower.blocks:
        hx, hy = b.spec.half_extents
        out.append((b.spec.mass, b.center_x, b.center_y, hx, hy))
    return out


def interval_probability(offset, half_width, sigma):
    """P(|offset + X| < half_width) for X ~ Normal(0, sigma^2)."""
    if sigma == 0.0:
        return 1.0 if abs(offset) < half_width else 0.0
    return float(norm.cdf((half_width - offset) / sigma)
                 - norm.cdf((-half_width - offset) / sigma))


def two_cube_place_probability(offset_x, offset_y, half_width, sigma_s, sigma_a):
    """Closed-form stability probability for placing one cube on a single
    centered cube of the same footprint, on a large table.

    The placed block's displacement relative to the true top block is the
    action offset plus one sensing draw plus one actuation draw per axis,
    and the tower stands iff that displacement stays inside the footprint
    on both axes (the table interface is implied for a large table).
    """
    sigma_eff = math.hypot(sigma_s, sigma_a)
    return (interval_probability(offset_x, half_width, sigma_eff)
            * interval_probability(offset_y, half_width, sigma_eff))


def discrete_noise_values(sigma, k):
    """The k equiprobable per-component values used by discrete noise mode:
    sigma-scaled Gaussian quantile midpoints."""
    from scipy.special import ndtri

    return [sigma * float(ndtri((j + 0.5) / k)) for j in range(k)]


def axis_stable(masses, centers, halves, support_half):
    """One axis of ``oracle_stable``: bottom-up lists of block masses,
    centers and half extents along the axis, the support interval centered
    at the origin with half width ``support_half``. At every interface the
    combined center of mass of the blocks above must fall strictly inside
    the overlap of the two touching intervals."""
    for k in range(len(masses)):
        com = (math.fsum(m * c for m, c in zip(masses[k:], centers[k:]))
               / math.fsum(masses[k:]))
        if k == 0:
            lo, hi = -support_half, support_half
        else:
            lo, hi = centers[k - 1] - halves[k - 1], centers[k - 1] + halves[k - 1]
        lo = max(lo, centers[k] - halves[k])
        hi = min(hi, centers[k] + halves[k])
        if not lo < com < hi:
            return False
    return True


def discrete_axis_probability(masses, centers, halves, support_half, sigmas, k):
    """Exact probability that one axis passes ``axis_stable`` when block r
    sits at ``centers[r] + sigmas[r] * v_r``, the v_r independent and
    uniform over the k discrete unit values: the mean over all k^R tuples."""
    values = discrete_noise_values(1.0, k)
    hits = sum(axis_stable(masses, [c + s * v for c, s, v in zip(centers, sigmas, combo)],
                           halves, support_half)
               for combo in itertools.product(values, repeat=len(centers)))
    return hits / k ** len(centers)


def discrete_probability(blocks, support_half, sigmas, k):
    """Exact stability probability of a tower of (mass, cx, cy, hx, hy)
    blocks, block r displaced on each axis by ``sigmas[r]`` times an
    independent discrete unit value. The tower stands when both axes pass,
    and the axes share no draw, so it is P_x * P_y: 2 k^R towers are
    enumerated instead of k^(2R)."""
    masses = [b[0] for b in blocks]
    return math.prod(
        discrete_axis_probability(masses, [b[1 + axis] for b in blocks],
                                  [b[3 + axis] for b in blocks], support_half[axis],
                                  sigmas, k)
        for axis in (0, 1))
