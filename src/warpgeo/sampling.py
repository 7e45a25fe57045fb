"""Quasi-random sampling of chart domains.

Verification sweeps need points that fill a box evenly (so no region of the
chart goes unchecked) yet differ between seeds (so reruns with another seed
are an independent experiment). Halton sequences give the even fill; a
seeded Cranley-Patterson rotation gives the seed dependence without
disturbing the equidistribution.
"""

import numpy as np

from .errors import BadDimension, BadRange

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
# leading Halton indices left out of every axis
_HALTON_SKIP = 20


def unit_box(count, dim, seed=0):
    """count points in [0,1)^dim: Halton plus a seeded rotation mod 1."""
    if dim > len(_PRIMES):
        raise BadDimension("dimension %d exceeds supported maximum" % dim)
    if seed < 0:
        raise BadRange("seed must be nonnegative, got %d" % seed)
    # radical inverses of the indices from _HALTON_SKIP, a digit a step
    k = np.arange(_HALTON_SKIP, _HALTON_SKIP + count)[:, None].repeat(dim, 1)
    base, f = np.array(_PRIMES[:dim]), np.ones(dim)
    pts = np.zeros((count, dim))
    while k.any():
        f /= base
        k, digit = np.divmod(k, base)            # one pass for both
        pts += f * digit
    shift = np.random.default_rng(seed).random(dim)
    return np.mod(pts + shift, 1.0)


def box(count, bounds, seed=0):
    """count points in a product of intervals given as (lo, hi) pairs."""
    bounds = np.asarray(bounds, dtype=float)
    lo = bounds[:, 0]
    hi = bounds[:, 1]
    u = unit_box(count, len(bounds), seed=seed)
    return lo + u * (hi - lo)
