"""Warp samples of floats for tests, read from a solution's dense output."""

from warpgeo import warpfunc as wf


def sample_at(sol, t):
    """The WarpSample of sol at the one point t, from one samples_at call."""
    return wf.WarpSample(*(float(col[0]) for col in sol.samples_at([t])))


def node(sol, i):
    """The WarpSample of sol at its grid node i."""
    return wf.WarpSample(*(float(col[i]) for col in
                           (sol.phi, sol.dphi, sol.d2phi, sol.d3phi)))


def base_curvature(s):
    """Gauss curvature -phi'''/phi' of the base dt^2 + phi'^2 dtheta^2."""
    return -s.d3phi / s.dphi
