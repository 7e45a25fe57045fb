"""The numpy Hermite kernel must agree with the scalar loop bit for bit."""

import numpy as np

from warpgeo import _kernels as K
from warpgeo import warpfunc as wf


def _hermite_loop(t, t_lo, step, phi, dphi, d2phi, query):
    """Reference: the kernel's formulas, one query point at a time."""
    m = query.shape[0]
    out_p = np.empty(m)
    out_d = np.empty(m)
    n_nodes = t.shape[0]
    for k in range(m):
        x = query[k]
        idx = int((x - t_lo) / step)
        if idx < 0:
            idx = 0
        if idx > n_nodes - 2:
            idx = n_nodes - 2
        tau = (x - (t_lo + idx * step)) / step
        p0 = phi[idx]
        p1 = phi[idx + 1]
        v0 = dphi[idx] * step
        v1 = dphi[idx + 1] * step
        a0 = d2phi[idx] * step * step
        a1 = d2phi[idx + 1] * step * step

        t2 = tau * tau
        t3 = t2 * tau
        t4 = t3 * tau
        t5 = t4 * tau

        h0 = 1.0 - 10.0 * t3 + 15.0 * t4 - 6.0 * t5
        h1 = tau - 6.0 * t3 + 8.0 * t4 - 3.0 * t5
        h2 = 0.5 * t2 - 1.5 * t3 + 1.5 * t4 - 0.5 * t5
        h3 = 10.0 * t3 - 15.0 * t4 + 6.0 * t5
        h4 = -4.0 * t3 + 7.0 * t4 - 3.0 * t5
        h5 = 0.5 * t3 - t4 + 0.5 * t5

        dh0 = -30.0 * t2 + 60.0 * t3 - 30.0 * t4
        dh1 = 1.0 - 18.0 * t2 + 32.0 * t3 - 15.0 * t4
        dh2 = tau - 4.5 * t2 + 6.0 * t3 - 2.5 * t4
        dh3 = 30.0 * t2 - 60.0 * t3 + 30.0 * t4
        dh4 = -12.0 * t2 + 28.0 * t3 - 15.0 * t4
        dh5 = 1.5 * t2 - 4.0 * t3 + 2.5 * t4

        out_p[k] = (
            h0 * p0 + h1 * v0 + h2 * a0 + h3 * p1 + h4 * v1 + h5 * a1
        )
        out_d[k] = (
            dh0 * p0 + dh1 * v0 + dh2 * a0 + dh3 * p1 + dh4 * v1 + dh5 * a1
        ) / step
    return out_p, out_d


def _solution(kind):
    # t0 != 0 so that the grid offset t_lo enters every tau
    if kind == "floor":
        params = wf.WarpParams(n=5, eps=1.0, rho=0.0, t0=0.3, phi0=1.0,
                               dphi0=-np.sqrt(2.0))
        sol = wf.integrate(params, 2.3)
        assert sol.truncated
        return sol
    params = wf.WarpParams(n=5, eps=1.0, rho=0.0, t0=0.3, phi0=1.0, dphi0=0.0)
    return wf.integrate(params, -1.2 if kind == "backward" else 1.8)


def _queries(sol):
    rng = np.random.default_rng(7)
    t = sol.t
    return {
        "nodes": t.copy(),
        "midpoints": t[:-1] + 0.5 * sol.step,
        "ends": np.array([t[0], t[-1], sol.t_min, sol.t_max]),
        "one": rng.uniform(sol.t_min, sol.t_max, 1),
        "random": rng.uniform(sol.t_min, sol.t_max, 333),
        "empty": np.empty(0),
    }


def test_hermite_paths_identical():
    for kind in ("forward", "backward", "floor"):
        sol = _solution(kind)
        args = (sol.t, float(sol.t[0]), sol.step, sol.phi, sol.dphi, sol.d2phi)
        for name, q in _queries(sol).items():
            pa, da = K.hermite_eval(*args, q)
            pb, db = _hermite_loop(*args, q)
            assert np.array_equal(pa, pb), (kind, name)
            assert np.array_equal(da, db), (kind, name)
