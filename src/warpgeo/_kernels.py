"""Hot numeric kernels, written once and compiled twice.

The RK4 warp integrator and the quintic Hermite dense-output evaluator are
sequential scalar loops, so they benefit from numba. Each kernel exists as a
plain Python function (the ``*_py`` name) and, when numba is importable and
``WARPGEO_DISABLE_NUMBA`` is unset, an ``njit``-compiled twin. Both twins are
the same function object pre-compilation, so results agree bit for bit.

Callers import ``rk4_warp`` and ``hermite_eval``; the module-level selection
happens once at import time. ``USING_NUMBA`` records which path is live.
"""

import os

import numpy as np

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAS_NUMBA = False

_DISABLED = os.environ.get("WARPGEO_DISABLE_NUMBA", "") not in ("", "0")
USING_NUMBA = HAS_NUMBA and not _DISABLED


def _rk4_warp_py(n, eps, rho, t0, phi0, dphi0, step, n_steps, phi_floor):
    """Fixed-step RK4 on (phi, phi'). Returns arrays plus halt info.

    Arrays are preallocated to n_steps + 1 and the used count is returned;
    the trajectory stops early if any RK4 stage would evaluate at or below
    phi_floor (the equation divides by phi).
    """
    ts = np.empty(n_steps + 1)
    ps = np.empty(n_steps + 1)
    ds = np.empty(n_steps + 1)
    ts[0] = t0
    ps[0] = phi0
    ds[0] = dphi0
    t = t0
    p = phi0
    d = dphi0
    count = 1
    hit_floor = False
    for i in range(n_steps):
        a1 = -((n - 3.0) * (d * d - eps) + rho * p * p) / (2.0 * p)

        p2 = p + 0.5 * step * d
        d2 = d + 0.5 * step * a1
        if p2 <= phi_floor:
            hit_floor = True
            break
        a2 = -((n - 3.0) * (d2 * d2 - eps) + rho * p2 * p2) / (2.0 * p2)

        p3 = p + 0.5 * step * d2
        d3 = d + 0.5 * step * a2
        if p3 <= phi_floor:
            hit_floor = True
            break
        a3 = -((n - 3.0) * (d3 * d3 - eps) + rho * p3 * p3) / (2.0 * p3)

        p4 = p + step * d3
        d4 = d + step * a3
        if p4 <= phi_floor:
            hit_floor = True
            break
        a4 = -((n - 3.0) * (d4 * d4 - eps) + rho * p4 * p4) / (2.0 * p4)

        p_new = p + step / 6.0 * (d + 2.0 * d2 + 2.0 * d3 + d4)
        d_new = d + step / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        if p_new <= phi_floor:
            hit_floor = True
            break
        t = t0 + (i + 1) * step
        p = p_new
        d = d_new
        ts[count] = t
        ps[count] = p
        ds[count] = d
        count += 1
    return ts, ps, ds, count, hit_floor


def _hermite_eval_py(t, t_lo, step, phi, dphi, d2phi, query):
    """Quintic Hermite interpolation of (phi, phi') at query points.

    Nodes carry value, first and second derivative on a uniform grid
    starting at t_lo with spacing step; t is the node array (used only for
    its length). Query points must lie within [t[0], t[-1]]. Returns
    (phi_q, dphi_q).
    """
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


if USING_NUMBA:
    rk4_warp = njit(cache=True)(_rk4_warp_py)
    hermite_eval = njit(cache=True)(_hermite_eval_py)
else:
    rk4_warp = _rk4_warp_py
    hermite_eval = _hermite_eval_py
