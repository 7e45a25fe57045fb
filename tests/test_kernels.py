"""The numpy Hermite kernel must agree with the scalar loop bit for bit, and
the RK4 kernel with the loop that wrote every node into preallocated arrays."""

import numpy as np
import pytest

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


def _rk4_loop(n, eps, rho, t0, phi0, dphi0, step, n_steps, phi_floor):
    """Reference: RK4 with its constants computed in the loop and every node
    written into arrays preallocated to n_steps + 1; returns the arrays,
    the used count and the halt flag."""
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


@pytest.mark.parametrize("kind", ["forward", "backward", "floor"] + [
    "schwarzschild-n%d" % n for n in (4, 5, 6, 7, 9)])
def test_rk4_matches_preallocated_loop(monkeypatch, kind):
    # every call integrate makes, on the three runs above and on the five
    # warps report integrates
    calls = []

    def spy(*args):
        calls.append((args, K.rk4_warp(*args)))
        return calls[-1][1]

    monkeypatch.setattr(wf, "rk4_warp", spy)
    if kind.startswith("schwarzschild"):
        wf.integrate(wf.schwarzschild_params(int(kind[-1])), 5.0, 1e-3)
    else:
        _solution(kind)
    assert len(calls) == 1
    (args, (t, phi, dphi, hit_floor)), = calls
    ts, ps, ds, count, ref_floor = _rk4_loop(*args)
    assert len(t) == count
    assert hit_floor == ref_floor == (kind == "floor")
    for got, want in ((t, ts), (phi, ps), (dphi, ds)):
        assert np.array_equal(got, want[:count])
