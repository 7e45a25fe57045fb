"""Hot numeric kernels of the warp solver.

``rk4_warp`` is the fixed-step RK4 integrator, a sequential scalar loop.
``hermite_eval`` is the quintic Hermite dense-output evaluator, written as
array code: every query point goes through the same formulas, in the same
order of operations, in one numpy pass.
"""

import numpy as np


def rk4_warp(n, eps, rho, t0, phi0, dphi0, step, n_steps, phi_floor):
    """Fixed-step RK4 on (phi, phi'). Returns t, phi, phi' at the nodes
    taken and whether the run hit the floor.

    Node k sits at t0 + k step; the trajectory stops early if any RK4 stage
    would evaluate at or below phi_floor (the equation divides by phi). The
    constants hoisted out of the loop are the floats its formulas would
    compute left to right, so every node is the same float either way.
    """
    k = n - 3.0
    half = 0.5 * step
    sixth = step / 6.0
    p, d = phi0, dphi0
    ps, ds = [p], [d]
    for _ in range(n_steps):
        a1 = -(k * (d * d - eps) + rho * p * p) / (2.0 * p)

        p2 = p + half * d
        d2 = d + half * a1
        if p2 <= phi_floor:
            break
        a2 = -(k * (d2 * d2 - eps) + rho * p2 * p2) / (2.0 * p2)

        p3 = p + half * d2
        d3 = d + half * a2
        if p3 <= phi_floor:
            break
        a3 = -(k * (d3 * d3 - eps) + rho * p3 * p3) / (2.0 * p3)

        p4 = p + step * d3
        d4 = d + step * a3
        if p4 <= phi_floor:
            break
        a4 = -(k * (d4 * d4 - eps) + rho * p4 * p4) / (2.0 * p4)

        p_new = p + sixth * (d + 2.0 * d2 + 2.0 * d3 + d4)
        d_new = d + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        if p_new <= phi_floor:
            break
        p, d = p_new, d_new
        ps.append(p)
        ds.append(d)
    ts = t0 + np.arange(len(ps)) * step
    ts[0] = t0   # t0 + 0.0 would turn a t0 of -0.0 into 0.0
    # every break is a floor hit; a run without one takes every step
    return ts, np.array(ps), np.array(ds), len(ps) <= n_steps


def hermite_eval(t, t_lo, step, phi, dphi, d2phi, query):
    """Quintic Hermite interpolation of (phi, phi') at query points.

    Nodes carry value, first and second derivative on a uniform grid
    starting at t_lo with spacing step; t is the node array (used only for
    its length). Query points must lie within [t[0], t[-1]]. Returns
    (phi_q, dphi_q).
    """
    idx = ((query - t_lo) / step).astype(np.int64)
    np.clip(idx, 0, t.shape[0] - 2, out=idx)
    tau = (query - (t_lo + idx * step)) / step
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

    out_p = h0 * p0 + h1 * v0 + h2 * a0 + h3 * p1 + h4 * v1 + h5 * a1
    out_d = (
        dh0 * p0 + dh1 * v0 + dh2 * a0 + dh3 * p1 + dh4 * v1 + dh5 * a1
    ) / step
    return out_p, out_d
