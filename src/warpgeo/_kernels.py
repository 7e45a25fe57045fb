"""Hot numeric kernels of the warp solver.

``rk4_warp`` is the fixed-step RK4 integrator, a sequential scalar loop.
Each stage evaluates the structural equation in the form

    phi'' = ck (phi'^2 - eps) / phi + cr phi,  ck = -(n-3)/2, cr = -rho/2,

which equals -((n-3)(phi'^2 - eps) + rho phi^2) / (2 phi) in exact
arithmetic and takes 6 float operations where that one takes 8;
warpfunc.rhs_second_order writes it in the same order of operations, so a
stored phi'' is the kernel's first stage at its node bit for bit.

``hermite_eval`` is the quintic Hermite dense-output evaluator, written as
array code: every query point reads the two nodes of its own cell and goes
through the same Horner steps, in the same order of operations, in one
numpy pass that keeps a few doubles a query and no table of the solution.
"""

import numpy as np


def rk4_warp(n, eps, rho, t0, phi0, dphi0, step, n_steps, phi_floor):
    """Fixed-step RK4 on (phi, phi'). Returns t, phi, phi' at the nodes
    taken and whether the run hit the floor.

    Node k sits at t0 + k step; the trajectory stops early if any RK4 stage
    would evaluate at or below phi_floor (the equation divides by phi).
    Each stage is ck (d^2 - eps) / p + cr p with ck and cr hoisted (see the
    module docstring) and each weighted sum is x + 2 (x2 + x3) + x4: 52
    float operations a step, the four floor comparisons included, where the
    quotient form and x + 2 x2 + 2 x3 + x4 take 62. The nodes differ from
    the textbook loop's at rounding level only; the tests hold node k to
    max(k, 1) eps (1 + |node|), eps the float epsilon, with the same node
    count and floor flag.

    The nodes grow by append and become arrays through fromiter, so nothing
    in proportion to n_steps is allocated before the first step: a run that
    collapses early holds only the nodes it took.
    """
    ck = -0.5 * (n - 3.0)
    cr = -0.5 * rho
    half = 0.5 * step
    sixth = step / 6.0
    p, d = phi0, dphi0
    ps, ds = [p], [d]
    for _ in range(n_steps):
        a1 = ck * (d * d - eps) / p + cr * p

        p2 = p + half * d
        d2 = d + half * a1
        if p2 <= phi_floor:
            break
        a2 = ck * (d2 * d2 - eps) / p2 + cr * p2

        p3 = p + half * d2
        d3 = d + half * a2
        if p3 <= phi_floor:
            break
        a3 = ck * (d3 * d3 - eps) / p3 + cr * p3

        p4 = p + step * d3
        d4 = d + step * a3
        if p4 <= phi_floor:
            break
        a4 = ck * (d4 * d4 - eps) / p4 + cr * p4

        p_new = p + sixth * (d + 2.0 * (d2 + d3) + d4)
        d_new = d + sixth * (a1 + 2.0 * (a2 + a3) + a4)
        if p_new <= phi_floor:
            break
        p, d = p_new, d_new
        ps.append(p)
        ds.append(d)
    m = len(ps)
    ts = t0 + np.arange(m) * step
    ts[0] = t0   # t0 + 0.0 would turn a t0 of -0.0 into 0.0
    # every break is a floor hit; a run without one takes every step
    return ts, np.fromiter(ps, float, m), np.fromiter(ds, float, m), m <= n_steps


def hermite_eval(t, t_lo, step, phi, dphi, d2phi, query):
    """Quintic Hermite interpolation of (phi, phi') at query points.

    Nodes carry value, first and second derivative on a uniform grid
    starting at t_lo with spacing step; t is the node array (used only for
    its length). Query points must lie within [t[0], t[-1]]. Returns
    (phi_q, dphi_q).

    Each query reads the two nodes of its own cell, p0, p1 with v = h phi'
    and a = h**2 phi'' (h = step), and evaluates the cell's quintic in
    Horner form at tau in [0, 1],

        p0 + tau (v0 + tau (a0/2 + tau (c3 + tau (c4 + tau c5)))),

    with c3, c4, c5 from the node data through dp = p1 - p0; phi' is the
    derivative of the same polynomial over h. Every array holds one double
    a query and the Horner steps work in place.
    """
    idx = ((query - t_lo) / step).astype(np.int64)
    np.clip(idx, 0, t.shape[0] - 2, out=idx)
    tau = query - (t_lo + idx * step)
    tau /= step
    p0 = phi[idx]
    v0 = dphi[idx] * step
    a0 = d2phi[idx] * (step * step)
    idx += 1
    dp = phi[idx] - p0
    v1 = dphi[idx] * step
    a1 = d2phi[idx] * (step * step)
    del idx
    c3 = 10.0 * dp - 6.0 * v0 - 4.0 * v1 - 1.5 * a0 + 0.5 * a1
    c4 = -15.0 * dp + 8.0 * v0 + 7.0 * v1 + 1.5 * a0 - a1
    c5 = 6.0 * dp - 3.0 * v0 - 3.0 * v1 - 0.5 * a0 + 0.5 * a1
    del dp, v1, a1
    out_d = 5.0 * c5
    out_d *= tau
    out_d += 4.0 * c4
    out_d *= tau
    out_d += 3.0 * c3
    out_d *= tau
    out_d += a0
    out_d *= tau
    out_d += v0
    out_d /= step
    out_p = c5
    out_p *= tau
    out_p += c4
    out_p *= tau
    out_p += c3
    out_p *= tau
    a0 *= 0.5
    out_p += a0
    out_p *= tau
    out_p += v0
    out_p *= tau
    out_p += p0
    return out_p, out_d
