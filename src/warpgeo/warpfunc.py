"""Warping functions of Einstein warped products with 2-dimensional base.

An n-manifold of the form L^2 x_phi F^{n-2}(eps), with F Einstein of
normalized constant eps, is Einstein with Ric = rho g exactly when the warp
phi solves

    phi'' = -((n-3) (phi'^2 - eps) + rho phi^2) / (2 phi)

along base geodesics. That equation has the first integral

    phi'^2 = eps - rho phi^2 / (n-1) + c / phi^{n-3}

whose constant c labels the solution family. This module integrates the
equation, evaluates the family's closed forms where they exist, and exposes
the scalar diagnostics (the c = 0 base curvature, the embeddability margin
and the Schwarzschild identity residual) that the rest of the package
checks numerically.

eps is kept as a free real number rather than an element of {-1, 0, 1}:
fibers arising from non-round Einstein manifolds carry other normalized
constants and the equation is insensitive to the distinction.

Every evaluation of phi'' here, the RK4 stages of ``rk4_warp`` and
``rhs_second_order`` alike, uses the form

    phi'' = ck (phi'^2 - eps) / phi + cr phi,  ck = -(n-3)/2, cr = -rho/2,

which equals the quotient above in exact arithmetic and takes 6 float
operations where that one takes 8. Both write it in one order of
operations, so a stored phi'' is the kernel's first stage at its node bit
for bit. ``rk4_warp`` is
the fixed-step integrator, a sequential scalar loop. ``hermite_eval`` is
the quintic Hermite dense output, written as array code: every query point
reads the two nodes of its own cell and goes through the same Horner steps,
in the same order of operations, in one numpy pass that keeps a few doubles
a query and no table of the solution.
"""

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import serialize
from .errors import (
    BadDimension,
    BadRange,
    DomainExhausted,
    InconsistentParams,
    NonPositiveWarp,
    OutOfDomain,
    StepTooLarge,
    WrongFamily,
)

# the equation divides by phi; integration halts where a stage reaches this
PHI_FLOOR = 1e-8


def rhs_second_order(n, eps, rho, phi, dphi):
    """phi'' as a function of the state, from the structural equation.

    In the stage form of rk4_warp (see the module docstring), so the phi''
    integrate stores at a node is the kernel's first stage there bit for
    bit. Takes floats or arrays of rows, as the three below do.
    """
    ck = -0.5 * (n - 3.0)
    cr = -0.5 * rho
    return ck * (dphi * dphi - eps) / phi + cr * phi


def third_derivative(n, rho, phi, dphi, d2phi):
    """phi''' obtained by differentiating the structural equation once.

    The derivative of the right-hand side collapses to
    -phi' ((n-2) phi'' + rho phi) / phi, so phi''' always carries an exact
    factor of phi'.
    """
    return -dphi * ((n - 2.0) * d2phi + rho * phi) / phi


def c_from_state(n, eps, rho, phi, dphi):
    """Family constant of the first integral, read off one state."""
    phi = np.asarray(phi, dtype=float)
    dphi = np.asarray(dphi, dtype=float)
    out = (dphi * dphi - eps + rho * phi * phi / (n - 1.0)) * phi ** (n - 3.0)
    return out if out.ndim else float(out)


def first_integral_residual(n, eps, rho, c, phi, dphi):
    """Defect of the first integral at a state; zero along exact solutions."""
    return dphi * dphi - eps + rho * phi * phi / (n - 1.0) - c / phi ** (n - 3.0)


# -- kernels -----------------------------------------------------------------

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


# -- parameters and solutions ------------------------------------------------

@dataclass(frozen=True)
class WarpParams:
    """Structural-equation parameters plus one initial state.

    c is derived from the initial state when omitted; when supplied it must
    agree with the state to within 1e-12 (1 + |c|) or the pair is rejected.
    A parameter that is not finite is rejected with BadRange, and so is a
    state whose derived c is not (phi0^{n-3} overflows).
    """

    n: int
    eps: float
    rho: float
    t0: float
    phi0: float
    dphi0: float
    c: float = None

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 4:
            raise BadDimension("n must be an integer >= 4, got %r" % (self.n,))
        object.__setattr__(self, "n", int(self.n))
        for name in ("eps", "rho", "t0", "phi0", "dphi0", "c"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise BadRange("%s must be finite, got %r" % (name, value))
        if not self.phi0 > 0.0:
            raise NonPositiveWarp("phi0 must be positive, got %r" % (self.phi0,))
        with np.errstate(over="ignore", invalid="ignore"):
            derived = c_from_state(self.n, self.eps, self.rho, self.phi0,
                                   self.dphi0)
        if not math.isfinite(derived):
            raise BadRange("c derived from the initial state is not finite, "
                           "got %r" % (derived,))
        if self.c is None:
            object.__setattr__(self, "c", derived)
        elif abs(self.c - derived) > 1e-12 * (1.0 + abs(self.c)):
            raise InconsistentParams(
                "c=%r contradicts the initial state (expected %r)"
                % (self.c, derived)
            )

    def as_dict(self):
        return asdict(self)


class WarpSample(NamedTuple):
    """phi and its derivatives through third order, floats or rows."""

    phi: object
    dphi: object
    d2phi: object
    d3phi: object


@dataclass
class WarpSolution:
    """Dense-output solution of the structural equation on a t-interval."""

    params: WarpParams
    t: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    d2phi: np.ndarray
    d3phi: np.ndarray
    step: float
    drift: np.ndarray
    truncated: bool
    halt_reason: str

    @property
    def max_drift(self):
        return float(np.max(np.abs(self.drift)))

    @property
    def t_min(self):
        return float(min(self.t[0], self.t[-1]))

    @property
    def t_max(self):
        return float(max(self.t[0], self.t[-1]))

    def samples_at(self, ts):
        """The WarpSample of rows at arbitrary points inside the interval.

        Interpolation is quintic Hermite on the stored grid, each query's
        cell polynomial in Horner form from the cell's two nodes
        (hermite_eval); the second and third derivatives are then
        recomputed from the structural equation rather than differentiated
        numerically, so they inherit the accuracy of (phi, phi'). A query
        outside the interval, or not finite, raises OutOfDomain.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        lo, hi = self.t_min, self.t_max
        pad = 1e-12 * (1.0 + abs(hi - lo))
        if not np.all((ts >= lo - pad) & (ts <= hi + pad)):
            raise OutOfDomain(
                "query outside solved interval [%g, %g]" % (lo, hi)
            )
        p, d = hermite_eval(
            self.t, float(self.t[0]), self.step, self.phi, self.dphi,
            self.d2phi, ts,
        )
        pp = self.params
        d2 = rhs_second_order(pp.n, pp.eps, pp.rho, p, d)
        d3 = third_derivative(pp.n, pp.rho, p, d, d2)
        return WarpSample(p, d, d2, d3)


def relative_drift(params, phi, dphi, drift):
    """|drift| over 1 + |c|/phi^{n-3} + phi'^2, the size of the terms of
    the first integral, per node: the scale integrate gates on."""
    return np.abs(drift) / (
        1.0 + np.abs(params.c) / phi ** (params.n - 3.0) + dphi * dphi)


def integrate(params, t_end, step=1e-3, tol_drift=1e-8):
    """Integrate the structural equation from params.t0 to t_end.

    Fixed-step RK4 with the step shrunk so the grid lands on t_end exactly.
    The per-node first-integral defect, relative to the size of the terms
    entering it (the c/phi^{n-3} term diverges on collapsing trajectories,
    so an absolute gate would be meaningless there), must stay within
    tol_drift; a NaN defect counts as a violation. A violation on a run
    that never approaches the floor means the step was too coarse and
    raises StepTooLarge; on a floor-truncated run the unresolved tail is
    trimmed off instead.

    The equation divides by phi, so the integrator halts when any stage
    dips to PHI_FLOOR and returns the valid prefix with truncated=True and
    halt_reason "phi_floor". An initial state at or below the floor raises
    DomainExhausted.
    """
    if not 0.0 < step < math.inf:
        raise BadRange("step must be positive and finite")
    if not math.isfinite(t_end) or t_end == params.t0:
        raise BadRange("t_end must be finite and differ from t0")
    if params.phi0 <= PHI_FLOOR:
        raise DomainExhausted(
            "initial phi0=%g is at or below phi_floor=%g"
            % (params.phi0, PHI_FLOOR)
        )

    span = t_end - params.t0
    n_steps = max(1, int(math.ceil(abs(span) / step - 1e-12)))
    h = span / n_steps

    t, phi, dphi, hit_floor = rk4_warp(
        float(params.n), float(params.eps), float(params.rho),
        float(params.t0), float(params.phi0), float(params.dphi0),
        float(h), int(n_steps), PHI_FLOOR,
    )
    drift = first_integral_residual(
        params.n, params.eps, params.rho, params.c, phi, dphi
    )
    rel = relative_drift(params, phi, dphi, drift)
    if hit_floor:
        bad = np.nonzero(~(rel <= tol_drift))[0]
        keep = int(bad[0]) if bad.size else len(t)
        if keep < 2:
            raise StepTooLarge(
                "trajectory collapses faster than step %g resolves" % h
            )
        t, phi, dphi, drift = t[:keep], phi[:keep], dphi[:keep], drift[:keep]
    elif not float(np.max(rel)) <= tol_drift:
        raise StepTooLarge(
            "relative first-integral drift %.3e exceeds tol %.3e; reduce step"
            % (float(np.max(rel)), tol_drift)
        )
    d2phi = rhs_second_order(params.n, params.eps, params.rho, phi, dphi)
    d3phi = third_derivative(params.n, params.rho, phi, dphi, d2phi)
    return WarpSolution(
        params=params,
        t=t,
        phi=phi,
        dphi=dphi,
        d2phi=d2phi,
        d3phi=d3phi,
        step=h,
        drift=drift,
        truncated=bool(hit_floor),
        halt_reason="phi_floor" if hit_floor else "t_end",
    )


# -- named families ----------------------------------------------------------

def schwarzschild_params(n):
    """Generalized Schwarzschild family: Ricci-flat base product, eps = 1.

    The neck sits at t = 0, phi = b = (n-3)/2, where phi' = 0, which fixes
    c = -b^{n-3}; the choice of b makes phi''(0) = 1 exactly, the condition
    for the rotational profile to close smoothly at its pole.
    """
    b = (n - 3.0) / 2.0
    return WarpParams(n=n, eps=1.0, rho=0.0, t0=0.0, phi0=b, dphi0=0.0)


def sin_params(n, t0=math.pi / 2.0):
    """Round family phi = sin t with rho = n - 1, eps = 1, c = 0."""
    return WarpParams(n=n, eps=1.0, rho=float(n - 1), t0=t0,
                      phi0=math.sin(t0), dphi0=math.cos(t0))


def linear_params(n, t0=1.0):
    """Flat family phi = t with rho = 0, eps = 1, c = 0."""
    return WarpParams(n=n, eps=1.0, rho=0.0, t0=t0, phi0=t0, dphi0=1.0)


def extra_codim_params(n):
    """Warp family matched to the unit-sum torus fiber: eps = (n-4)/(n-3).

    phi0 = (n-4)/2 makes phi''(0) = 1 exactly, the smoothness condition at
    the rotational pole of the base.
    """
    if n < 6:
        raise BadDimension("matched family needs n >= 6")
    eps = (n - 4.0) / (n - 3.0)
    phi0 = (n - 4.0) / 2.0
    return WarpParams(n=n, eps=eps, rho=0.0, t0=0.0, phi0=phi0, dphi0=0.0)


def closed_form_n5(c, t):
    """Exact n=5 Ricci-flat solution phi = sqrt(t^2 - c) with derivatives.

    Valid for eps = 1, rho = 0; requires t^2 > c. Returns a WarpSample,
    of floats at scalar t and of arrays when t is an array.
    """
    t_arr = np.asarray(t, dtype=float)
    sq = t_arr * t_arr - c
    if np.any(sq <= 0.0):
        raise OutOfDomain("t^2 - c must be positive")
    phi = np.sqrt(sq)
    dphi = t_arr / phi
    d2phi = -c / phi ** 3
    d3phi = 3.0 * c * t_arr / phi ** 5
    return WarpSample(phi, dphi, d2phi, d3phi)


def closed_form_n5_error(sol):
    """Largest gap in phi or phi' between the grid of sol and the n = 5
    closed form with the solution's c, translated to phi^2 = (t - a)^2 - c
    with a = t0 - phi0 phi0'. Other parameters raise WrongFamily."""
    pp = sol.params
    if pp.n != 5 or pp.rho != 0.0 or pp.eps != 1.0:
        raise WrongFamily("closed-form comparison needs n=5, rho=0, eps=1")
    a = pp.t0 - pp.phi0 * pp.dphi0
    phi, dphi, _, _ = closed_form_n5(pp.c, sol.t - a)
    return max(float(np.max(np.abs(phi - sol.phi))),
               float(np.max(np.abs(dphi - sol.dphi))))


# -- scalar diagnostics ------------------------------------------------------

def constant_curvature_value(params):
    """Base curvature forced by c = 0: K = rho / (n-1), else None."""
    if abs(params.c) <= 1e-12 * (1.0 + abs(params.eps) + abs(params.rho)):
        return params.rho / (params.n - 1.0)
    return None


def embeddability_margin(dphi, d2phi):
    """1 - phi'^2 - phi''^2; nonnegative iff the rotational profile exists.

    Takes floats or arrays of rows.
    """
    return 1.0 - dphi * dphi - d2phi * d2phi


def schwarzschild_identity_residual(params, sample):
    """Defect of phi'^2 + phi''^2 = 1 - x^{n-3} + x^{2(n-2)}, x = b/phi.

    Only meaningful on the generalized Schwarzschild family: other
    parameters, a c off the family's by more than the 1e-12 (1 + |c|) that
    WarpParams holds c to among them, raise WrongFamily.
    """
    n = params.n
    b = (n - 3.0) / 2.0
    if params.rho != 0.0 or params.eps != 1.0 or abs(
        params.c + b ** (n - 3.0)
    ) > 1e-12 * (1.0 + b ** (n - 3.0)):
        raise WrongFamily(
            "identity holds only for the Schwarzschild family "
            "(rho=0, eps=1, c=-((n-3)/2)^{n-3})"
        )
    x = b / sample.phi
    rhs = 1.0 - x ** (n - 3.0) + x ** (2.0 * (n - 2.0))
    return sample.dphi ** 2 + sample.d2phi ** 2 - rhs


# -- serialization -----------------------------------------------------------

CSV_HEADER = "t,phi,dphi,d2phi,d3phi,first_integral_residual"


def solution_csv(sol):
    table = np.column_stack((sol.t, sol.phi, sol.dphi, sol.d2phi, sol.d3phi,
                             sol.drift))
    return "\n".join([CSV_HEADER] + serialize.fmt_rows(table)) + "\n"


def write_solution_csv(sol, path):
    serialize.write_text_atomic(path, solution_csv(sol))


def solution_payload(sol):
    """JSON-ready dict with full parameters and the sampled trajectory."""
    return {
        "schema_version": 1,
        "kind": "warp_solution",
        "params": sol.params.as_dict(),
        "step": sol.step,
        "truncated": sol.truncated,
        "halt_reason": sol.halt_reason,
        "max_drift": sol.max_drift,
        "t": sol.t,
        "phi": sol.phi,
        "dphi": sol.dphi,
        "d2phi": sol.d2phi,
        "d3phi": sol.d3phi,
    }


def write_solution_json(sol, path):
    serialize.write_json(path, solution_payload(sol))
