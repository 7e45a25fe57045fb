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
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import serialize
from ._kernels import hermite_eval, rk4_warp
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

    Written as ck (phi'^2 - eps) / phi + cr phi, ck = -(n-3)/2, cr = -rho/2,
    in the RK4 kernel's order of operations (_kernels.rk4_warp), so the
    phi'' integrate stores at a node is the kernel's first stage there bit
    for bit.
    """
    phi = np.asarray(phi, dtype=float)
    dphi = np.asarray(dphi, dtype=float)
    ck = -0.5 * (n - 3.0)
    cr = -0.5 * rho
    out = ck * (dphi * dphi - eps) / phi + cr * phi
    return out if out.ndim else float(out)


def third_derivative(n, rho, phi, dphi, d2phi):
    """phi''' obtained by differentiating the structural equation once.

    The derivative of the right-hand side collapses to
    -phi' ((n-2) phi'' + rho phi) / phi, so phi''' always carries an exact
    factor of phi'.
    """
    phi = np.asarray(phi, dtype=float)
    dphi = np.asarray(dphi, dtype=float)
    d2phi = np.asarray(d2phi, dtype=float)
    out = -dphi * ((n - 2.0) * d2phi + rho * phi) / phi
    return out if out.ndim else float(out)


def c_from_state(n, eps, rho, phi, dphi):
    """Family constant of the first integral, read off one state."""
    phi = np.asarray(phi, dtype=float)
    dphi = np.asarray(dphi, dtype=float)
    out = (dphi * dphi - eps + rho * phi * phi / (n - 1.0)) * phi ** (n - 3.0)
    return out if out.ndim else float(out)


def first_integral_residual(n, eps, rho, c, phi, dphi):
    """Defect of the first integral at a state; zero along exact solutions."""
    phi = np.asarray(phi, dtype=float)
    dphi = np.asarray(dphi, dtype=float)
    out = dphi * dphi - eps + rho * phi * phi / (n - 1.0) - c / phi ** (n - 3.0)
    return out if out.ndim else float(out)


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
        return {
            "n": self.n,
            "eps": self.eps,
            "rho": self.rho,
            "c": self.c,
            "t0": self.t0,
            "phi0": self.phi0,
            "dphi0": self.dphi0,
        }


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
        (_kernels.hermite_eval); the second and third derivatives are then
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
    drift = np.atleast_1d(first_integral_residual(
        params.n, params.eps, params.rho, params.c, phi, dphi
    ))
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
        d2phi=np.atleast_1d(d2phi),
        d3phi=np.atleast_1d(d3phi),
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

    Only meaningful on the generalized Schwarzschild family; other
    parameters raise WrongFamily.
    """
    n = params.n
    b = (n - 3.0) / 2.0
    if params.rho != 0.0 or params.eps != 1.0 or abs(
        params.c + b ** (n - 3.0)
    ) > 1e-9 * (1.0 + b ** (n - 3.0)):
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
