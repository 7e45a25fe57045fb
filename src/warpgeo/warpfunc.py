"""Warping functions of Einstein warped products with 2-dimensional base.

An n-manifold of the form L^2 x_phi F^{n-2}(eps), with F Einstein of
normalized constant eps, is Einstein with Ric = rho g exactly when the warp
phi solves

    phi'' = -((n-3) (phi'^2 - eps) + rho phi^2) / (2 phi)

along base geodesics. That equation has the first integral

    phi'^2 = eps - rho phi^2 / (n-1) + c / phi^{n-3}

whose constant c labels the solution family. This module integrates the
equation, evaluates the family's closed forms where they exist, and exposes
the scalar diagnostics (base curvature, embeddability margin, identity
residuals) that the rest of the package checks numerically.

eps is kept as a free real number rather than an element of {-1, 0, 1}:
fibers arising from non-round Einstein manifolds carry other normalized
constants and the equation is insensitive to the distinction.
"""

import math
from dataclasses import dataclass, field

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
    WrongRegime,
)


def rhs_second_order(n, eps, rho, phi, dphi):
    """phi'' as a function of the state, from the structural equation."""
    phi = np.asarray(phi, dtype=float)
    dphi = np.asarray(dphi, dtype=float)
    out = -((n - 3.0) * (dphi * dphi - eps) + rho * phi * phi) / (2.0 * phi)
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
        if not self.phi0 > 0.0:
            raise NonPositiveWarp("phi0 must be positive, got %r" % (self.phi0,))
        derived = c_from_state(self.n, self.eps, self.rho, self.phi0, self.dphi0)
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


@dataclass(frozen=True)
class WarpSample:
    """One point of a solution with derivatives through third order."""

    t: float
    phi: float
    dphi: float
    d2phi: float
    d3phi: float


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

    @property
    def samples(self):
        return [
            WarpSample(
                float(self.t[i]),
                float(self.phi[i]),
                float(self.dphi[i]),
                float(self.d2phi[i]),
                float(self.d3phi[i]),
            )
            for i in range(len(self.t))
        ]

    def samples_at(self, ts):
        """Interpolate (phi, phi') at arbitrary points inside the interval.

        Interpolation is quintic Hermite on the stored grid; the second and
        third derivatives are then recomputed from the structural equation
        rather than differentiated numerically, so they inherit the accuracy
        of (phi, phi').
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        lo, hi = self.t_min, self.t_max
        pad = 1e-12 * (1.0 + abs(hi - lo))
        if np.any(ts < lo - pad) or np.any(ts > hi + pad):
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
        return np.asarray(p), np.asarray(d), np.atleast_1d(d2), np.atleast_1d(d3)

    def sample_at(self, t):
        p, d, d2, d3 = self.samples_at([t])
        return WarpSample(float(t), float(p[0]), float(d[0]), float(d2[0]), float(d3[0]))


def integrate(params, t_end, step=1e-3, tol_drift=1e-8, phi_floor=1e-8,
              on_floor="truncate"):
    """Integrate the structural equation from params.t0 to t_end.

    Fixed-step RK4 with the step shrunk so the grid lands on t_end exactly.
    The per-node first-integral defect, relative to the size of the terms
    entering it (the c/phi^{n-3} term diverges on collapsing trajectories,
    so an absolute gate would be meaningless there), must stay within
    tol_drift. A violation on a run that never approaches the floor means
    the step was too coarse and raises StepTooLarge; on a floor-truncated
    run the unresolved tail is trimmed off instead.

    The equation divides by phi, so the integrator halts when any stage
    dips to phi_floor. on_floor selects what a mid-run halt does: "truncate"
    returns the valid prefix with truncated=True, "raise" raises
    NonPositiveWarp. A floor violation by the initial state itself raises
    DomainExhausted.
    """
    if on_floor not in ("truncate", "raise"):
        raise BadRange("on_floor must be 'truncate' or 'raise'")
    if not step > 0.0:
        raise BadRange("step must be positive")
    if t_end == params.t0:
        raise BadRange("t_end must differ from t0")
    if params.phi0 <= phi_floor:
        raise DomainExhausted(
            "initial phi0=%g is at or below phi_floor=%g"
            % (params.phi0, phi_floor)
        )

    span = t_end - params.t0
    n_steps = max(1, int(math.ceil(abs(span) / step - 1e-12)))
    h = span / n_steps

    ts, ps, ds, count, hit_floor = rk4_warp(
        float(params.n), float(params.eps), float(params.rho),
        float(params.t0), float(params.phi0), float(params.dphi0),
        float(h), int(n_steps), float(phi_floor),
    )
    if hit_floor and on_floor == "raise":
        raise NonPositiveWarp(
            "phi reached the floor %g near t=%g" % (phi_floor, ts[count - 1])
        )
    t = np.array(ts[:count])
    phi = np.array(ps[:count])
    dphi = np.array(ds[:count])
    drift = np.atleast_1d(first_integral_residual(
        params.n, params.eps, params.rho, params.c, phi, dphi
    ))
    scale = 1.0 + np.abs(params.c) / phi ** (params.n - 3.0) + dphi * dphi
    rel = np.abs(drift) / scale
    if hit_floor:
        bad = np.nonzero(rel > tol_drift)[0]
        keep = int(bad[0]) if bad.size else len(t)
        if keep < 2:
            raise StepTooLarge(
                "trajectory collapses faster than step %g resolves" % h
            )
        t, phi, dphi, drift = t[:keep], phi[:keep], dphi[:keep], drift[:keep]
    elif float(np.max(rel)) > tol_drift:
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

def schwarzschild_params(n, t0=0.0):
    """Generalized Schwarzschild family: Ricci-flat base product, eps = 1.

    The neck sits at phi = b = (n-3)/2 where phi' = 0, which fixes
    c = -b^{n-3}; the choice of b makes phi''(t0) = 1 exactly, the condition
    for the rotational profile to close smoothly at its pole.
    """
    b = (n - 3.0) / 2.0
    return WarpParams(n=n, eps=1.0, rho=0.0, t0=t0, phi0=b, dphi0=0.0,
                      c=-(b ** (n - 3.0)))


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

    Valid for eps = 1, rho = 0; requires t^2 > c. Returns a WarpSample at
    scalar t, or arrays when t is an array.
    """
    t_arr = np.asarray(t, dtype=float)
    sq = t_arr * t_arr - c
    if np.any(sq <= 0.0):
        raise OutOfDomain("t^2 - c must be positive")
    phi = np.sqrt(sq)
    dphi = t_arr / phi
    d2phi = -c / phi ** 3
    d3phi = 3.0 * c * t_arr / phi ** 5
    if t_arr.ndim == 0:
        return WarpSample(float(t_arr), float(phi), float(dphi),
                          float(d2phi), float(d3phi))
    return phi, dphi, d2phi, d3phi


# -- scalar diagnostics ------------------------------------------------------

_TOL_TURNING = 1e-6


def base_gauss_curvature(params, sample):
    """Gauss curvature of the 2-dimensional base at a solution sample.

    K = -phi'''/phi' away from turning points of phi. At a turning point the
    quotient has the removable value ((n-2) phi'' + rho phi) / phi, which is
    what -phi'''/phi' collapses to identically along exact solutions.
    """
    if abs(sample.dphi) < _TOL_TURNING:
        return ((params.n - 2.0) * sample.d2phi + params.rho * sample.phi) / sample.phi
    return -sample.d3phi / sample.dphi


def constant_curvature_value(params):
    """Base curvature forced by c = 0: K = rho / (n-1), else None."""
    if abs(params.c) <= 1e-12 * (1.0 + abs(params.eps) + abs(params.rho)):
        return params.rho / (params.n - 1.0)
    return None


def embeddability_margin(sample):
    """1 - phi'^2 - phi''^2; nonnegative iff the rotational profile exists."""
    return 1.0 - sample.dphi ** 2 - sample.d2phi ** 2


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


def ricci_flat_diagnostics(params, sample):
    """Closed-form scalars available in the rho = 0, eps = 1 regime.

    Returns base curvature, Laplacian and Hessian eigenvalue of phi on the
    base, and the infimum of phi over the family orbit. All are rational in
    phi because the first integral eliminates phi'.
    """
    if params.rho != 0.0 or params.eps != 1.0:
        raise WrongRegime("diagnostics require rho = 0 and eps = 1")
    n, c = params.n, params.c
    phi = sample.phi
    k = -(n - 2.0) * (n - 3.0) * c / (2.0 * phi ** (n - 1.0))
    lap = -(n - 3.0) * c / phi ** (n - 2.0)
    inf_phi = (-c) ** (1.0 / (n - 3.0)) if c < 0.0 else 0.0
    return {
        "gauss_curvature": k,
        "laplacian": lap,
        "hessian_eigenvalue": lap / 2.0,
        "inf_phi": inf_phi,
    }


# -- serialization -----------------------------------------------------------

CSV_HEADER = "t,phi,dphi,d2phi,d3phi,first_integral_residual"


def solution_csv(sol):
    lines = [CSV_HEADER]
    for i in range(len(sol.t)):
        vals = (sol.t[i], sol.phi[i], sol.dphi[i], sol.d2phi[i],
                sol.d3phi[i], sol.drift[i])
        lines.append(",".join(serialize.fmt_float(float(v)) for v in vals))
    return "\n".join(lines) + "\n"


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
