"""Intrinsic curvature checks on coordinate charts.

A chart is anything with a dim, a sample_box of shape (dim, 2), and a
metric_batch taking (N, dim) points to (N, dim, dim) metric matrices. Three
implementations live here: products of round spheres, warped products over a
rotational base, and pullbacks of explicit immersions. curvature_fd
differentiates the metric twice with central stencils and assembles the
Christoffel symbols, the curvature tensor and Ricci in one place; the
sectional curvatures of a point read its Riemann tensor, lowered once. Every
chart gets Einstein verification through this one code path.

FAMILIES is the family table: one row per model geometry, from which every
chart and immersion, every command-line --family choice and every `report`
fixture is built.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import sampling, warpfunc
from .errors import BadDimension, BadRange, OutsideDomain, SingularChartPoint

_TOL_POLE = 1e-3
_TOL_WARP_TURNING = 1e-6


# -- fibers -------------------------------------------------------------------

@dataclass(frozen=True)
class FiberSpec:
    """Product of round spheres, optionally translated off the origin.

    dims are sphere dimensions, radii their radii; offset is a constant
    extra coordinate carried by immersions (it does not enter the metric).
    Polar angles per factor: the first d-1 lie in (0, pi), the last in
    [0, 2 pi); all but the last are singular near 0 and pi.
    """

    dims: tuple
    radii: tuple
    offset: float = 0.0

    def __post_init__(self):
        if len(self.dims) != len(self.radii) or not self.dims:
            raise BadDimension("dims and radii must be equal-length, nonempty")
        if any(d < 1 for d in self.dims):
            raise BadDimension("sphere factors must have dimension >= 1")
        if not all(math.isfinite(r) and r > 0 for r in self.radii):
            raise BadRange("radii must be finite and positive")
        if not math.isfinite(self.offset):
            raise BadRange("offset must be finite")

    @property
    def dim(self):
        return int(sum(self.dims))

    @property
    def factor_constants(self):
        """Ricci constant (d-1)/r^2 of each round factor."""
        return tuple((d - 1.0) / (r * r) for d, r in zip(self.dims, self.radii))

    @property
    def einstein_constant(self):
        """Common Ricci constant if the product is Einstein, else None."""
        ks = self.factor_constants
        if max(ks) - min(ks) <= 1e-12 * (1.0 + max(abs(k) for k in ks)):
            return ks[0]
        return None

    def ambient_radius(self):
        """Distance of the image from the origin of the flat ambient."""
        return math.sqrt(sum(r * r for r in self.radii) + self.offset ** 2)

    def metric_diag(self, Y):
        """Diagonal of the product metric at angle rows Y of shape (N, dim)."""
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        out = np.empty_like(Y)
        o = 0
        for d, r in zip(self.dims, self.radii):
            block = Y[:, o:o + d]
            if d > 1:
                s = np.sin(block[:, : d - 1])
                if np.any(np.abs(s) < _TOL_POLE):
                    raise SingularChartPoint(
                        "fiber angle within %g of a coordinate pole" % _TOL_POLE
                    )
                run = np.cumprod(s * s, axis=1)
                out[:, o] = r * r
                out[:, o + 1:o + d] = r * r * run
            else:
                out[:, o] = r * r
            o += d
        return out

    def angle_box(self, pad=0.4):
        """Sampling box that keeps every non-final angle away from poles."""
        box = []
        for d in self.dims:
            box.extend([(pad, math.pi - pad)] * (d - 1))
            box.append((0.0, 2.0 * math.pi))
        return box


def offset_torus_fiber(n, m):
    """Einstein product S^m x S^{n-m-2} translated to the unit sphere.

    Radii are chosen so both factors share Ricci constant n-3, and the
    constant extra coordinate 1/sqrt(n-3) lifts the image into the unit
    sphere of the ambient R^{n+1}. Fits an n-dim warped product with eps=1.
    """
    _check_torus_range(n, m)
    r1 = math.sqrt((m - 1.0) / (n - 3.0))
    r2 = math.sqrt((n - m - 3.0) / (n - 3.0))
    return FiberSpec(dims=(m, n - m - 2), radii=(r1, r2),
                     offset=1.0 / math.sqrt(n - 3.0))


def unit_torus_fiber(n, m):
    """Einstein product S^m x S^{n-m-2} lying in the unit sphere itself.

    The unit-sum constraint r1^2 + r2^2 = 1 forces the shared Ricci constant
    down to n-4, so this fiber fits an n-dim warped product only with
    eps = (n-4)/(n-3), not with eps = 1.
    """
    _check_torus_range(n, m)
    r1 = math.sqrt((m - 1.0) / (n - 4.0))
    r2 = math.sqrt((n - m - 3.0) / (n - 4.0))
    return FiberSpec(dims=(m, n - m - 2), radii=(r1, r2))


def round_fiber(d, r=1.0):
    return FiberSpec(dims=(d,), radii=(float(r),))


def clifford_radii(n, rho):
    """Radii making S^2(r1) x S^{n-2}(r2) Einstein with constant rho."""
    if n < 5:
        raise BadDimension("product needs n >= 5 so the second factor is a sphere")
    if not rho > 0:
        raise BadRange("rho must be positive")
    return math.sqrt(1.0 / rho), math.sqrt((n - 3.0) / rho)


def _check_torus_range(n, m):
    if n < 6:
        raise BadDimension("torus fibers need n >= 6")
    if not 2 <= m <= n - 4:
        raise BadRange("m must satisfy 2 <= m <= n-4, got m=%d, n=%d" % (m, n))


# -- charts -------------------------------------------------------------------

@dataclass
class ProductChart:
    """Chart of a product of round spheres, used directly as a manifold."""

    fiber: FiberSpec
    label: str = "product"

    @property
    def dim(self):
        return self.fiber.dim

    @property
    def sample_box(self):
        return np.asarray(self.fiber.angle_box(), dtype=float)

    def metric_batch(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        diag = self.fiber.metric_diag(X)
        out = np.zeros((X.shape[0], self.dim, self.dim))
        idx = np.arange(self.dim)
        out[:, idx, idx] = diag
        return out


@dataclass
class WarpedChart:
    """Rotational chart (t, theta, y) with metric diag(1, phi'^2, phi^2 g_F).

    The base surface dt^2 + phi'(t)^2 dtheta^2 automatically carries Gauss
    curvature -phi'''/phi', so Einstein-ness of the whole chart reduces to
    the structural equation plus the fiber's Ricci constant. Singular where
    phi' vanishes; t_range must avoid turning points of the warp.
    """

    warp: warpfunc.WarpSolution
    fiber: FiberSpec
    t_range: tuple
    label: str = "warped"

    @property
    def dim(self):
        return 2 + self.fiber.dim

    @property
    def sample_box(self):
        box = [tuple(self.t_range), (0.0, 2.0 * math.pi)]
        box.extend(self.fiber.angle_box())
        return np.asarray(box, dtype=float)

    def metric_batch(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        phi, dphi, _, _ = self.warp.samples_at(X[:, 0])
        if np.any(np.abs(dphi) < _TOL_WARP_TURNING):
            raise SingularChartPoint(
                "chart degenerates at a turning point of the warp"
            )
        out = np.zeros((X.shape[0], self.dim, self.dim))
        out[:, 0, 0] = 1.0
        out[:, 1, 1] = dphi * dphi
        fdiag = self.fiber.metric_diag(X[:, 2:])
        idx = np.arange(2, self.dim)
        out[:, idx, idx] = (phi * phi)[:, None] * fdiag
        return out


@dataclass
class PullbackChart:
    """First fundamental form of an explicit immersion, J^T J pointwise."""

    immersion: object
    label: str = "pullback"

    @property
    def dim(self):
        return self.immersion.dim

    @property
    def sample_box(self):
        return np.asarray(self.immersion.sample_box, dtype=float)

    def metric_batch(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        J = self.immersion.jacobian_batch(X)
        return np.einsum("nai,naj->nij", J, J)


# -- finite-difference curvature ---------------------------------------------

def metric_jet_fd(chart, x, h=1e-3):
    """Metric with first and second coordinate derivatives at one point.

    One batched chart evaluation over the full second-order central stencil
    (1 + 2 dim + 2 dim (dim-1) points). Returns (g, dg, d2g) with
    dg[a] = d_a g and d2g[a, b] = d_a d_b g.
    """
    x = np.asarray(x, dtype=float)
    d = chart.dim
    if x.shape != (d,):
        raise BadDimension("point has shape %s, chart dim is %d" % (x.shape, d))
    pts = [x]
    for a in range(d):
        for s in (1.0, -1.0):
            p = x.copy()
            p[a] += s * h
            pts.append(p)
    pair_at = {}
    for a in range(d):
        for b in range(a + 1, d):
            pair_at[(a, b)] = len(pts)
            for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                p = x.copy()
                p[a] += sa * h
                p[b] += sb * h
                pts.append(p)
    G = chart.metric_batch(np.asarray(pts))
    g = G[0]
    dg = np.empty((d, d, d))
    d2g = np.empty((d, d, d, d))
    for a in range(d):
        gp, gm = G[1 + 2 * a], G[2 + 2 * a]
        dg[a] = (gp - gm) / (2.0 * h)
        d2g[a, a] = (gp - 2.0 * g + gm) / (h * h)
    for (a, b), k in pair_at.items():
        mixed = (G[k] - G[k + 1] - G[k + 2] + G[k + 3]) / (4.0 * h * h)
        d2g[a, b] = mixed
        d2g[b, a] = mixed
    return g, dg, d2g


@dataclass
class PointCurvature:
    """Curvature data of one chart point, all indices coordinate-frame."""

    g: np.ndarray
    gamma: np.ndarray
    riemann: np.ndarray   # R^a_{bcd}
    ricci: np.ndarray     # symmetrized
    ricci_sym_defect: float

    @functools.cached_property
    def riemann_low(self):
        """R_{abcd}, lowered once per point for every sectional call."""
        return np.einsum("ae,ebcd->abcd", self.g, self.riemann)

    def sectional(self, i, j):
        """Curvature of the coordinate plane (i, j)."""
        num = self.riemann_low[i, j, i, j]
        den = self.g[i, i] * self.g[j, j] - self.g[i, j] ** 2
        return float(num / den)


def curvature_fd(chart, x, h=1e-3):
    """Assemble curvature at x from the finite-difference metric jet.

    Convention: R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb}
    + Gamma^a_{ce} Gamma^e_{db} - Gamma^a_{de} Gamma^e_{cb};
    Ric_{bd} = R^a_{bad}. This makes the unit round sphere come out with
    sectional curvature +1.
    """
    g, dg, d2g = metric_jet_fd(chart, x, h=h)
    ginv = np.linalg.inv(g)
    bracket = (np.transpose(dg, (2, 0, 1))
               + np.transpose(dg, (2, 1, 0))
               - dg)
    gamma = 0.5 * np.einsum("kl,lij->kij", ginv, bracket)

    # d_m Gamma^k_{ij} needs d_m g^{-1} = -g^{-1} (d_m g) g^{-1}
    dginv = -np.einsum("kp,mpq,ql->mkl", ginv, dg, ginv)
    # d_m bracket[l,i,j] = d_m d_i g_{jl} + d_m d_j g_{il} - d_m d_l g_{ij}
    dbracket = (np.transpose(d2g, (0, 3, 1, 2))
                + np.transpose(d2g, (0, 3, 2, 1))
                - d2g)
    dgamma = 0.5 * (np.einsum("mkl,lij->mkij", dginv, bracket)
                    + np.einsum("kl,mlij->mkij", ginv, dbracket))

    riem = (np.einsum("cadb->abcd", dgamma)
            - np.einsum("dacb->abcd", dgamma)
            + np.einsum("ace,edb->abcd", gamma, gamma)
            - np.einsum("ade,ecb->abcd", gamma, gamma))
    ric = np.einsum("abad->bd", riem)
    defect = float(np.max(np.abs(ric - ric.T)))
    ric = 0.5 * (ric + ric.T)
    return PointCurvature(g=g, gamma=gamma, riemann=riem, ricci=ric,
                          ricci_sym_defect=defect)


# -- pointwise scalar conditions ----------------------------------------------

def einstein_conditions_residual(params, sample, K):
    """The two scalar conditions tying base curvature to the warp.

    r1: K phi = (n-2) phi'' + rho phi (base curvature forced by the warp).
    r2: the structural equation itself, written homogeneously.
    Both vanish identically on Einstein warped products.
    """
    n, rho, eps = params.n, params.rho, params.eps
    r1 = (n - 2.0) * sample.d2phi - (K - rho) * sample.phi
    r2 = (2.0 * sample.d2phi
          + (n - 3.0) / sample.phi * (sample.dphi ** 2 - eps)
          + rho * sample.phi)
    return r1, r2


def fiber_constant_residual(params, sample, fiber):
    """Mismatch between the fiber's Ricci constant and what the warp needs.

    The warped product is Einstein only if the fiber carries
    Ric_F = mu g_F with mu = rho phi^2 + phi (Delta phi) + (n-3)|grad phi|^2,
    which along base geodesics reads rho phi^2 + 2 phi phi'' + (n-3) phi'^2
    and collapses to (n-3) eps on solutions. Nonzero output is exactly the
    obstruction to Einstein-ness for a mismatched fiber.
    """
    mu = (params.rho * sample.phi ** 2
          + 2.0 * sample.phi * sample.d2phi
          + (params.n - 3.0) * sample.dphi ** 2)
    k = fiber.einstein_constant
    if k is None:
        raise BadRange("fiber is not Einstein; no constant to compare")
    return mu - k


# -- the family table ----------------------------------------------------------

def clifford_fiber(n, rho):
    """S^2(r1) x S^{n-2}(r2) with both factors tuned to Ricci constant rho."""
    return FiberSpec(dims=(2, n - 2), radii=clifford_radii(n, rho))


@dataclass(frozen=True)
class Family:
    """One row of FAMILIES: everything the program builds for one family.

    fiber(n, m, rho) is the fiber. A row with warp(n) is charted as the
    warped product over t_range, its warp integrated from warp(n).t0 to
    t_end, a little past t_range so stencils stay inside the solution; a
    row without one is charted as the fiber itself. base names the
    immersion: "rotational" (the warp's profile curve), a composite base of
    immersions._BASES, "product" (the fiber's own embedding), or None.
    rho(n) is the Einstein constant; None means the caller supplies it.
    The fields from perturbable on serve the command line and `report`.
    """

    fiber: object
    rho: object = None
    warp: object = None
    t_range: tuple = None
    t_end: float = None
    base: str = None
    needs_m: bool = False
    perturbable: bool = False     # --perturb scales the last fiber radius
    defect_floor: float = None    # not Einstein: residual must reach this
    spread: tuple = None          # ("max" or "min", bound) on sectional spread
    u_dim_codim2: bool = False    # umbilical group of dimension n-2 expected
    report: tuple = ()            # (n, m, rho) members `report` checks


# sectional spread the round and flat space forms may show at h = 1e-3
TOL_SPREAD_FLAT = 1e-4

# warp presets shared by several rows: params of n, chart t-range, t_end
_SIN = dict(warp=lambda n: warpfunc.sin_params(n, t0=0.15),
            t_range=(0.25, 1.3), t_end=1.3 + 0.15)
_LINEAR = dict(warp=lambda n: warpfunc.linear_params(n, t0=0.3),
               t_range=(0.5, 2.5), t_end=2.5 + 0.2)


def _zero(n):
    return 0.0


def _n_minus_1(n):
    return float(n - 1)


# `report` checks the rows in this order, Einstein rows before defect rows
FAMILIES = {
    # S^2 x S^{n-2}, Einstein with any rho > 0
    "clifford": Family(
        fiber=lambda n, m, rho: clifford_fiber(n, rho), base="product",
        perturbable=True, u_dim_codim2=True,
        report=((5, None, 1.0), (6, None, 2.0))),
    # Ricci-flat rotational immersion in codimension 2
    "schwarzschild": Family(
        warp=warpfunc.schwarzschild_params, t_range=(0.35, 1.6),
        t_end=1.6 + 0.2, fiber=lambda n, m, rho: round_fiber(n - 2),
        rho=_zero, base="rotational", spread=("min", 1e-2), u_dim_codim2=True,
        report=((5, None, None), (6, None, None))),
    # round n-sphere as a warped product, phi = sin t
    "round": Family(
        **_SIN, fiber=lambda n, m, rho: round_fiber(n - 2), rho=_n_minus_1,
        spread=("max", TOL_SPREAD_FLAT), report=((5, None, None),)),
    # flat R^n as a warped product, phi = t
    "flat": Family(
        **_LINEAR, fiber=lambda n, m, rho: round_fiber(n - 2), rho=_zero,
        spread=("max", TOL_SPREAD_FLAT), report=((5, None, None),)),
    # phi = t over a flat base with the offset torus; Ricci-flat
    "flat-torus-composite": Family(
        **_LINEAR, fiber=lambda n, m, rho: offset_torus_fiber(n, m),
        rho=_zero, base="flat", needs_m=True, report=((7, 2, None),)),
    # the eps-matched warp over the unit-sum torus, codimension 3
    "extra-codim": Family(
        warp=warpfunc.extra_codim_params, t_range=(0.35, 1.6),
        t_end=1.6 + 0.2, fiber=lambda n, m, rho: unit_torus_fiber(n, m),
        rho=_zero, base="rotational", needs_m=True, report=((7, 2, None),)),
    # unit-sum torus fibers: Ricci constant n-4 where the warp needs n-3,
    # so these are immersed warped products that are not Einstein
    "round-torus-composite": Family(
        **_SIN, fiber=lambda n, m, rho: unit_torus_fiber(n, m),
        rho=_n_minus_1, base="sphere", needs_m=True, defect_floor=0.2,
        report=((7, 2, None),)),
    "cylinder-torus-composite": Family(
        **_LINEAR, fiber=lambda n, m, rho: unit_torus_fiber(n, m),
        rho=_zero, base="cylinder", needs_m=True, defect_floor=0.05,
        report=((7, 2, None),)),
    # round S^n in R^{n+1}, the totally umbilical control case
    "sphere": Family(
        fiber=lambda n, m, rho: round_fiber(n), rho=_n_minus_1,
        base="product"),
}


@functools.lru_cache(maxsize=32)
def _shared_warp(params, t_end, step):
    sol = warpfunc.integrate(params, t_end, step=step)
    for arr in (sol.t, sol.phi, sol.dphi, sol.d2phi, sol.d3phi, sol.drift):
        arr.flags.writeable = False
    return sol


def family_warp(row, n):
    """The row's warp solution for dimension n, integrated once per
    (params, t_end, step) and shared by every chart and immersion built
    from it; its arrays are read-only."""
    return _shared_warp(row.warp(n), row.t_end, 1e-3)


def family_member(family, n, m=None, rho=None, perturb=0.0):
    """Row, label, fiber and Einstein constant of one member of a family."""
    row = FAMILIES.get(family)
    if row is None:
        raise BadRange("unknown family %r; known families: %s"
                       % (family, ", ".join(FAMILIES)))
    if row.needs_m and m is None:
        raise BadRange("%s needs m" % family)
    if row.rho is not None:
        rho = row.rho(n)
    elif rho is None:
        raise BadRange("%s needs rho" % family)
    label = "%s-n%d" % (family, n) + ("-m%d" % m if row.needs_m else "")
    fiber = row.fiber(n, m, rho)
    if perturb:
        if not row.perturbable:
            raise BadRange("perturb applies to %s only" % ", ".join(
                k for k, r in FAMILIES.items() if r.perturbable))
        radii = fiber.radii[:-1] + (fiber.radii[-1] * (1.0 + perturb),)
        fiber = replace(fiber, radii=radii)
        label += "-perturbed"
    return row, label, fiber, rho


def chart_for_family(family, n, m=None, rho=None, perturb=0.0):
    """Build the named chart and return it with its target Einstein constant."""
    row, label, fiber, rho = family_member(family, n, m, rho, perturb)
    if row.warp is None:
        return ProductChart(fiber=fiber, label=label), rho
    chart = WarpedChart(warp=family_warp(row, n), fiber=fiber,
                        t_range=row.t_range, label=label)
    return chart, rho


# -- verification driver -------------------------------------------------------

@dataclass
class CurvatureReport:
    label: str
    dim: int
    rho: float
    h: float
    n_points: int
    einstein_max: float
    ricci_sym_max: float
    richardson_max: float
    sectional_min: float
    sectional_max: float
    tol: float
    provenance: str = "finite-difference"

    @property
    def passed(self):
        return self.einstein_max <= self.tol

    @property
    def sectional_spread(self):
        return self.sectional_max - self.sectional_min

    def as_dict(self):
        return {
            "label": self.label,
            "dim": self.dim,
            "rho": self.rho,
            "h": self.h,
            "n_points": self.n_points,
            "einstein_max": self.einstein_max,
            "ricci_sym_max": self.ricci_sym_max,
            "richardson_max": self.richardson_max,
            "sectional_min": self.sectional_min,
            "sectional_max": self.sectional_max,
            "sectional_spread": self.sectional_spread,
            "tol": self.tol,
            "passed": self.passed,
            "provenance": self.provenance,
        }


def sample_points(chart, n_points, seed=0, margin=None, h=1e-3):
    """n_points quasi-random chart points, a stencil margin inside the box.

    Rejects an empty sample and a step h that is not finite and positive,
    so no check downstream can pass on evidence it never collected.
    """
    if not n_points >= 1:
        raise BadRange("need at least one sample point, got %r" % (n_points,))
    if not (math.isfinite(h) and h > 0.0):
        raise BadRange("step h must be finite and positive, got %r" % (h,))
    box = np.array(chart.sample_box, dtype=float)
    if margin is None:
        margin = 3.0 * h
    box[:, 0] += margin
    box[:, 1] -= margin
    if np.any(box[:, 1] <= box[:, 0]):
        raise OutsideDomain("sample box collapses under the stencil margin")
    return sampling.box(n_points, box, seed=seed)


def verify_einstein(chart, rho, n_points=24, h=1e-3, tol=5e-5, seed=0,
                    richardson=False, max_planes=10):
    """Sample the chart and bound the Einstein defect pointwise.

    The defect at a point is max |Ric - rho g| / (1 + max |g|).
    richardson=True recomputes each point at h/2 and reports the largest
    Ricci shift between the two resolutions, an empirical error estimate
    for the finite differences themselves.
    """
    pts = sample_points(chart, n_points, seed=seed, h=h)
    d = chart.dim
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    if len(pairs) > max_planes:
        sel = np.random.default_rng(seed).choice(len(pairs), max_planes,
                                                 replace=False)
        pairs = [pairs[int(k)] for k in sel]
    resids, syms, secs, rich = [], [], [], []
    for x in pts:
        pc = curvature_fd(chart, x, h=h)
        dev = np.max(np.abs(pc.ricci - rho * pc.g))
        resids.append(float(dev / (1.0 + np.max(np.abs(pc.g)))))
        syms.append(pc.ricci_sym_defect)
        secs.extend(pc.sectional(i, j) for (i, j) in pairs)
        if richardson:
            pc2 = curvature_fd(chart, x, h=h / 2.0)
            rich.append(float(np.max(np.abs(pc.ricci - pc2.ricci))))
    # numpy reductions propagate NaN, where max(0.0, nan) would drop it
    return CurvatureReport(
        label=getattr(chart, "label", chart.__class__.__name__),
        dim=d, rho=rho, h=h, n_points=len(pts),
        einstein_max=float(np.max(resids)), ricci_sym_max=float(np.max(syms)),
        richardson_max=float(np.max(rich)) if richardson else float("nan"),
        sectional_min=float(np.min(secs, initial=math.inf)),
        sectional_max=float(np.max(secs, initial=-math.inf)), tol=tol,
    )
