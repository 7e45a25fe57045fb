"""Intrinsic curvature checks on coordinate charts.

A chart is anything with a dim, a sample_box of shape (dim, 2), and a
metric_batch taking (N, dim) points to (N, dim, dim) metric matrices. Three
implementations live here: products of round spheres, warped products over a
rotational base, and pullbacks of explicit immersions. The first two are
diagonal; their metric_jet gives the diagonal with its first and second
derivatives in closed form (the warp's from one dense-output call, the
fiber's from its sin^2 products), and diagonal_curvature contracts that
with d2f its one array of d**3 entries a point, every Christoffel product a
d x d matrix of df. Their ricci_diag gives O'Neill's Ricci from the warp's
samples and the fiber's Ricci constants, never the jet, as the oracle of
that pass, block by block from the samples the block's jet carries. A
pullback, which has neither, gets the dense jet from
metric_jet_fd, d**2 + d + 1 stencil rows a point at the one step _FD_STEP,
each J^T J of its immersion's order-1 jet (no Hessian), which
curvature_from_jet contracts in d**4 entries a point.
verify_einstein only measures; the command line judges by the family row.

FAMILIES is the family table: one row per model geometry, from which every
chart and immersion, every command-line --family choice and every `report`
fixture is built.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import sampling, warpfunc
from .errors import BadDimension, BadRange, OutOfDomain, SingularChartPoint

_TOL_POLE = 1e-3
_TOL_WARP_TURNING = 1e-6
# step of the finite-difference stencils, which run only on a chart without
# an exact jet, and a third of the sample's margin inside a chart's box
_FD_STEP = 1e-3
# coordinate planes whose sectional curvature verify_einstein samples
_MAX_PLANES = 10
# distance of the sampled non-final fiber angles from their poles
_ANGLE_PAD = 0.4


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
    def ambient_dim(self):
        """Coordinates of the product embedding: d + 1 per factor S^d, and
        one more for a nonzero offset."""
        return sum(d + 1 for d in self.dims) + (1 if self.offset else 0)

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

    @functools.cached_property
    def _carries(self):
        # carries[a, i]: f_i has sin^2 y_a, a later angle of the same factor
        factor = np.repeat(np.arange(len(self.dims)), self.dims)
        carries = np.triu(factor[:, None] == factor, 1)
        return carries, carries.any(axis=1)

    def metric_diag_jet(self, Y, f, out=None):
        """First and second angle derivatives of f = metric_diag(Y).

        Each entry of f is r^2 times the sin^2 of the earlier angles of its
        factor, so d_a f_i = 2 cot y_a f_i, d_a d_a f_i = (2 cot^2 y_a - 2) f_i
        and d_a d_b f_i = 4 cot y_a cot y_b f_i where f_i carries the angles.
        Returns df[:, a, i] and d2f[:, a, b, i], the latter written into out
        if given; a NaN in f reaches both.
        """
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        carries, polar = self._carries
        c = np.zeros_like(Y)                    # 2 cot y_a on polar angles
        c[:, polar] = 2.0 * np.cos(Y[:, polar]) / np.sin(Y[:, polar])
        cf = c[:, :, None] * carries * f[:, None, :]
        cm = c[:, :, None] * carries
        d2f = np.multiply(cm[:, :, None, :], cf[:, None, :, :], out=out)
        idx = np.arange(self.dim)
        d2f[:, idx, idx, :] = (0.5 * c * c - 2.0)[:, :, None] * carries * f[:, None, :]
        return cf, d2f

    def angle_box(self):
        """Sampling box that keeps every non-final angle away from poles."""
        box = []
        for d in self.dims:
            box.extend([(_ANGLE_PAD, math.pi - _ANGLE_PAD)] * (d - 1))
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


def round_fiber(d):
    return FiberSpec(dims=(d,), radii=(1.0,))


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
        return _on_diagonal(self.fiber.metric_diag(X))

    def metric_jet(self, X):
        """Diagonal jet (f, df, d2f) at rows X: f = fiber.metric_diag(X),
        df[:, a, i] = d_a f_i and d2f[:, a, b, i] = d_a d_b f_i, multiples of
        f, so a NaN in f reaches all. Its parts are (None, f)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        f = self.fiber.metric_diag(X)
        return DiagonalJet(f, *self.fiber.metric_diag_jet(X, f), (None, f))

    def ricci_diag(self, X, parts=None):
        """Closed-form Ricci diagonal at rows X, mu_i g on factor i; parts,
        a metric_jet's of the same rows, saves evaluating the fiber again."""
        f = self.fiber.metric_diag(X) if parts is None else parts[1]
        return np.repeat(self.fiber.factor_constants, self.fiber.dims) * f


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

    def _diag(self, X):
        """Diagonal at rows X, with the warp samples and the fiber diagonal."""
        s = self.warp.samples_at(X[:, 0])
        if np.any(np.abs(s.dphi) < _TOL_WARP_TURNING):
            raise SingularChartPoint(
                "chart degenerates at a turning point of the warp"
            )
        fdiag = self.fiber.metric_diag(X[:, 2:])
        diag = np.ones((X.shape[0], self.dim))
        diag[:, 1] = s.dphi * s.dphi
        diag[:, 2:] = (s.phi * s.phi)[:, None] * fdiag
        return diag, s, fdiag

    def metric_batch(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return _on_diagonal(self._diag(X)[0])

    def metric_jet(self, X):
        """ProductChart's diagonal jet, from one dense-output call of the warp.

        phi'' and phi''' come with phi and phi' from samples_at, which takes
        them from the structural equation; theta enters no metric entry.
        The fiber's second derivatives are written into the jet's block and
        scaled there, before the smaller arrays exist. Its parts are the
        warp sample and the fiber's diagonal, what ricci_diag reads.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        diag, s, f = self._diag(X)
        phi, dphi, d2phi, d3phi = s
        n, d = diag.shape
        pp = (phi * phi)[:, None, None]
        dd = np.zeros((n, d, d, d))
        df = self.fiber.metric_diag_jet(X[:, 2:], f, out=dd[:, 2:, 2:, 2:])[0]
        dd[:, 2:, 2:, 2:] *= pp[..., None]
        mixed = (2.0 * phi * dphi)[:, None, None] * df   # d_t d_a (phi^2 f)
        ddiag = np.zeros((n, d, d))
        ddiag[:, 0, 1] = 2.0 * dphi * d2phi
        ddiag[:, 0, 2:] = (2.0 * phi * dphi)[:, None] * f
        ddiag[:, 2:, 2:] = pp * df
        dd[:, 0, 0, 1] = 2.0 * (d2phi * d2phi + dphi * d3phi)
        dd[:, 0, 0, 2:] = (2.0 * (dphi * dphi + phi * d2phi))[:, None] * f
        dd[:, 0, 2:, 2:] = mixed
        dd[:, 2:, 0, 2:] = mixed
        return DiagonalJet(diag, ddiag, dd, (s, f))

    def ricci_diag(self, X, parts=None):
        """O'Neill's Ricci diagonal at rows X, which reads no jet: Ric = a g
        on the base, a = -phi'''/phi' - (n-2) phi''/phi, and (mu_i - w)/phi^2
        g on fiber factor i of Ricci constant mu_i, w = _fiber_need(n, 0).
        parts, a metric_jet's of the same rows, is the warp sample and the
        fiber's diagonal; without it the warp is sampled here."""
        if parts is None:
            parts = self._diag(np.atleast_2d(np.asarray(X, dtype=float)))[1:]
        s, f = parts
        a = -s.d3phi / s.dphi - (self.dim - 2.0) * s.d2phi / s.phi
        out = np.empty((len(f), self.dim))
        out[:, 0] = a
        out[:, 1] = s.dphi * s.dphi * a
        mu = np.repeat(self.fiber.factor_constants, self.fiber.dims)
        out[:, 2:] = (mu - _fiber_need(self.dim, 0.0, s)[:, None]) * f
        return out


@dataclass
class PullbackChart:
    """First fundamental form of an explicit immersion, J^T J pointwise,
    from the immersion's order-1 jet: the stencils that difference it never
    ask for, or hold, a Hessian."""

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
        J = self.immersion.jet(X, 1)[1]
        return np.swapaxes(J, 1, 2) @ J


class DiagonalJet(tuple):
    """The jet (f, df, d2f) of a diagonal metric at rows X, unpacked as a
    triple. parts, the (warp sample or None, fiber diagonal) of the same
    rows, is what the chart's closed-form ricci_diag reads, so a pass
    samples the warp once a block. A chart with both metric_jet and
    ricci_diag returns one; ricci_diag samples the warp itself only when
    called without parts, as verify_einstein calls it on a chart with no
    metric_jet."""

    def __new__(cls, f, df, d2f, parts):
        jet = super().__new__(cls, (f, df, d2f))
        jet.parts = parts
        return jet


def _on_diagonal(a):
    """Matrices whose diagonals are the last axis of a, zero elsewhere; the
    jet of a diagonal metric from the jet of its diagonal."""
    idx = np.arange(a.shape[-1])
    out = np.zeros(a.shape + a.shape[-1:])
    out[..., idx, idx] = a
    return out


# -- curvature from a metric jet ----------------------------------------------

# Element budget of one block of points, counting every array alive at its
# peak, so memory stays flat in the dimension and the sample size. Codazzi
# counts three arrays a point of its displaced Hessians' size and Gauss
# 7 d**3, which their measured peaks fit (see codazzi_residual and
# extrinsic.gauss_ricci_residual).
_BLOCK_ELEMENTS = 5 * 2 ** 14


def _block_slices(n, per_point):
    """Slices splitting n points into consecutive blocks of at most
    _BLOCK_ELEMENTS entries, per_point entries a point; a point that alone
    exceeds it is a block of its own."""
    step = max(1, _BLOCK_ELEMENTS // per_point)
    return [slice(k, k + step) for k in range(0, n, step)]


def _blocks(chart, n):
    """Slices splitting n points of chart into blocks within the budget.

    A block counts the entries alive at its peak, a point at a time. An
    exact block counts d**3 + 11 d**2: the d**3 of the jet's d2f, which
    diagonal_curvature reads, and d x d arrays for the Christoffel products,
    Ricci and its residual, with room for numpy's buffered ufunc loops. A
    finite-difference block counts 2 d**4 + 8 d**3 for curvature_from_jet
    (blocks sized to a bare peak outgrow the sizes glibc reuses), after the
    chart's d**2 + d + 1 stencil rows a point. A pullback's row counts
    (ambient + 2 d) d, its order-1 jet's J and their Gram matrices and d**2
    for what the jet keeps alive beside them; any other chart's, its metric
    of d**2. The tests hold a pass's tracemalloc peak within the budget and
    at half of it or more.
    """
    d = chart.dim
    if hasattr(chart, "metric_jet"):
        return _block_slices(n, d ** 3 + 11 * d * d)
    imm = getattr(chart, "immersion", None)
    row = (imm.ambient_dim + 2 * d) * d if imm else d * d
    return _block_slices(n, 2 * d ** 4 + 8 * d ** 3 + (d * d + d + 1) * row)


@functools.lru_cache(maxsize=32)
def _stencil(d, h):
    """The d**2 + d + 1 offsets of the second-order central stencil (the
    point, +-h e_a, and +-(h e_a + h e_b) for every pair a < b) and the pairs
    A, B in triu_indices order; built once per (d, h), all read-only."""
    step = h * np.eye(d)
    A, B = np.triu_indices(d, 1)
    pm = [np.stack([v, -v], 1).reshape(-1, d) for v in (step, step[A] + step[B])]
    E = np.concatenate([np.zeros((1, d))] + pm)
    for a in (E, A, B):
        a.flags.writeable = False
    return E, A, B


def metric_jet_fd(chart, X):
    """Metric with first and second coordinate derivatives at rows X.

    One chart evaluation over every row's second-order central stencil at
    step _FD_STEP, dim**2 + dim + 1 points each. Returns (g, dg, d2g) with
    a leading batch axis, dg[:, a] = d_a g and d2g[:, a, b] = d_a d_b g, a
    mixed entry from the pair's diagonal corners and axis terms (A&S 25.3):
    2 h**2 d_a d_b g = g(x + h e_a + h e_b) - 2 g(x) + g(x - h e_a - h e_b)
    - h**2 (d_a**2 g + d_b**2 g).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d = chart.dim
    if X.ndim != 2 or X.shape[1] != d:
        raise BadDimension("points have shape %s, chart dim is %d"
                           % (X.shape, d))
    h = _FD_STEP
    E, A, B = _stencil(d, h)
    n = X.shape[0]
    G = chart.metric_batch((X[:, None, :] + E).reshape(-1, d))
    G = G.reshape(n, len(E), d, d)
    g = G[:, 0].copy()   # so G dies on return, before the curvature
    gp, gm = G[:, 1:1 + 2 * d:2], G[:, 2:2 + 2 * d:2]
    dg = (gp - gm) / (2.0 * h)
    d2g = np.empty((n, d, d, d, d))
    idx = np.arange(d)
    axis = gp - 2.0 * g[:, None] + gm          # h**2 d_a**2 g
    d2g[:, idx, idx] = axis / (h * h)
    pair = G[:, 1 + 2 * d::2] - 2.0 * g[:, None] + G[:, 2 + 2 * d::2]
    mixed = (pair - axis[:, A] - axis[:, B]) / (2.0 * h * h)
    d2g[:, A, B] = mixed
    d2g[:, B, A] = mixed
    return g, dg, d2g


def _lowered(dg):
    """Gamma_{p,bc} = (d_b g_pc + d_c g_pb - d_p g_bc) / 2 at [:, p, b, c]."""
    return 0.5 * (dg.transpose(0, 2, 1, 3) + dg.transpose(0, 2, 3, 1) - dg)


def curvature_from_jet(g, dg, d2g):
    """Christoffel symbols and Ricci of a metric jet, contracted directly.

    Takes (g, dg, d2g) with a leading batch axis, as metric_jet_fd returns
    them, and gives (gamma, ricci, ricci_sym_defect)
    with the same axis. gamma[:, k, i, j] = Gamma^k_{ij}. Ric_bd = g^ac R_abcd,
    R_abcd as in riemann_entries, is contracted term by term, each term of
    d2g a batched matmul over a view of it:

        Ric_bd = (g^ac g_ad,bc + g^ac g_bc,ad - g^ac g_ac,bd - g^ac g_bd,ac) / 2
                 + g^ac Gamma_{p,bc} Gamma^p_ad - Gamma_{p,bd} g^ac Gamma^p_ac.

    Ricci is symmetrized, and the defect is its largest asymmetry before
    that; no term is taken as another's transpose, so a skew jet shows.
    """
    n, d = g.shape[:2]
    dd = d * d
    ginv = np.linalg.inv(g)   # symmetric: g^ac = g^ca
    low = _lowered(dg)
    gamma = ginv @ low.reshape(n, d, dd)
    t1 = (ginv.reshape(n, 1, 1, dd) @ d2g.reshape(n, d, dd, d)).reshape(n, d, d)
    t2 = (d2g.reshape(n, d, dd, d) @ ginv[..., None]).sum(axis=1)
    t3 = (d2g.reshape(n, dd, dd) @ ginv.reshape(n, dd, 1)).reshape(n, d, d)
    t4 = (ginv.reshape(n, 1, dd) @ d2g.reshape(n, dd, dd)).reshape(n, d, d)
    # m[:, p, b, a] = g^ac Gamma_{p,bc}; v[:, p] = g^ac Gamma^p_ac
    m = (low.reshape(n, dd, d) @ ginv).reshape(n, d, d, d)
    q1 = m.transpose(0, 2, 1, 3).reshape(n, d, dd) @ gamma.reshape(n, dd, d)
    v = gamma @ ginv.reshape(n, dd, 1)
    q2 = (np.swapaxes(v, 1, 2) @ low.reshape(n, d, dd)).reshape(n, d, d)
    ric = 0.5 * (t1 + np.swapaxes(t2.reshape(n, d, d), 1, 2) - t3 - t4)
    ric += q1 - q2
    ric_t = ric.transpose(0, 2, 1)
    defect = np.max(np.abs(ric - ric_t), axis=(1, 2))
    return gamma.reshape(n, d, d, d), 0.5 * (ric + ric_t), defect


def riemann_entries(dg, d2g, gamma, a, b, c, d):
    """R_abcd at broadcast index arrays, the jet's batch axis first, with
    gamma from curvature_from_jet and Gamma_{p,bc} from _lowered; the unit
    round sphere comes out with sectional curvature +1.

        R_abcd = (g_ad,bc + g_bc,ad - g_ac,bd - g_bd,ac) / 2
                 + Gamma_{p,bc} Gamma^p_ad - Gamma_{p,bd} Gamma^p_ac
    """
    a, b, c, d = np.broadcast_arrays(a, b, c, d)
    low = _lowered(dg)
    quad = [np.sum(low[:, :, b, e] * gamma[:, :, a, f], axis=1)
            for e, f in ((c, d), (d, c))]   # Gamma_{p,be} Gamma^p_af
    return (0.5 * (d2g[:, b, c, a, d] + d2g[:, a, d, b, c]
                   - d2g[:, b, d, a, c] - d2g[:, a, c, b, d])
            + quad[0] - quad[1])


def diagonal_curvature(f, df, d2f, I, J):
    """(ricci, ricci_sym_defect, sectionals of the planes (I, J)) of a
    diagonal jet as metric_jet gives it: curvature_from_jet's terms at g^ac
    = delta_ac / f_a, T1_bd = d2f[b, d, d] / f_d and T2_bd = d2f[b, d, b] /
    f_b (not T1's transpose, so a skew jet shows), and riemann_entries'
    R_IJIJ over f_I f_J. d2f is its one array of d**3 entries a point: with
    D = df, w = 1 / f and 2 Gamma_{p,bc} = delta_pc D_bp + delta_pb D_cp -
    delta_bc D_pb, the Christoffel products are symmetric d x d matrices,

        4 Q1_bd = (D W^2 D^T)_bd - 2 w_b w_d D_db D_bd
                  + 2 delta_bd w_b sum_a w_a D_ab^2,
        2 Q2_bd = D_bd v_d + D_db v_b - delta_bd sum_p D_pb v_p,
            v_p = w_p (w_p D_pp - sum_a w_a D_pa / 2) = w_p u_p,
        4 sum_p (Gamma_{p,JI} Gamma^p_IJ - Gamma_{p,JJ} Gamma^p_II)
            = w_I D_JI^2 + w_J D_IJ^2 + 2 (w_J D_JJ D_JI + w_I D_II D_IJ)
              - (D^T W D)_JI,

    so Ricci's symmetry defect is the T terms' alone.
    """
    n, d = f.shape
    w = 1.0 / f                                   # g^aa
    wc = w[..., None]
    y = df * w[:, None, :]                        # y[:, x, c] = D_xc w_c
    yt = y.transpose(0, 2, 1)
    yd = np.diagonal(y, axis1=1, axis2=2)
    t4 = np.diagonal(d2f, axis1=1, axis2=2)      # t4[:, i, a] = d2f[:, a, a, i]
    # 4 R_IJIJ f_I f_J at [:, I, J]; m is rebound so few d x d arrays live
    m = (y + 2.0 * yd[..., None]) * df - 2.0 * t4
    m = m + m.transpose(0, 2, 1)
    m -= df.transpose(0, 2, 1) @ (wc * df)
    secs = m[:, I, J] / (4.0 * f[:, I] * f[:, J])
    m = np.diagonal(d2f, axis1=2, axis2=3) * w[:, None, :]            # T1
    m += np.diagonal(d2f, axis1=1, axis2=3).transpose(0, 2, 1) * wc
    m -= (d2f.reshape(n, d * d, d) @ wc).reshape(n, d, d)             # T3
    m *= 0.5
    defect = np.max(np.abs(m - m.transpose(0, 2, 1)), axis=(1, 2))
    # Ric = (m + m^T + diag) / 2, m adding Q1 - Q2 but for their delta_bd
    # terms (Q2's as D_bd v_d), diag those and T4, doubled; y @ a copy of
    # y^T, as numpy's batched y @ y^T takes a slower symmetric path
    u = yd - 0.5 * y.sum(axis=2)
    diag = (wc * (df * (y + u[..., None]) - t4.transpose(0, 2, 1))).sum(axis=1)
    m -= y * u[:, None, :]
    m += 0.25 * (y @ yt.copy())
    m -= 0.5 * y * yt
    ric = m + m.transpose(0, 2, 1)
    ric.reshape(n, d * d)[:, ::d + 1] += diag
    ric *= 0.5
    return ric, defect, secs


@dataclass
class PointCurvature:
    """Curvature data of one chart point, all indices coordinate-frame."""

    g: np.ndarray
    gamma: np.ndarray
    riemann_low: np.ndarray   # R_{abcd}
    ricci: np.ndarray         # symmetrized
    ricci_sym_defect: float

    def sectional(self, i, j):
        """Curvature of the coordinate plane (i, j)."""
        g = self.g
        return float(self.riemann_low[i, j, i, j]
                     / (g[i, i] * g[j, j] - g[i, j] ** 2))


def curvature_fd(chart, x):
    """Curvature at the one point x from its finite-difference metric jet."""
    x = np.asarray(x, dtype=float)
    if x.shape != (chart.dim,):
        raise BadDimension("point has shape %s, chart dim is %d"
                           % (x.shape, chart.dim))
    g, dg, d2g = metric_jet_fd(chart, x[None])
    gamma, ric, defect = curvature_from_jet(g, dg, d2g)
    riem = riemann_entries(dg, d2g, gamma, *np.ix_(*[range(chart.dim)] * 4))
    return PointCurvature(g=g[0], gamma=gamma[0], riemann_low=riem[0],
                          ricci=ric[0], ricci_sym_defect=float(defect[0]))


def _row_max(a):
    return np.max(np.abs(a), axis=(1, 2))


# -- the fiber constant the warp needs ----------------------------------------

def _fiber_need(n, rho, s):
    """rho phi^2 + 2 phi phi'' + (n-3) phi'^2 at warp samples s, summed in
    this order: the fiber's Ricci constant an n-dim Einstein warp needs."""
    return rho * s.phi ** 2 + 2.0 * s.phi * s.d2phi + (n - 3.0) * s.dphi ** 2


def fiber_constant_residual(params, sample, fiber):
    """Mismatch between the fiber's Ricci constant and what the warp needs.

    The warped product is Einstein only if the fiber carries
    Ric_F = mu g_F with mu = rho phi^2 + phi (Delta phi) + (n-3)|grad phi|^2,
    which along base geodesics reads rho phi^2 + 2 phi phi'' + (n-3) phi'^2
    and collapses to (n-3) eps on solutions. Nonzero output is exactly the
    obstruction to Einstein-ness for a mismatched fiber.
    """
    mu = _fiber_need(params.n, params.rho, sample)
    k = fiber.einstein_constant
    if k is None:
        raise BadRange("fiber is not Einstein; no constant to compare")
    return mu - k


# -- the family table ----------------------------------------------------------

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
    scan: tuple = ()              # (n, m, rho) immersions `report` scans


# sectional spread the round and flat space forms may show. Their exact
# jets leave only rounding and dense-output error (round-n5 at most 1.1e-10
# and flat-n5 6.2e-12 over report seeds 0-29), not a stencil's truncation
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
    # S^2 x S^{n-2}, both factors at Ricci constant rho > 0
    "clifford": Family(
        fiber=lambda n, m, rho: FiberSpec(dims=(2, n - 2),
                                          radii=clifford_radii(n, rho)),
        base="product",
        perturbable=True, u_dim_codim2=True,
        report=((5, None, 1.0), (6, None, 2.0)), scan=((5, None, 1.0),)),
    # Ricci-flat rotational immersion in codimension 2
    "schwarzschild": Family(
        warp=warpfunc.schwarzschild_params, t_range=(0.35, 1.6),
        t_end=1.6 + 0.2, fiber=lambda n, m, rho: round_fiber(n - 2),
        rho=_zero, base="rotational", spread=("min", 1e-2), u_dim_codim2=True,
        report=((5, None, None), (6, None, None)),
        scan=((4, None, None), (5, None, None), (6, None, None))),
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


def chart_for_family(family, n, m=None, rho=None, perturb=0.0):
    """The chart of one member of a family, with its Einstein constant."""
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
    if row.warp is None:
        return ProductChart(fiber=fiber, label=label), rho
    return WarpedChart(warp=family_warp(row, n), fiber=fiber,
                       t_range=row.t_range, label=label), rho


# -- verification driver -------------------------------------------------------

@dataclass
class CurvatureReport:
    """What one pass over a chart's sample measured; the command line
    judges it against the chart's family row."""

    label: str
    dim: int
    rho: float
    n_points: int
    einstein_max: float
    ricci_sym_max: float
    sectional_min: float
    sectional_max: float
    provenance: str   # "analytic-jet" or "finite-difference"
    chart_rows: int   # rows asked of metric_jet, or of metric_batch if none
    oracle_max: float      # NaN on a chart without a closed-form Ricci
    points: np.ndarray     # the sample; as_dict leaves out these two

    @property
    def sectional_spread(self):
        return self.sectional_max - self.sectional_min

    def as_dict(self):
        out = dict(vars(self), sectional_spread=self.sectional_spread)
        del out["oracle_max"], out["points"]
        return out


def sample_points(chart, n_points, seed=0):
    """n_points quasi-random points, a stencil margin 3 _FD_STEP inside the
    sample_box of chart, which may also be an immersion.

    Rejects an empty sample, so no check downstream can pass on evidence
    it never collected.
    """
    if not n_points >= 1:
        raise BadRange("need at least one sample point, got %r" % (n_points,))
    box = np.array(chart.sample_box, dtype=float)
    box[:, 0] += 3.0 * _FD_STEP
    box[:, 1] -= 3.0 * _FD_STEP
    if np.any(box[:, 1] <= box[:, 0]):
        raise OutOfDomain("sample box collapses under the stencil margin")
    return sampling.box(n_points, box, seed=seed)


def verify_einstein(chart, rho, n_points=24, seed=0):
    """Sample the chart and measure its Einstein defect pointwise; it
    judges nothing.

    The defect at a point is max |Ric - rho g| / (1 + max |g|), from
    diagonal_curvature of the chart's metric_jet where it has one
    (provenance "analytic-jet"), else from curvature_from_jet of
    metric_jet_fd ("finite-difference"). oracle_max is the largest
    |Ric - Ric_closed| / (1 + max |g|) of those Ricci rows against the
    chart's closed form ricci_diag, taken block by block, and NaN on a chart
    without one. A block's ricci_diag reads the parts its metric_jet
    carries, so the warp is sampled once a block.
    """
    pts = sample_points(chart, n_points, seed=seed)
    d = chart.dim
    I, J = np.triu_indices(d, 1)
    if len(I) > _MAX_PLANES:
        sel = np.random.default_rng(seed).choice(len(I), _MAX_PLANES,
                                                 replace=False)
        I, J = I[sel], J[sel]
    jet = getattr(chart, "metric_jet", None)
    closed = hasattr(chart, "ricci_diag")

    def block(X):
        # one block's arrays die when this returns, before the next block's
        m, parts = len(X), None
        if jet:
            out = jet(X)
            f, df, d2f = out
            if closed:
                parts = out.parts
            ric, sym, secs = diagonal_curvature(f, df, d2f, I, J)
            scale = 1.0 + np.max(np.abs(f), axis=1)
            resid = ric.copy()
            resid.reshape(m, d * d)[:, ::d + 1] -= rho * f
        else:
            g, dg, d2g = metric_jet_fd(chart, X)
            gamma, ric, sym = curvature_from_jet(g, dg, d2g)
            secs = (riemann_entries(dg, d2g, gamma, I, J, I, J)
                    / (g[:, I, I] * g[:, J, J] - g[:, I, J] ** 2))
            scale = 1.0 + _row_max(g)
            resid = ric - rho * g
        gap = np.full(m, math.nan)
        if closed:
            ric.reshape(m, d * d)[:, ::d + 1] -= chart.ricci_diag(X, parts)
            gap = _row_max(ric) / scale
        return _row_max(resid) / scale, sym, secs.ravel(), gap

    # numpy reductions propagate NaN, where max(0.0, nan) would drop it;
    # n_points counts the rows evaluated, not the rows asked for
    resids, syms, secs, gaps = (np.concatenate(s) for s in zip(*(
        block(pts[s]) for s in _blocks(chart, len(pts)))))
    return CurvatureReport(
        label=getattr(chart, "label", chart.__class__.__name__),
        dim=d, rho=rho, n_points=len(resids),
        einstein_max=float(np.max(resids)), ricci_sym_max=float(np.max(syms)),
        sectional_min=float(np.min(secs, initial=math.inf)),
        sectional_max=float(np.max(secs, initial=-math.inf)),
        provenance="analytic-jet" if jet else "finite-difference",
        chart_rows=len(resids) * (1 if jet else len(_stencil(d, _FD_STEP)[0])),
        oracle_max=float(np.max(gaps)), points=pts,
    )
