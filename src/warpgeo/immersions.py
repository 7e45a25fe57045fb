"""Explicit isometric immersions into flat space, with exact 2-jets.

Every immersion here returns analytic value, Jacobian, and Hessian arrays
(no finite differences), assembled by the product rule from two bricks:
polar jets of round spheres, and base surfaces, one of them the profile
surface driven by a warp solution. Jets have an order: order 1 gives
values and Jacobians alone, forming no Hessian at any level, for the
pullback metric and the exports; order 2 adds the Hessians, and the
2-jets feed the extrinsic stage, where second fundamental forms are read
off directly. Each immersion carries the geometry chart it realizes, in
the same coordinates, and the name of its base.

Ambient layout: a product immersion is its fiber's own embedding, and
every warped product comes from one builder, warped_immersion, over a base
surface of one table, _BASES. Each base has the form (lead(t), sigma'(t)
e(u), sigma(t)), with e the unit circle (sin u, cos u) or, for the flat
base, the line u, and the immersion is the composite (lead, sigma' e,
s sigma h2(y)) over it. The rotational base is the profile surface, lead
psi and sigma = phi, whose map (psi, phi' sin theta, phi' cos theta,
phi F(y)) has s = 1; the composite bases have no lead and a closed-form
sigma.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import geometry, sampling, serialize, warpfunc
from .errors import BadDimension, BadRange, OutOfDomain, SingularChartPoint

_TOL_MARGIN = 1e-10


# -- sphere and fiber jets -----------------------------------------------------

def _check_order(order):
    if order not in (1, 2):
        raise BadRange("jet order must be 1 or 2, got %r" % (order,))


def sphere_jet(Y, out=None, order=2):
    """Jet of the polar parametrization of the unit sphere S^d in R^{d+1}:
    (v, j) at order 1, (v, j, h) at order 2.

    Y has shape (N, d); the recursion peels the leading angle:
    Theta_d(a, rest) = (cos a, sin a * Theta_{d-1}(rest)), every level to
    the same order, so order 1 forms no Hessian at any of them. out, when
    given, holds arrays of shapes (N, d+1), (N, d+1, d) and, at order 2,
    (N, d+1, d, d), j and h zeroed, possibly views into a larger jet, that
    the top level writes into in place of arrays of its own.
    """
    _check_order(order)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n, d = Y.shape
    # the rest's jet first, so no two levels' arrays are alive at once
    rest = sphere_jet(Y[:, 1:], order=order) if d > 1 else None
    out = out or (np.empty((n, d + 1)), *(
        np.zeros((n, d + 1) + (d,) * k) for k in range(1, order + 1)))
    v, j = out[:2]
    ca, sa = np.cos(Y[:, 0]), np.sin(Y[:, 0])
    v[:, 0], j[:, 0, 0] = ca, -sa
    if rest is None:
        v[:, 1], j[:, 1, 0] = sa, ca
    else:
        vs, js = rest[:2]
        np.multiply(sa[:, None], vs, out=v[:, 1:])
        j[:, 1:, 0] = ca[:, None] * vs
        np.multiply(sa[:, None, None], js, out=j[:, 1:, 1:])
    if order == 2:
        h = out[2]
        h[:, 0, 0, 0] = -ca
        if rest is None:
            h[:, 1, 0, 0] = -sa
        else:
            h[:, 1:, 0, 0] = -sa[:, None] * vs
            h[:, 1:, 0, 1:] = h[:, 1:, 1:, 0] = ca[:, None, None] * js
            np.multiply(sa[:, None, None, None], rest[2], out=h[:, 1:, 1:, 1:])
    return out


def fiber_jet(fiber, Y, order=2):
    """Jet of a FiberSpec's standard product embedding, (v, j) at order 1
    and (v, j, h) at order 2.

    Each factor S^{d_i}(r_i) contributes a scaled polar block of the same
    order, written in place; a nonzero offset appends one constant ambient
    coordinate with zero derivatives.
    """
    _check_order(order)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n = Y.shape[0]
    fdim = fiber.dim
    if Y.shape[1] != fdim:
        raise BadDimension("expected %d fiber angles, got %d" % (fdim, Y.shape[1]))
    amb = fiber.ambient_dim
    jet = [np.zeros((n, amb) + (fdim,) * k) for k in range(order + 1)]
    ao = 0
    co = 0
    for d, r in zip(fiber.dims, fiber.radii):
        rows, cols = slice(ao, ao + d + 1), slice(co, co + d)
        for a in sphere_jet(Y[:, cols], tuple(
                a[(slice(None), rows) + (cols,) * k]
                for k, a in enumerate(jet)), order):
            a *= r
        ao += d + 1
        co += d
    if fiber.offset:
        jet[0][:, ao] = fiber.offset
    return tuple(jet)


# -- immersion container -------------------------------------------------------

class Jet(tuple):
    """An immersion's jet, the tuple (v, J) or (v, J, H). A jet built on a
    warp sample also keeps it: warp is the WarpSolution sampled and sample
    its WarpSample at the rows' t, so a reader of that warp there need not
    sample it again. Both are None on any other jet."""

    warp = sample = None


@dataclass
class Immersion:
    """Explicit map with exact 2-jets over a rectangular coordinate box; its
    J^T J is the metric of chart, a geometry chart in the same coordinates.
    jet_fn(X, order) gives the jet of order 1 or 2 at rows X. The chart
    holds the fiber and, on a warped product, the warp; base names the
    family row's base surface: "product" or a key of _BASES."""

    label: str
    dim: int
    ambient_dim: int
    sample_box: np.ndarray
    jet_fn: callable
    rho: float
    chart: object
    base: str

    def jet(self, X, order=2):
        """The map's jet at rows X of shape (N, dim): values v (N, ambient)
        and Jacobians J (N, ambient, dim) at order 1, and at order 2 also
        Hessians H (N, ambient, dim, dim), H[:, x, a, b] = d_a d_b v_x, as
        a Jet. jet_fn(X, order) computes it; order 1 forms no Hessian, and
        its v and J are the order-2 call's to the byte."""
        _check_order(order)
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.dim:
            raise BadDimension(
                "expected %d coordinates, got %d" % (self.dim, X.shape[1])
            )
        out = self.jet_fn(X, order)
        return out if isinstance(out, Jet) else Jet(out)


# -- profile curve -------------------------------------------------------------

class ProfileTable:
    """Arc-length closure psi of a warp solution, psi' = sqrt(margin).

    psi is accumulated over the solution grid by composite Simpson with
    dense-output midpoints, then evaluated anywhere by one more partial
    Simpson step from the nearest grid node. psi'' follows analytically
    from the structural equation, so no derivative is ever differenced.
    """

    def __init__(self, sol):
        self.sol = sol
        step = sol.step
        d1 = self._dpsi(sol.dphi, sol.d2phi)
        # the midpoints and the nodes in one call: jet reads psi' at a
        # query's node from dpsi_node, which is what sampling the node
        # there would give, since samples_at works element by element
        k = len(sol.t) - 1
        _, dm, d2m, _ = sol.samples_at(
            np.concatenate([sol.t[:-1] + 0.5 * step, sol.t]))
        inc = (step / 6.0) * (d1[:-1] + 4.0 * self._dpsi(dm[:k], d2m[:k])
                              + d1[1:])
        self.psi = np.concatenate([[0.0], np.cumsum(inc)])
        self.dpsi_node = self._dpsi(dm[k:], d2m[k:])

    def _dpsi(self, dphi, d2phi):
        m = warpfunc.embeddability_margin(dphi, d2phi)
        if np.any(m < -1e-12):
            raise BadRange("embeddability margin is negative; no profile"
                           " closure exists")
        return np.sqrt(np.clip(m, 0.0, None))

    def jet(self, ts):
        """The profile surface's t-jet at ts, from one samples_at call:
        (psi, psi', psi'') and the warp sample (phi, phi', phi'', phi''').

        The call samples the points and the Simpson midpoints between each
        point and its grid node at or below, 2 len(ts) rows; psi' at the
        node comes from the table. Valid where phi' and the embeddability
        margin are bounded away from zero.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if not np.all(np.isfinite(ts)):
            raise OutOfDomain("profile query t must be finite")
        sol = self.sol
        # clipped before the cast, so a far-off t cannot overflow it
        idx = np.clip((ts - sol.t[0]) / sol.step, 0,
                      len(sol.t) - 1).astype(int)
        t_node = sol.t[idx]
        delta = ts - t_node
        cols = sol.samples_at(np.concatenate([ts, t_node + 0.5 * delta]))
        n = len(ts)
        end, mid = ([col[k:k + n] for col in cols] for k in (0, n))
        phi, dphi, d2phi, d3phi = end
        if np.any(np.abs(dphi) < geometry._TOL_WARP_TURNING):
            raise SingularChartPoint("profile radius phi' vanishes")
        m = warpfunc.embeddability_margin(dphi, d2phi)
        if np.any(m < _TOL_MARGIN):
            raise SingularChartPoint("profile closure degenerates where the"
                                     " margin vanishes")
        dpsi = np.sqrt(m)
        psi = self.psi[idx] + (delta / 6.0) * (
            self.dpsi_node[idx] + 4.0 * self._dpsi(*mid[1:3]) + dpsi)
        return ((psi, dpsi, -d2phi * (dphi + d3phi) / dpsi),
                warpfunc.WarpSample(*end))


# -- warped products -----------------------------------------------------------

def _circle(U):
    """The unit circle e(u) = (sin u, cos u) with e' and e''."""
    e = np.stack([np.sin(U), np.cos(U)], axis=1)
    return e, e[:, ::-1] * (1.0, -1.0), -e


def _line(U):
    """The line e(u) = u with e' = 1 and e'' = 0."""
    return U[:, None], np.ones((len(U), 1)), np.zeros((len(U), 1))


def _sin(T):
    """No lead coordinate, and sigma = sin t with its first three
    derivatives."""
    st, ct = np.sin(T), np.cos(T)
    return ((st, ct, -st, -ct),)


def _linear(T):
    """No lead coordinate, and sigma = t with its first three derivatives."""
    zero = np.zeros_like(T)
    return ((T, np.ones_like(T), zero, zero),)


def _profile(chart):
    """The profile surface's t-jet: psi, the arc-length closure of the
    chart's warp, as the lead coordinate, and sigma = phi, the warp's own
    sample. The fiber must sit on the unit sphere, so s = 1 and the
    immersion realizes dt^2 + phi'^2 dtheta^2 + phi^2 g_F exactly, since
    psi'^2 = 1 - phi'^2 - phi''^2."""
    if abs(chart.fiber.ambient_radius() - 1.0) > 1e-12:
        raise BadRange("rotational construction needs the fiber on the unit sphere")
    return ProfileTable(chart.warp).jet


_BASES = {
    # t-jet of the chart, curve, base ambient dim k, u sample range (None:
    # the chart's own theta range); the bases are (psi, phi' sin u,
    # phi' cos u, phi), (u, t), (cos t sin u, cos t cos u, sin t) and
    # (sin u, cos u, t)
    "rotational": (_profile, _circle, 4, None),
    "flat": (lambda chart: _linear, _line, 2, (-3.0, 3.0)),
    "sphere": (lambda chart: _sin, _circle, 3, (0.0, 2.0 * math.pi)),
    "cylinder": (lambda chart: _linear, _circle, 3, (0.0, 2.0 * math.pi)),
}


def warped_immersion(chart, rho, base):
    """The immersion (lead(t), sigma'(t) e(u), s sigma(t) h2(y)) of a
    WarpedChart, the composite over the base surface (lead, sigma' e,
    sigma) in R^k that base, a key of _BASES, names.

    The row's t-jet gives the 2-jets (w, w', w'') of the lead coordinates,
    then sigma's 3-jet (sigma, sigma', sigma'', sigma'''); its curve gives
    (e, e', e''), each of shape (N, c). Every base here has |e'| = 1,
    sigma'' <e, e'> = 0 and |w'|^2 + sigma''^2 |e|^2 + sigma'^2 = 1, so its
    metric is dt^2 + sigma'^2 du^2. h2 is the chart's fiber on the
    coordinates after (t, u) and s its inverse ambient radius R: the
    pullback is g_base + (s^2 R^2 - 1) dsigma^2 + (s sigma)^2 g_F, a warped
    product exactly when s R = 1, which is how s is calibrated. A composite
    base's sigma is a closed form equal to the chart's warp phi, whose
    parameters give the base curvature,
    warpfunc.constant_curvature_value(chart.warp.params); the rotational
    base's sigma is a sample of the chart's warp, which every Jet keeps.
    """
    if base not in _BASES:
        raise BadRange("%s has no immersion: unknown base %r"
                       % (chart.label, base))
    jet_of, curve, k, u_rng = _BASES[base]
    t_jet = jet_of(chart)
    box = chart.sample_box
    if u_rng is not None:
        box[1] = u_rng      # the base's own u range, not the chart's theta range
    fiber = chart.fiber
    s = 1.0 / fiber.ambient_radius()
    dim, amb = chart.dim, (k - 1) + fiber.ambient_dim

    def jet_fn(X, order):
        nrow = X.shape[0]
        *lead, sigma = t_jet(X[:, 0])
        sig, dsig, d2sig, d3sig = sigma
        e, de, d2e = curve(X[:, 1])
        vf, jf, *hf = fiber_jet(fiber, X[:, 2:], order)
        c0, f0 = len(lead), k - 1     # first rows of the curve and the fiber
        v = np.empty((nrow, amb))
        j = np.zeros((nrow, amb, dim))
        h = np.zeros((nrow, amb, dim, dim)) if order == 2 else None
        for a, (w, dw, _) in enumerate(lead):
            v[:, a], j[:, a, 0] = w, dw
        v[:, c0:f0] = dsig[:, None] * e
        j[:, c0:f0, 0] = d2sig[:, None] * e
        j[:, c0:f0, 1] = dsig[:, None] * de
        ssig, sdsig, sd2sig = s * sig, s * dsig, s * d2sig
        v[:, f0:] = ssig[:, None] * vf
        j[:, f0:, 0] = sdsig[:, None] * vf
        j[:, f0:, 2:] = ssig[:, None, None] * jf
        out = Jet((v, j) if h is None else (v, j, h))
        if isinstance(sigma, warpfunc.WarpSample):
            out.warp, out.sample = chart.warp, sigma
        if h is None:
            return out

        for a, (_, _, d2w) in enumerate(lead):
            h[:, a, 0, 0] = d2w
        h[:, c0:f0, 0, 0] = d3sig[:, None] * e
        h[:, c0:f0, 0, 1] = h[:, c0:f0, 1, 0] = d2sig[:, None] * de
        h[:, c0:f0, 1, 1] = dsig[:, None] * d2e
        h[:, f0:, 0, 0] = sd2sig[:, None] * vf
        h[:, f0:, 0, 2:] = h[:, f0:, 2:, 0] = sdsig[:, None, None] * jf
        h[:, f0:, 2:, 2:] = ssig[:, None, None, None] * hf[0]
        return out

    return Immersion(
        label=chart.label, dim=dim, ambient_dim=amb, sample_box=box,
        jet_fn=jet_fn, rho=rho, chart=chart, base=base,
    )


# -- product immersions ----------------------------------------------------------

def immersion_from_fiber(fiber, label, rho):
    """A FiberSpec's own embedding, realizing its ProductChart."""
    chart = geometry.ProductChart(fiber, label=label)
    return Immersion(
        label=label, dim=fiber.dim, ambient_dim=fiber.ambient_dim,
        sample_box=chart.sample_box, jet_fn=functools.partial(fiber_jet, fiber),
        rho=rho, chart=chart, base="product",
    )


# -- named members ---------------------------------------------------------------

def schwarzschild_immersion(n):
    """Ricci-flat rotational immersion of the Schwarzschild family, codim 2."""
    return build_immersion("schwarzschild", n)


def extra_codim_immersion(n, m):
    """Ricci-flat rotational immersion over the unit-sum torus, codim 3."""
    return build_immersion("extra-codim", n, m=m)


def clifford_immersion(n, rho):
    """S^2(r1) x S^{n-2}(r2) in R^{n+2}, Einstein with constant rho."""
    return build_immersion("clifford", n, rho=rho)


def flat_base_composite(n, m):
    """Warp phi = t over a flat base with the offset torus; Ricci-flat."""
    return build_immersion("flat-torus-composite", n, m=m)


# -- mesh export -----------------------------------------------------------------

def points_csv(imm, count, seed=0):
    """CSV text of a quasi-random coordinate sample with its ambient images,
    one row per point."""
    X = sampling.box(count, imm.sample_box, seed=seed)
    V = imm.jet(X, 1)[0]
    cols = ["x%d" % i for i in range(imm.dim)]
    cols += ["f%d" % a for a in range(imm.ambient_dim)]
    lines = [",".join(cols)] + serialize.fmt_rows(np.hstack((X, V)))
    return "\n".join(lines) + "\n"


def surface_obj(imm, res):
    """Wavefront mesh text of the first two coordinates' slice, projected to
    the first three ambient axes.

    The remaining coordinates sit at the middle of the sample box. Meant for
    quick visual inspection, not for analysis; the CSV export keeps full
    precision and all ambient coordinates.
    """
    coords, axes = (0, 1), (0, 1, 2)
    if any(a >= imm.ambient_dim for a in axes):
        raise BadRange("projection axis outside ambient dimension")
    box = np.asarray(imm.sample_box, dtype=float)
    mid = box.mean(axis=1)
    u = np.linspace(box[coords[0], 0], box[coords[0], 1], res)
    v = np.linspace(box[coords[1], 0], box[coords[1], 1], res)
    X = np.tile(mid, (res * res, 1))
    uu, vv = np.meshgrid(u, v, indexing="ij")
    X[:, coords[0]] = uu.ravel()
    X[:, coords[1]] = vv.ravel()
    V = imm.jet(X, 1)[0]
    lines = ["# %s slice coords=%s axes=%s" % (imm.label, coords, axes)]
    for r in range(V.shape[0]):
        lines.append("v %s %s %s" % tuple(
            serialize.fmt_float(float(V[r, a])) for a in axes
        ))
    for i in range(res - 1):
        for jcol in range(res - 1):
            a = i * res + jcol + 1
            b = a + 1
            c = a + res
            d = c + 1
            lines.append("f %d %d %d" % (a, b, d))
            lines.append("f %d %d %d" % (a, d, c))
    return "\n".join(lines) + "\n"


def build_immersion(family, n, m=None, rho=None, perturb=0.0):
    """The immersion of one member of geometry.FAMILIES, on its chart."""
    chart, rho = geometry.chart_for_family(family, n, m, rho, perturb)
    base = geometry.FAMILIES[family].base
    if base == "product":
        return immersion_from_fiber(chart.fiber, chart.label, rho)
    return warped_immersion(chart, rho, base)
