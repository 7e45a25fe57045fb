"""Explicit isometric immersions into flat space, with exact 2-jets.

Every immersion here returns analytic value, Jacobian, and Hessian arrays
(no finite differences), assembled by the product rule from three bricks:
polar jets of round spheres, profile curves driven by a warp solution, and
base surfaces of the composite construction. The 2-jets feed the extrinsic
stage, where second fundamental forms are read off directly.

Ambient layout conventions: rotational maps are (psi, phi' sin theta,
phi' cos theta, phi * F(y)) with F on the unit sphere; composites are
(w, s sigma h2(y)) where sigma is the last ambient coordinate of the base
surface and w the rest.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry, sampling, serialize
from .errors import BadDimension, BadRange, OutOfDomain, SingularChartPoint

_TOL_TURNING = 1e-6
_TOL_MARGIN = 1e-10


# -- sphere and fiber jets -----------------------------------------------------

def sphere_jet(Y):
    """2-jet of the polar parametrization of the unit sphere S^d in R^{d+1}.

    Y has shape (N, d); the recursion peels the leading angle:
    Theta_d(a, rest) = (cos a, sin a * Theta_{d-1}(rest)).
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n, d = Y.shape
    if d == 1:
        th = Y[:, 0]
        v = np.stack([np.cos(th), np.sin(th)], axis=1)
        j = np.zeros((n, 2, 1))
        j[:, 0, 0] = -np.sin(th)
        j[:, 1, 0] = np.cos(th)
        h = np.zeros((n, 2, 1, 1))
        h[:, 0, 0, 0] = -np.cos(th)
        h[:, 1, 0, 0] = -np.sin(th)
        return v, j, h
    a = Y[:, 0]
    ca, sa = np.cos(a), np.sin(a)
    vs, js, hs = sphere_jet(Y[:, 1:])
    v = np.concatenate([ca[:, None], sa[:, None] * vs], axis=1)
    j = np.zeros((n, d + 1, d))
    j[:, 0, 0] = -sa
    j[:, 1:, 0] = ca[:, None] * vs
    j[:, 1:, 1:] = sa[:, None, None] * js
    h = np.zeros((n, d + 1, d, d))
    h[:, 0, 0, 0] = -ca
    h[:, 1:, 0, 0] = -sa[:, None] * vs
    h[:, 1:, 0, 1:] = ca[:, None, None] * js
    h[:, 1:, 1:, 0] = ca[:, None, None] * js
    h[:, 1:, 1:, 1:] = sa[:, None, None, None] * hs
    return v, j, h


def fiber_jet(fiber, Y):
    """2-jet of a FiberSpec's standard product embedding.

    Each factor S^{d_i}(r_i) contributes a scaled polar block; a nonzero
    offset appends one constant ambient coordinate with zero derivatives.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n = Y.shape[0]
    fdim = fiber.dim
    if Y.shape[1] != fdim:
        raise BadDimension("expected %d fiber angles, got %d" % (fdim, Y.shape[1]))
    amb = sum(d + 1 for d in fiber.dims) + (1 if fiber.offset else 0)
    v = np.zeros((n, amb))
    j = np.zeros((n, amb, fdim))
    h = np.zeros((n, amb, fdim, fdim))
    ao = 0
    co = 0
    for d, r in zip(fiber.dims, fiber.radii):
        vb, jb, hb = sphere_jet(Y[:, co:co + d])
        v[:, ao:ao + d + 1] = r * vb
        j[:, ao:ao + d + 1, co:co + d] = r * jb
        h[:, ao:ao + d + 1, co:co + d, co:co + d] = r * hb
        ao += d + 1
        co += d
    if fiber.offset:
        v[:, ao] = fiber.offset
    return v, j, h


# -- immersion container -------------------------------------------------------

@dataclass
class Immersion:
    """Explicit map with exact 2-jets over a rectangular coordinate box."""

    label: str
    dim: int
    ambient_dim: int
    sample_box: np.ndarray
    jet_fn: callable
    rho: float
    meta: dict = field(default_factory=dict)

    def jet(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.dim:
            raise BadDimension(
                "expected %d coordinates, got %d" % (self.dim, X.shape[1])
            )
        return self.jet_fn(X)

    def value_batch(self, X):
        return self.jet(X)[0]

    def jacobian_batch(self, X):
        return self.jet(X)[1]


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
        t = sol.t
        step = sol.step
        d1 = self._dpsi_arrays(sol.phi, sol.dphi, sol.d2phi)
        mids = t[:-1] + 0.5 * step
        pm, dm, d2m, _ = sol.samples_at(mids)
        dmid = self._dpsi_arrays(pm, dm, d2m)
        inc = (step / 6.0) * (d1[:-1] + 4.0 * dmid + d1[1:])
        self.psi = np.concatenate([[0.0], np.cumsum(inc)])

    @staticmethod
    def _margin(dphi, d2phi):
        return 1.0 - dphi * dphi - d2phi * d2phi

    def _dpsi_arrays(self, phi, dphi, d2phi):
        m = self._margin(dphi, d2phi)
        if np.any(m < -1e-12):
            raise BadRange(
                "embeddability margin is negative; no profile closure exists"
            )
        return np.sqrt(np.clip(m, 0.0, None))

    def query(self, ts):
        """Warp samples for psi at ts, from one samples_at call.

        Returns the grid index at or below each point, the offset from that
        node, and the four samples_at columns at the points, at their nodes
        and at the Simpson midpoints between the two.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if not np.all(np.isfinite(ts)):
            raise OutOfDomain("profile query t must be finite")
        sol = self.sol
        # clipped before the cast, so a far-off t cannot overflow it
        idx = np.clip(
            (ts - sol.t[0]) / sol.step, 0, len(sol.t) - 1
        ).astype(int)
        t_node = sol.t[idx]
        delta = ts - t_node
        cols = sol.samples_at(np.concatenate([ts, t_node, t_node + 0.5 * delta]))
        end, node, mid = zip(*(np.split(col, 3) for col in cols))
        return idx, delta, end, node, mid

    def psi_at(self, ts, query=None):
        """psi at ts; a given query, self.query(ts), is reused."""
        idx, delta, end, node, mid = self.query(ts) if query is None else query
        inc = (delta / 6.0) * (
            self._dpsi_arrays(*node[:3])
            + 4.0 * self._dpsi_arrays(*mid[:3])
            + self._dpsi_arrays(*end[:3])
        )
        return self.psi[idx] + inc

    def jet_at(self, ts, query=None):
        """(psi, psi', psi'') at query points; needs margin bounded away from 0."""
        query = self.query(ts) if query is None else query
        phi, dphi, d2phi, d3phi = query[2]
        m = self._margin(dphi, d2phi)
        if np.any(m < _TOL_MARGIN):
            raise SingularChartPoint(
                "profile closure degenerates where the margin vanishes"
            )
        dpsi = np.sqrt(m)
        d2psi = -d2phi * (dphi + d3phi) / dpsi
        return self.psi_at(ts, query), dpsi, d2psi


# -- rotational immersions ------------------------------------------------------

def rotational_immersion(sol, fiber, t_range, label, rho):
    """(psi, phi' sin theta, phi' cos theta, phi F(y)) for a unit-sphere F.

    Pulls back to dt^2 + phi'^2 dtheta^2 + phi^2 g_F exactly; valid where
    the embeddability margin is positive and phi' is bounded away from zero.
    """
    if abs(fiber.ambient_radius() - 1.0) > 1e-12:
        raise BadRange("rotational construction needs the fiber on the unit sphere")
    table = ProfileTable(sol)
    fdim = fiber.dim
    dim = 2 + fdim
    amb = 3 + sum(d + 1 for d in fiber.dims) + (1 if fiber.offset else 0)

    def jet_fn(X):
        nrow = X.shape[0]
        t, th = X[:, 0], X[:, 1]
        query = table.query(t)
        phi, dphi, d2phi, d3phi = query[2]
        if np.any(np.abs(dphi) < _TOL_TURNING):
            raise SingularChartPoint("profile radius phi' vanishes")
        psi, dpsi, d2psi = table.jet_at(t, query)
        vf, jf, hf = fiber_jet(fiber, X[:, 2:])
        st, ct = np.sin(th), np.cos(th)

        v = np.zeros((nrow, amb))
        v[:, 0] = psi
        v[:, 1] = dphi * st
        v[:, 2] = dphi * ct
        v[:, 3:] = phi[:, None] * vf

        j = np.zeros((nrow, amb, dim))
        j[:, 0, 0] = dpsi
        j[:, 1, 0] = d2phi * st
        j[:, 2, 0] = d2phi * ct
        j[:, 3:, 0] = dphi[:, None] * vf
        j[:, 1, 1] = dphi * ct
        j[:, 2, 1] = -dphi * st
        j[:, 3:, 2:] = phi[:, None, None] * jf

        h = np.zeros((nrow, amb, dim, dim))
        h[:, 0, 0, 0] = d2psi
        h[:, 1, 0, 0] = d3phi * st
        h[:, 2, 0, 0] = d3phi * ct
        h[:, 3:, 0, 0] = d2phi[:, None] * vf
        h[:, 1, 0, 1] = h[:, 1, 1, 0] = d2phi * ct
        h[:, 2, 0, 1] = h[:, 2, 1, 0] = -d2phi * st
        h[:, 1, 1, 1] = -dphi * st
        h[:, 2, 1, 1] = -dphi * ct
        h[:, 3:, 0, 2:] = dphi[:, None, None] * jf
        h[:, 3:, 2:, 0] = dphi[:, None, None] * jf
        h[:, 3:, 2:, 2:] = phi[:, None, None, None] * hf
        return v, j, h

    box = [tuple(t_range), (0.0, 2.0 * math.pi)]
    box.extend(fiber.angle_box())
    return Immersion(
        label=label, dim=dim, ambient_dim=amb,
        sample_box=np.asarray(box, dtype=float), jet_fn=jet_fn, rho=rho,
        meta={"kind": "rotational", "warp": sol, "fiber": fiber,
              "profile": table},
    )


def schwarzschild_immersion(n):
    """Ricci-flat rotational immersion of the Schwarzschild family, codim 2."""
    return build_immersion("schwarzschild", n)


def extra_codim_immersion(n, m):
    """Ricci-flat rotational immersion over the unit-sum torus, codim 3."""
    return build_immersion("extra-codim", n, m=m)


# -- product immersions ----------------------------------------------------------

def immersion_from_fiber(fiber, label, rho):
    """A FiberSpec used directly as an immersed product of spheres."""
    amb = sum(d + 1 for d in fiber.dims) + (1 if fiber.offset else 0)

    def jet_fn(X):
        return fiber_jet(fiber, X)

    return Immersion(
        label=label, dim=fiber.dim, ambient_dim=amb,
        sample_box=np.asarray(fiber.angle_box(), dtype=float),
        jet_fn=jet_fn, rho=rho,
        meta={"kind": "product", "fiber": fiber},
    )


def clifford_immersion(n, rho):
    """S^2(r1) x S^{n-2}(r2) in R^{n+2}, Einstein with constant rho."""
    return build_immersion("clifford", n, rho=rho)


# -- warped composites -----------------------------------------------------------

def _flat_base_jet(T, U):
    n = T.shape[0]
    v = np.stack([U, T], axis=1)
    j = np.zeros((n, 2, 2))
    j[:, 0, 1] = 1.0
    j[:, 1, 0] = 1.0
    h = np.zeros((n, 2, 2, 2))
    return v, j, h


def _sphere_base_jet(T, U):
    n = T.shape[0]
    ct, st = np.cos(T), np.sin(T)
    cu, su = np.cos(U), np.sin(U)
    v = np.stack([ct * su, ct * cu, st], axis=1)
    j = np.zeros((n, 3, 2))
    j[:, 0, 0] = -st * su
    j[:, 1, 0] = -st * cu
    j[:, 2, 0] = ct
    j[:, 0, 1] = ct * cu
    j[:, 1, 1] = -ct * su
    h = np.zeros((n, 3, 2, 2))
    h[:, 0, 0, 0] = -ct * su
    h[:, 1, 0, 0] = -ct * cu
    h[:, 2, 0, 0] = -st
    h[:, 0, 0, 1] = h[:, 0, 1, 0] = -st * cu
    h[:, 1, 0, 1] = h[:, 1, 1, 0] = st * su
    h[:, 0, 1, 1] = -ct * su
    h[:, 1, 1, 1] = -ct * cu
    return v, j, h


def _cylinder_base_jet(T, U):
    n = T.shape[0]
    cu, su = np.cos(U), np.sin(U)
    v = np.stack([su, cu, T], axis=1)
    j = np.zeros((n, 3, 2))
    j[:, 0, 1] = cu
    j[:, 1, 1] = -su
    j[:, 2, 0] = 1.0
    h = np.zeros((n, 3, 2, 2))
    h[:, 0, 1, 1] = -su
    h[:, 1, 1, 1] = -cu
    return v, j, h


_BASES = {
    # jet, base ambient dim, (t, u) sample ranges, base curvature
    "flat": (_flat_base_jet, 2, (0.5, 2.5), (-3.0, 3.0), 0.0),
    "sphere": (_sphere_base_jet, 3, (0.25, 1.3), (0.0, 2.0 * math.pi), 1.0),
    "cylinder": (_cylinder_base_jet, 3, (0.5, 2.5), (0.0, 2.0 * math.pi), 0.0),
}


def warped_composite(base_kind, fiber, s=None, label=None, rho=0.0):
    """Replace the last base coordinate sigma by s sigma h2(y).

    The base surface h1 lands in R^k with distinguished last axis e; the
    composite is (w, s sigma h2) with h1 = (w, sigma). Its pullback is
    g_base + (s^2 R^2 - 1) dsigma^2 + (s sigma)^2 g_F with R the fiber's
    ambient radius, so the warped-product structure appears exactly when
    s R = 1; passing s=None calibrates that way.
    """
    if base_kind not in _BASES:
        raise BadRange("unknown base kind %r" % base_kind)
    base_jet, k, t_rng, u_rng, base_k = _BASES[base_kind]
    radius = fiber.ambient_radius()
    if s is None:
        s = 1.0 / radius
    fdim = fiber.dim
    dim = 2 + fdim
    famb = sum(d + 1 for d in fiber.dims) + (1 if fiber.offset else 0)
    amb = (k - 1) + famb

    def jet_fn(X):
        nrow = X.shape[0]
        vb, jb, hb = base_jet(X[:, 0], X[:, 1])
        vf, jf, hf = fiber_jet(fiber, X[:, 2:])
        w, dw, d2w = vb[:, :-1], jb[:, :-1, :], hb[:, :-1, :, :]
        sig, dsig, d2sig = vb[:, -1], jb[:, -1, :], hb[:, -1, :, :]

        v = np.zeros((nrow, amb))
        v[:, : k - 1] = w
        v[:, k - 1:] = s * sig[:, None] * vf

        j = np.zeros((nrow, amb, dim))
        j[:, : k - 1, :2] = dw
        j[:, k - 1:, :2] = s * np.einsum("na,nx->nxa", dsig, vf)
        j[:, k - 1:, 2:] = s * sig[:, None, None] * jf

        h = np.zeros((nrow, amb, dim, dim))
        h[:, : k - 1, :2, :2] = d2w
        h[:, k - 1:, :2, :2] = s * np.einsum("nab,nx->nxab", d2sig, vf)
        cross = s * np.einsum("na,nxj->nxaj", dsig, jf)
        h[:, k - 1:, :2, 2:] = cross
        h[:, k - 1:, 2:, :2] = np.transpose(cross, (0, 1, 3, 2))
        h[:, k - 1:, 2:, 2:] = s * sig[:, None, None, None] * hf
        return v, j, h

    box = [t_rng, u_rng]
    box.extend(fiber.angle_box())
    return Immersion(
        label=label or ("composite-%s" % base_kind), dim=dim, ambient_dim=amb,
        sample_box=np.asarray(box, dtype=float), jet_fn=jet_fn, rho=rho,
        meta={"kind": "composite", "base": base_kind, "fiber": fiber,
              "s": float(s), "base_curvature": base_k},
    )


def flat_base_composite(n, m):
    """Warp phi = t over a flat base with the offset torus; Ricci-flat."""
    return build_immersion("flat-torus-composite", n, m=m)


# -- mesh export -----------------------------------------------------------------

def export_points_csv(imm, path, count=512, seed=0):
    """Quasi-random coordinate sample with ambient images, one row per point."""
    X = sampling.box(count, imm.sample_box, seed=seed)
    V = imm.value_batch(X)
    cols = ["x%d" % i for i in range(imm.dim)]
    cols += ["f%d" % a for a in range(imm.ambient_dim)]
    lines = [",".join(cols)]
    for r in range(X.shape[0]):
        vals = list(X[r]) + list(V[r])
        lines.append(",".join(serialize.fmt_float(float(v)) for v in vals))
    serialize.write_text_atomic(path, "\n".join(lines) + "\n")
    return count


def export_surface_obj(imm, path, coords=(0, 1), axes=(0, 1, 2), res=32):
    """Wavefront mesh of a 2-coordinate slice, projected to three ambient axes.

    The remaining coordinates sit at the middle of the sample box. Meant for
    quick visual inspection, not for analysis; the CSV export keeps full
    precision and all ambient coordinates.
    """
    if len(coords) != 2 or coords[0] == coords[1]:
        raise BadRange("coords must be two distinct coordinate indices")
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
    V = imm.value_batch(X)
    lines = ["# %s slice coords=%s axes=%s" % (imm.label, coords, tuple(axes))]
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
    serialize.write_text_atomic(path, "\n".join(lines) + "\n")
    return res * res


def build_immersion(family, n, m=None, rho=None, perturb=0.0):
    """The immersion of one member of a family in geometry.FAMILIES."""
    row, label, fiber, rho = geometry.family_member(family, n, m, rho, perturb)
    if row.base == "product":
        return immersion_from_fiber(fiber, label, rho)
    if row.base == "rotational":
        return rotational_immersion(geometry.family_warp(row, n), fiber,
                                    row.t_range, label, rho)
    if row.base in _BASES:
        return warped_composite(row.base, fiber, label=label, rho=rho)
    raise BadRange("family %r has a chart but no immersion" % family)
