"""Second-fundamental-form analysis of explicit immersions.

Everything runs in orthonormal frames from one complete QR of each exact
Jacobian, signed so that R has a positive diagonal, whose first dim
columns are the tangent frame and the rest the normal frame, so shape
operators are plain symmetric matrices and every reported quantity is
frame-checked: rotating the normal frame or re-spanning the tangent frame
must leave residuals, group sizes, and normal forms unchanged.

The checks split into pointwise algebra (flat normal bundle, umbilical
substructure, normal forms of shape-operator pairs) and differential
identities (Gauss against the closed-form Ricci of the chart the
immersion realizes, O'Neill's from the warp and the fiber's constants,
realization against that chart's metric diagonal and its first
derivatives, Codazzi, parallelism of the umbilical normal along its
leaves).
Every stage takes the whole sample as rows: extrinsics_at evaluates the
immersion's jet once for all of them and keeps it with the frames and the
second fundamental form, and with the warp sample the jet was built from
when that is the chart's own warp at the rows' t; each check returns one
residual per row.
The pointwise algebra has one principal-curvature path: one batched eigh
of a fixed generic combination of each row's shape operators gives their
common eigenbasis, checked against the rows' commutators, and
umbilical_structure groups its principal curvature vectors; the
flat-normal, umbilical and normal-form stages all read it, the first
through the commutators it was checked against, so each pointwise
invariant is computed once a scan.
Codazzi evaluates the immersion again only at the points its stencil
adds, in blocks within geometry's element budget, and differences only
their Hessians: in flat ambient space its Christoffel terms cancel, so no
inverse, Christoffel symbol or alpha is formed there. Dupin reads the same
differences along the leaf. Gauss and realization evaluate the immersion
not at all: one order-1 metric_jet call a block gives them the chart's
diagonal, its first derivatives and its closed-form Ricci, no d2f, from
the jet's warp sample where the scan holds one, and the profile check
reads that sample too, so a rotational scan samples its warp once a jet
call. A single point is a batch of one row.
"""

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import geometry, warpfunc
from .errors import (
    BadDimension,
    BadRange,
    DegenerateDelta,
    NotFlatNormal,
    NotNormalForm,
    RankDeficient,
)

# step of the central difference behind Codazzi and Dupin
_STEP = 1e-4
# commutator, off-diagonal and eigenvalue-coincidence tolerance of the
# common eigenbasis, relative to the largest entry of a row
_TOL_EIGENBASIS = 1e-7
# relative gap below which principal curvature vectors share a group
_TOL_GROUP = 1e-5
# relative zero-slot test and residual bound of the normal forms
TOL_FORM = 1e-6


# -- frames and second fundamental form ----------------------------------------

@dataclass
class Extrinsics:
    """Frame data and second fundamental form at rows of chart points.

    Every field has a leading row axis. alpha has shape (n, codim, d, d):
    symmetric shape-operator matrices in the orthonormal tangent frame, one
    per normal frame vector. Q holds the tangent frame in ambient
    coordinates, N the normal frame, B the change of basis from frame to
    chart indices; v, J, H is the immersion's jet at x, which the
    differential checks reuse. warp is the WarpSample of the chart's warp at
    the rows' t that the jet was built from, or None when the jet sampled
    no warp or a warp other than the chart's.
    """

    x: np.ndarray
    v: np.ndarray
    J: np.ndarray
    H: np.ndarray
    Q: np.ndarray
    N: np.ndarray
    B: np.ndarray
    alpha: np.ndarray
    warp: warpfunc.WarpSample = None

    @property
    def dim(self):
        return self.Q.shape[2]

    @property
    def codim(self):
        return self.N.shape[1]


def extrinsics_at(imm, X):
    """Frames and second fundamental form at the rows of X, one jet call.

    X has shape (n, dim); a point of shape (dim,) is a batch of one row.
    Raises RankDeficient when the differential is rank-deficient at any
    row. A row whose jet is not finite comes out NaN, so every check that
    reads it reports NaN.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    jet = imm.jet(X, 2)
    v, J, H = jet
    # the jet's sample stands in for the chart's warp only if it is a
    # sample of that warp
    own = jet.warp is not None and jet.warp is getattr(imm.chart, "warp", None)
    d = J.shape[2]
    Qc, R = np.linalg.qr(J, mode="complete")
    s = np.sign(np.diagonal(R, axis1=1, axis2=2))
    s[s == 0.0] = 1.0
    Q = Qc[:, :, :d] * s[:, None, :]
    R = s[:, :, None] * R[:, :d]
    scale = np.maximum(np.max(np.abs(R), axis=(1, 2)), 1.0)
    pivot = np.min(np.abs(np.diagonal(R, axis1=1, axis2=2)), axis=1)
    if np.any(pivot <= 1e-10 * scale):
        raise RankDeficient("differential is rank-deficient at a sample point")
    B = np.linalg.inv(R)
    N = np.swapaxes(Qc[:, :, d:], 1, 2)
    a_chart = np.einsum("nca,naij->ncij", N, H)
    alpha = np.swapaxes(B, 1, 2)[:, None] @ a_chart @ B[:, None]
    alpha = 0.5 * (alpha + np.swapaxes(alpha, 2, 3))
    return Extrinsics(x=X, v=v, J=J, H=H, Q=Q, N=N, B=B, alpha=alpha,
                      warp=jet.sample if own else None)


@functools.lru_cache(maxsize=8)
def _normal_pairs(c):
    """The pairs A < B of c normal directions in triu_indices order, and
    the weights sqrt(prime_k) - 1 of the generic combination of c shape
    operators; built once per codimension, all read-only."""
    A, B = np.triu_indices(c, 1)
    primes = (p for p in itertools.count(2) if all(p % q for q in range(2, p)))
    w = np.sqrt(list(itertools.islice(primes, c))) - 1.0
    for a in (A, B, w):
        a.flags.writeable = False
    return A, B, w


def flat_normal_residual(alpha):
    """Largest commutator entry among shape-operator pairs, per row.

    alpha has shape (rows, codim, d, d). In flat ambient space the normal
    bundle is flat exactly when all shape operators commute, so this is the
    full flatness test.
    """
    A, B, _ = _normal_pairs(alpha.shape[1])
    comm = alpha[:, A] @ alpha[:, B] - alpha[:, B] @ alpha[:, A]
    return np.max(np.abs(comm), axis=(1, 2, 3), initial=0.0)


# -- principal curvatures and umbilical substructure ------------------------------

def _principal_curvatures(alpha):
    """Common eigenbasis of every row's commuting shape operators.

    alpha has shape (rows, codim, d, d). One batched eigh of the generic
    combination sum_c (sqrt(prime_c) - 1) alpha_c gives the basis: no
    rational relation ties those weights, so distinct principal curvature
    vectors get distinct combined eigenvalues unless a point is built to
    make them collide. Returns kappa (rows, d, codim), the diagonals of
    V^T alpha_c V in ascending combined order; whether neighbours in that
    order are equal to _TOL_GROUP (rows, d - 1); the operators in that
    basis (rows, codim, d, d); and flat_normal_residual of the rows (rows,).
    A row that is not finite is zeroed for eigh and the commutator and
    comes out NaN. Raises NotFlatNormal when a finite row's operators fail
    to commute, when the basis leaves them off-diagonal, or when neighbours
    that differ share a combined eigenvalue, all at _TOL_EIGENBASIS
    relative to the row's largest entry.
    """
    alpha = np.asarray(alpha, dtype=float)
    d = alpha.shape[2]
    bad = ~np.all(np.isfinite(alpha), axis=(1, 2, 3))
    a = np.where(bad[:, None, None, None], 0.0, alpha)
    tol = _TOL_EIGENBASIS * np.maximum(1.0, np.max(np.abs(a), axis=(1, 2, 3)))
    flat = flat_normal_residual(a)
    if np.any(flat > tol):
        raise NotFlatNormal(
            "shape operators do not commute; no common eigenbasis")
    w = _normal_pairs(alpha.shape[1])[2]
    lam, V = np.linalg.eigh(np.einsum("c,ncij->nij", w, a))
    ap = np.swapaxes(V, 1, 2)[:, None] @ a @ V[:, None]
    kappa = np.swapaxes(np.diagonal(ap, axis1=2, axis2=3), 1, 2)
    off = np.max(np.abs(ap - np.swapaxes(kappa, 1, 2)[..., None] * np.eye(d)),
                 axis=(1, 2, 3))
    scale = np.maximum(1.0, np.max(np.abs(kappa), axis=(1, 2)))[:, None]
    same = np.max(np.abs(np.diff(kappa, axis=1)), axis=2) <= _TOL_GROUP * scale
    collide = ~same & (np.diff(lam, axis=1) <= tol[:, None])
    if np.any(off > tol) or np.any(collide):
        raise NotFlatNormal(
            "the combination sum_c (sqrt(prime_c) - 1) alpha_c does not "
            "diagonalize every shape operator: it repeats an eigenvalue "
            "across distinct principal curvature vectors, or the operators "
            "commute only to tolerance"
        )
    ap[bad] = flat[bad] = math.nan   # kappa is a view of ap's diagonals
    return kappa, same, ap, flat


@dataclass
class UmbilicalStructure:
    """Principal-curvature grouping of rows of flat-normal-bundle points.

    Every field has a leading row axis. kappa (rows, d, codim) holds the
    principal curvature vectors in ascending combined order; labels (rows,
    d) numbers the groups of equal vectors from 0 in that order, -1 on a
    row that is not finite; u (rows, d) marks U, the largest group (the
    first of equal size), and eta (rows, codim) its common vector. flat
    (rows,) is the flat_normal_residual the grouping was checked against,
    NaN on a row that is not finite. residuals (rows, 4) is None without
    rho and NaN on rows not split.
    """

    kappa: np.ndarray
    labels: np.ndarray
    u: np.ndarray
    eta: np.ndarray
    flat: np.ndarray
    residuals: np.ndarray

    @property
    def u_dim(self):
        return np.sum(self.u, axis=1)

    @property
    def split(self):
        """Rows whose U leaves a 2-plane complement, and rows that are not
        finite: their NaN residuals fail whatever check reads them."""
        return ((self.u_dim == self.kappa.shape[1] - 2)
                | np.isnan(self.eta).any(axis=1))


def umbilical_structure(alpha, rho=None):
    """Group tangent directions by principal curvature vector, per row.

    alpha is the (rows, codim, d, d) frame array of points with flat normal
    bundle, d the dimension of the immersed manifold. Equal vectors have
    equal combined eigenvalues, so each group is a run of equal neighbours
    in _principal_curvatures' order, which raises rather than give a wrong
    grouping. When rho is given, every split row gets the residuals

      ga1:      rho - K(U-perp) - (d-2) <alpha_11, eta>
      eqalpha:  <alpha_11 - alpha_22, eta>
      eqalpha2: <alpha_12, eta>
      eqalpha1: rho - (d-3) |eta|^2 - <alpha_11 + alpha_22, eta>

    with indices 1, 2 running over the complement in ascending order and
    K(U-perp) computed from the Gauss equation. A row that is not finite
    has no grouping: kappa, eta and its residuals are NaN and U is empty.
    """
    kappa, same, ap, flat = _principal_curvatures(alpha)
    rows, d = kappa.shape[:2]
    labels = np.concatenate(
        [np.zeros((rows, 1), dtype=int), np.cumsum(~same, axis=1)], axis=1)
    sizes = np.sum(labels[:, :, None] == np.arange(d), axis=1)
    u = labels == np.argmax(sizes, axis=1)[:, None]
    eta = np.sum(kappa * u[:, :, None], axis=1) / np.sum(u, axis=1)[:, None]
    bad = np.isnan(kappa[:, 0, 0])
    labels[bad] = -1
    u[bad] = False
    um = UmbilicalStructure(kappa=kappa, labels=labels, u=u, eta=eta,
                            flat=flat, residuals=None)
    if rho is not None:
        # every dot product of the complement's entries alpha_11, alpha_22,
        # alpha_12 and eta
        r, i = np.arange(rows), np.argmax(~u, axis=1)
        j = d - 1 - np.argmax(~u[:, ::-1], axis=1)
        P = np.stack([ap[r, :, i, i], ap[r, :, j, j], ap[r, :, i, j], eta], 1)
        g = P @ np.swapaxes(P, 1, 2)
        e1, e2, e12, ee = g[:, 0, 3], g[:, 1, 3], g[:, 2, 3], g[:, 3, 3]
        um.residuals = np.stack([
            rho - (g[:, 0, 1] - g[:, 2, 2]) - (d - 2.0) * e1, e1 - e2, e12,
            rho - (d - 3.0) * ee - (e1 + e2)], axis=1)
        um.residuals[~um.split] = math.nan
    return um


# -- Gauss equation ----------------------------------------------------------------

def gauss_ricci(alpha):
    """Ricci tensor in the orthonormal frame, flat ambient Gauss equation;
    alpha may carry leading row axes."""
    tr = np.einsum("...cpp->...c", alpha)
    return np.einsum("...c,...cpq->...pq", tr, alpha) - np.einsum(
        "...cpr,...crq->...pq", alpha, alpha
    )


def gauss_ricci_residual(imm, pe):
    """Gauss and realization residuals of imm against imm.chart, per row.

    Gauss sets extrinsic Ricci against the chart's closed-form Ricci by
    independent routes: the left side is the immersion's jets and frame
    algebra, the right side, B^T diag(ric) B, is the last array of one
    order-1 metric_jet call a block, O'Neill's Ricci from the warp sample
    and the fiber's Ricci constants, which never sees the ambient space or
    the metric's derivatives. That call reads pe.warp, the jet's own
    sample of the chart's warp, and samples the warp itself only where pe
    holds none, as on a composite, whose jet reads a closed-form sigma.
    Ricci cannot see a round factor's radius, so the same call's diagonal
    f and its derivatives df give realization: the worst of |J^T J - g|
    and |d_k (J^T J) - d_k g| over 1 + max |g|, g = diag f, with
    d_k (J^T J)_ij = H_ki^T J_j + J_i^T H_kj from the jet pe holds; the
    diagonals are set against f and df, every other entry against 0.
    """
    idx = np.arange(imm.dim)

    def block(s):
        warp = (None if pe.warp is None
                else warpfunc.WarpSample(*(c[s] for c in pe.warp)))
        f, df, ric = imm.chart.metric_jet(pe.x[s], 1, warp)
        J = pe.J[s]
        # J^T J, like N^T N below, multiplies a copy of the transpose, as
        # numpy's batched A^T @ A on a view of A takes a slower path
        gram = np.swapaxes(J, 1, 2).copy() @ J
        gram[:, idx, idx] -= f
        dgi = pe.H[s].transpose(0, 2, 3, 1) @ J[:, None]   # H_ki^T J_j
        dgram = dgi + np.swapaxes(dgi, 2, 3)
        del dgi
        dgram[:, :, idx, idx] -= df
        gap = np.maximum(geometry._row_max(gram),
                         np.max(np.abs(dgram), axis=(1, 2, 3)))
        return ric, gap / (1.0 + np.max(np.abs(f), axis=1))

    # a block counts 4 d**3 a point: H^T J and its symmetrized sum, then
    # the sum and its absolute value, with room for the d x d arrays and
    # the copies matmul makes; the tests hold its tracemalloc peak within
    # [1/2, 1] of the budget
    ric, realization = (np.concatenate(a) for a in zip(*(
        block(s) for s in geometry._block_slices(len(pe.x), 4 * imm.dim ** 3))))
    ric_int = np.swapaxes(pe.B, 1, 2) @ (ric[:, :, None] * pe.B)
    gauss = np.max(np.abs(gauss_ricci(pe.alpha) - ric_int), axis=(1, 2))
    return gauss, realization


# -- Codazzi -------------------------------------------------------------------------

def codazzi_residual(imm, pe):
    """Codazzi and Dupin residuals from the Hessians of the displaced jets.

    (nabla_a alpha)_bc is PiN d_a H_bc minus three Christoffel terms,
    alpha_ae Gamma^e_bc, Gamma^e_ab alpha_ec and Gamma^e_ac alpha_be, which
    as a set are symmetric in (a, b). Codazzi in flat ambient space demands
    symmetry in (a, b), so its defect is exactly PiN (d_a H_bc - d_b H_ac),
    d the central difference at _STEP over the 2 dim points each row's
    stencil adds: no inverse, Christoffel symbol or alpha is formed at
    them. The rows go in blocks within geometry's element budget, one jet
    call per block, and dupin_residual reads d_L H_LL of every row once
    they are done. Returns (codazzi, dupin), one value per row each.
    """
    n, d, amb = len(pe.x), imm.dim, imm.ambient_dim
    # the axis rows of geometry's stencil: rows 2a and 2a + 1 displace a
    # point by +_STEP and -_STEP along axis a
    E = geometry._stencil(d, _STEP)[0][1:2 * d + 1]
    codazzi, leaf = np.empty(n), np.empty((n, amb))
    # a block counts three arrays a point of the displaced Hessians' size;
    # the tests hold the live set's tracemalloc peak, in the block's jet
    # call with the ufuncs' fixed buffers, within [1/2, 1] of the budget
    for rows in geometry._block_slices(n, 3 * 2 * d * amb * d * d):
        N = pe.N[rows]
        m = len(N)
        X = (pe.x[rows, None, :] + E).reshape(-1, d)
        H = imm.jet(X, 2)[2].reshape(m, d, 2, amb, d, d)
        # 2 _STEP d_a H_bc, axes (row, a, ambient, b, c)
        dH = H[:, :, 0] - H[:, :, 1]
        del H
        leaf[rows] = dH[:, -1, :, -1, -1]
        defect = dH - np.swapaxes(dH, 1, 3)
        del dH
        PiN = np.swapaxes(N, 1, 2).copy() @ N
        defect = PiN[:, None] @ defect.reshape(m, d, amb, d * d)
        codazzi[rows] = np.max(np.abs(defect, out=defect), axis=(1, 2, 3))
        del defect   # before the next block's jet
    return codazzi / (2.0 * _STEP), dupin_residual(pe, leaf / (2.0 * _STEP))


def dupin_residual(pe, dH):
    """Normal-space velocity of eta along a U-leaf direction, per row.

    The leaf direction L is the last chart axis, the final fiber angle.
    Where U holds L, alpha(X, L) = <X, L> eta for every X, so
    (nabla_L alpha)(L, L) = g_LL nabla-perp_L eta, and eta is parallel along
    the leaf in the normal connection exactly when it vanishes. None of its
    three Christoffel terms cancels at (L, L, L), so it is the normal part
    of dH - 3 H_Le Gamma^e_LL, with dH (rows, ambient) the d_L H_LL of
    codazzi_residual's displaced jets and Gamma^e_LL = B Q^T H_LL read off
    the rows' own jet and frames.
    """
    H = pe.H
    gam = pe.B @ (np.swapaxes(pe.Q, 1, 2) @ H[:, :, -1, -1, None])
    v = pe.N @ (dH[:, :, None] - 3.0 * (H[:, :, -1] @ gam))
    return np.linalg.norm(v[:, :, 0], axis=1) / np.sum(pe.J[:, :, -1] ** 2,
                                                        axis=1)


# -- rotational profile normal --------------------------------------------------------

def profile_delta(s):
    """Coefficients (a, b, c) of the distinguished rotational normal at the
    warp sample s, whose fields may be floats or arrays of rows.

    delta = (a, b sin theta, b cos theta, c F(y)) with a = -phi' psi',
    b = -phi' phi'', c = 1 - phi'^2; |delta|^2 = 1 - phi'^2. Degenerates
    when phi' approaches 1 at any row.
    """
    w2 = 1.0 - s.dphi ** 2
    if np.any(w2 <= 1e-8):
        raise DegenerateDelta("profile normal degenerates as phi' -> 1")
    margin = warpfunc.embeddability_margin(s.dphi, s.d2phi)
    if np.any(margin < 0.0):
        raise BadRange("no profile exists where the margin is negative")
    dpsi = np.sqrt(np.maximum(margin, 0.0))
    return -s.dphi * dpsi, -s.dphi * s.d2phi, w2


def profile_normal_shape_residual(imm, pe):
    """Deviation of A_delta from its block form phi'' I_2 (+) -(w^2/phi) I,
    per row, at the warp sample pe.warp, the jet's own, or where pe holds
    none at one samples_at call of the chart's warp.

    Exact identity for every rotational immersion here, independent of the
    warp family; the residual is pure roundoff.
    """
    if imm.base != "rotational":
        raise BadRange("profile normal exists only for rotational immersions")
    t, th = pe.x[:, 0], pe.x[:, 1]
    s = imm.chart.warp.samples_at(t) if pe.warp is None else pe.warp
    a, b, c = profile_delta(s)
    delta = np.zeros((len(t), imm.ambient_dim))
    delta[:, 0] = a
    delta[:, 1] = b * np.sin(th)
    delta[:, 2] = b * np.cos(th)
    delta[:, 3:] = c[:, None] * pe.v[:, 3:] / s.phi[:, None]
    M = np.einsum("nx,nxij->nij", delta, pe.H)
    S = np.linalg.solve(np.swapaxes(pe.J, 1, 2).copy() @ pe.J, M)
    want = np.zeros_like(S)
    idx = np.arange(imm.dim)
    want[:, idx, idx] = -(c / s.phi)[:, None]
    want[:, 0, 0] = want[:, 1, 1] = s.d2phi
    return np.max(np.abs(S - want), axis=(1, 2))


# -- shape-operator normal forms -------------------------------------------------------

@dataclass
class EpsilonForm:
    """Pair gauge-reduced to A1 = diag(b, eps b, a, eps a), A2 = diag(p, q, 0, 0)
    up to simultaneous permutation; the binding relation is pq = eps (a^2 - b^2)
    with a on the A2-kernel pair and b on its support."""

    a: float
    b: float
    p: float
    q: float
    eps: int
    beta: float
    residual: float

    kind = "epsilon"


@dataclass
class GenericForm:
    """Pair gauge-reduced to A1 = diag(a, b, c, d), A2 = diag(p, q, r, 0) with
    the three product relations pq = ad - bc, pr = ac - bd, qr = ab - cd."""

    a: float
    b: float
    c: float
    d: float
    p: float
    q: float
    r: float
    beta: float
    residual: float
    positive: bool

    kind = "generic"


@dataclass
class Unclassified:
    reason: str
    residual: float = float("inf")

    kind = "unclassified"


def _pairing(vals, i, j, k, l, eps):
    """How far (vals_i, vals_j) and (vals_k, vals_l) are from eps-pairs."""
    return max(abs(vals[i] - eps * vals[j]), abs(vals[k] - eps * vals[l]))


def shape_operator_normal_form(A1, A2):
    """Classify a commuting 4x4 shape-operator pair by gauge rotation.

    The slots are the pair's principal curvatures, read from the same
    common eigenbasis as umbilical_structure, a batch of one row, and
    _normal_form scans their gauges, as classify_rows does for every row
    of a sample.
    """
    A1 = np.asarray(A1, dtype=float)
    A2 = np.asarray(A2, dtype=float)
    if A1.shape != (4, 4) or A2.shape != (4, 4):
        raise BadDimension("normal forms are defined for 4x4 pairs")
    kappa = _principal_curvatures(np.stack([A1, A2])[None])[0][0]
    return _normal_form(*kappa.T)


def _normal_form(d1, d2):
    """Normal form of one pair from its principal-curvature slots d1, d2.

    The gauge freedom is a rotation of the normal 2-frame; for every slot k
    the closed-form angle beta = atan2(d2_k, d1_k) zeroes that slot of the
    rotated second operator exactly, so scanning the four candidate angles
    finds the gauge with the most zeros. Two or more zeros give the epsilon
    form, exactly one the generic form. The scan runs on Python floats:
    four slots are too few for array calls to pay.
    """
    d1, d2 = [float(x) for x in d1], [float(x) for x in d2]
    tol = TOL_FORM * max(1.0, *map(abs, d1), *map(abs, d2))

    best = None
    for k in range(4):
        beta = math.atan2(d2[k], d1[k])
        cb, sb = math.cos(beta), math.sin(beta)
        e2 = [-sb * x + cb * y for x, y in zip(d1, d2)]
        zeros = sum(abs(z) <= tol for z in e2)
        if best is None or zeros > best[0]:
            best = (zeros, beta, [cb * x + sb * y for x, y in zip(d1, d2)], e2)
    zeros, beta, e1, e2 = best

    i, j, k, l = sorted(range(4), key=lambda s: -abs(e2[s]))
    if zeros >= 2:
        pairings = {eps: _pairing(e1, k, l, i, j, eps) for eps in (1, -1)}
        eps = 1 if pairings[1] <= pairings[-1] else -1
        a, b = e1[k], e1[i]
        p, q = e2[i], e2[j]
        rel = abs(p * q - eps * (a * a - b * b))
        leak = max(abs(e2[k]), abs(e2[l]))
        return EpsilonForm(
            a=a, b=b, p=p, q=q, eps=eps, beta=beta,
            residual=max(pairings[eps], rel, leak),
        )
    if zeros == 1:
        dd = e1[l]
        best_fit = None
        for x, y, z in itertools.permutations((i, j, k)):
            a, b, c = e1[x], e1[y], e1[z]
            p, q, r = e2[x], e2[y], e2[z]
            res = max(
                abs(p * q - (a * dd - b * c)),
                abs(p * r - (a * c - b * dd)),
                abs(q * r - (a * b - c * dd)),
            )
            if best_fit is None or res < best_fit[0]:
                best_fit = (res, (a, b, c, dd, p, q, r))
        res, (a, b, c, dd, p, q, r) = best_fit
        pos = (a * dd - b * c) * (a * c - b * dd) * (a * b - c * dd) > 0.0
        return GenericForm(a=a, b=b, c=c, d=dd, p=p, q=q, r=r, beta=beta,
                           residual=res, positive=pos)
    return Unclassified(reason="no gauge produced a zero slot")


def normal_form_factors(a, b, c, d):
    """ad - bc, ac - bd and ab - cd: the right-hand sides of the relations."""
    return a * d - b * c, a * c - b * d, a * b - c * d


def solve_normal_form_relations(a, b, c, d):
    """Recover (p, q, r) from the generic-form relations, positive-p branch.

    p^2 = (ad - bc)(ac - bd)/(ab - cd); the product of the three right-hand
    sides must be positive for a real solution. An input that is not finite
    raises BadRange; a p, q or r that is not, as when a product overflows or
    underflows, raises NotNormalForm.
    """
    if not all(math.isfinite(x) for x in (a, b, c, d)):
        raise BadRange("normal-form values must be finite")
    r1, r2, r3 = normal_form_factors(a, b, c, d)
    if abs(r3) < 1e-14 or r1 * r2 * r3 <= 0.0:
        raise NotNormalForm("relations have no real solution for these values")
    p = math.sqrt(r1 * r2 / r3)
    q, r = (r1 / p, r2 / p) if p > 0.0 else (math.nan, math.nan)
    if not all(math.isfinite(x) for x in (p, q, r)):
        raise NotNormalForm("p, q or r overflows or underflows for these values")
    return p, q, r


def classify_rows(imm, X):
    """Normal forms at the rows of X, one a row, from one extrinsics_at call
    and one _principal_curvatures call over every row's pair; each row's
    slots are those shape_operator_normal_form reads from its pair alone."""
    pe = extrinsics_at(imm, X)
    if pe.dim != 4 or pe.codim != 2:
        raise BadDimension("classification needs dimension 4 and codimension"
                           " 2, got %d/%d" % (pe.dim, pe.codim))
    return [_normal_form(*k.T) for k in _principal_curvatures(pe.alpha)[0]]


def classify_at(imm, x):
    """Normal form at the one point x; more points raise BadDimension."""
    return classify_rows(imm, np.reshape(x, (1, -1)))[0]


# -- scan driver ------------------------------------------------------------------------

@dataclass
class ExtrinsicReport:
    label: str
    dim: int
    codim: int
    n_points: int
    flat_normal_max: float
    gauss_max: float
    realization_max: float
    codazzi_max: float
    u_dim_mode: int
    umbilical_points: int
    umbilical_residual_max: float
    dupin_max: float
    profile_max: float
    jet_calls: int      # immersion jet calls the scan made
    jet_rows: int       # rows those calls evaluated
    provenance: str = "frame-algebra"

    def as_dict(self):
        return dataclasses.asdict(self)


def extrinsic_scan(imm, n_points, seed=0):
    """Run every applicable extrinsic check over a quasi-random sample.

    Each stage evaluates the whole sample at once. The umbilical residuals
    and Dupin are read only at points where the largest umbilical group
    leaves a 2-dimensional complement; their maxima are NaN when no point
    does (umbilical_points == 0). Every maximum propagates NaN.
    jet_calls and jet_rows count the immersion evaluations the scan made.
    """
    jet_rows = []   # rows of every jet call the scan makes
    jet_fn = imm.jet_fn

    def counted(X, order):
        jet_rows.append(len(X))
        return jet_fn(X, order)

    imm = dataclasses.replace(imm, jet_fn=counted)
    pts = geometry.sample_points(imm, n_points, seed=seed)
    pe = extrinsics_at(imm, pts)
    gauss, realization = gauss_ricci_residual(imm, pe)
    codazzi, dupin = codazzi_residual(imm, pe)
    um = umbilical_structure(pe.alpha, rho=imm.rho)
    umb = np.flatnonzero(um.split)
    profile = (profile_normal_shape_residual(imm, pe)
               if imm.base == "rotational" else [])
    return ExtrinsicReport(
        label=imm.label, dim=imm.dim, codim=imm.ambient_dim - imm.dim,
        n_points=len(pts), flat_normal_max=float(np.max(um.flat)),
        gauss_max=float(np.max(gauss)),
        realization_max=float(np.max(realization)),
        codazzi_max=float(np.max(codazzi)),
        u_dim_mode=int(np.bincount(um.u_dim).argmax()),
        umbilical_points=len(umb),
        umbilical_residual_max=(float(np.max(np.abs(um.residuals[umb])))
                                if len(umb) else math.nan),
        dupin_max=float(np.max(dupin[umb])) if len(umb) else math.nan,
        profile_max=float(np.max(profile, initial=0.0)),
        jet_calls=len(jet_rows), jet_rows=sum(jet_rows),
    )
