"""Second-fundamental-form analysis of explicit immersions.

Everything runs in orthonormal frames built by QR from exact Jacobians, so
shape operators are plain symmetric matrices and every reported quantity is
frame-checked: rotating the normal frame or re-spanning the tangent frame
must leave residuals, group sizes, and normal forms unchanged.

The checks split into pointwise algebra (flat normal bundle, umbilical
substructure, normal forms of shape-operator pairs) and differential
identities (Gauss against intrinsic curvature, Codazzi, parallelism of the
umbilical normal along its leaves). Every differential check reads one
point evaluation, the PointExtrinsics of extrinsics_at, and evaluates the
immersion again only at the points its own stencil adds.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import (
    BadDimension,
    BadRange,
    DegenerateDelta,
    NotFlatNormal,
    NotNormalForm,
    RankDeficient,
)


# -- frames and second fundamental form ----------------------------------------

def _complete_normals(Q):
    """Orthonormal basis of the orthogonal complement of span(Q).

    Greedy over standard basis vectors: always take the one with the largest
    residual after projecting out everything chosen so far. Deterministic,
    and stable wherever no two residual norms tie.
    """
    amb, d = Q.shape
    c = amb - d
    P = np.eye(amb) - Q @ Q.T
    out = np.empty((c, amb))
    for k in range(c):
        norms = np.linalg.norm(P, axis=0)
        i = int(np.argmax(norms))
        v = P[:, i] / norms[i]
        out[k] = v
        P -= np.outer(v, v @ P)
    return out


@dataclass
class PointExtrinsics:
    """Frame data and second fundamental form at one chart point.

    alpha has shape (codim, d, d): symmetric shape-operator matrices in the
    orthonormal tangent frame, one per normal frame vector. Q holds the
    tangent frame in ambient coordinates, N the normal frame, B the change
    of basis from frame to chart indices; v, J, H is the immersion's jet at
    x, which the differential checks reuse.
    """

    x: np.ndarray
    v: np.ndarray
    J: np.ndarray
    H: np.ndarray
    Q: np.ndarray
    N: np.ndarray
    B: np.ndarray
    alpha: np.ndarray

    @property
    def dim(self):
        return self.Q.shape[1]

    @property
    def codim(self):
        return self.N.shape[0]

    @property
    def shape_operators(self):
        return [self.alpha[k] for k in range(self.codim)]


def extrinsics_at(imm, x):
    x = np.asarray(x, dtype=float)
    v, J, H = imm.jet(x[None])
    v, J, H = v[0], J[0], H[0]
    Q, R = np.linalg.qr(J)
    s = np.sign(np.diag(R))
    s[s == 0.0] = 1.0
    Q = Q * s
    R = s[:, None] * R
    scale = float(np.max(np.abs(R)))
    if np.min(np.abs(np.diag(R))) <= 1e-10 * max(scale, 1.0):
        raise RankDeficient("differential is rank-deficient at this point")
    B = np.linalg.inv(R)
    N = _complete_normals(Q)
    a_chart = np.einsum("ca,aij->cij", N, H)
    alpha = np.einsum("ip,jq,cij->cpq", B, B, a_chart)
    alpha = 0.5 * (alpha + np.transpose(alpha, (0, 2, 1)))
    return PointExtrinsics(x=x, v=v, J=J, H=H, Q=Q, N=N, B=B, alpha=alpha)


def flat_normal_residual(alpha):
    """Largest commutator entry among shape-operator pairs.

    In flat ambient space the normal bundle is flat exactly when all shape
    operators commute, so this is the full flatness test.
    """
    c = alpha.shape[0]
    comms = [np.max(np.abs(alpha[a] @ alpha[b] - alpha[b] @ alpha[a]))
             for a in range(c) for b in range(a + 1, c)]
    return float(np.max(comms, initial=0.0))


# -- simultaneous diagonalization ------------------------------------------------

def simdiag(mats, tol=1e-7):
    """Common orthonormal eigenbasis of commuting symmetric matrices.

    Successive refinement: diagonalize the first matrix, split the basis
    into eigenvalue clusters, then diagonalize each following matrix inside
    every cluster. Raises NotFlatNormal when a pair fails to commute at the
    given tolerance, since no common basis exists then.
    """
    mats = [np.asarray(m, dtype=float) for m in mats]
    d = mats[0].shape[0]
    scale = max(1.0, max(float(np.max(np.abs(m))) for m in mats))
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            comm = mats[a] @ mats[b] - mats[b] @ mats[a]
            if np.max(np.abs(comm)) > tol * scale:
                raise NotFlatNormal(
                    "shape operators do not commute; no common eigenbasis"
                )
    V = np.eye(d)
    blocks = [np.arange(d)]
    for M in mats:
        new_blocks = []
        for blk in blocks:
            sub = V[:, blk].T @ M @ V[:, blk]
            w, U = np.linalg.eigh(0.5 * (sub + sub.T))
            V[:, blk] = V[:, blk] @ U
            start = 0
            for i in range(1, len(blk) + 1):
                if i == len(blk) or w[i] - w[start] > tol * scale:
                    new_blocks.append(blk[start:i])
                    start = i
        blocks = new_blocks
    return V


# -- umbilical substructure -------------------------------------------------------

@dataclass
class UmbilicalStructure:
    """Principal-curvature grouping of a flat-normal-bundle point.

    kappa rows are principal curvature vectors (one component per normal);
    u_indices is the largest group of equal rows, eta its common value. The
    four scalar residuals tie eta to the Einstein constant when the
    complement of U is a 2-plane; they are None otherwise.
    """

    kappa: np.ndarray
    group_sizes: tuple
    u_indices: tuple
    eta: np.ndarray
    residuals: dict

    @property
    def u_dim(self):
        return len(self.u_indices)


def umbilical_structure(alpha, rho=None, n=None, tol_group=1e-5):
    """Group tangent directions by principal curvature vector.

    alpha is the (codim, d, d) frame array of a point with flat normal
    bundle. When the largest group leaves a 2-dimensional complement and
    rho is given, the structural residuals are evaluated:

      ga1:      rho - K(U-perp) - (n-2) <alpha_11, eta>
      eqalpha:  <alpha_11 - alpha_22, eta>
      eqalpha2: <alpha_12, eta>
      eqalpha1: rho - (n-3) |eta|^2 - <alpha_11 + alpha_22, eta>

    with indices 1, 2 running over the complement and K(U-perp) computed
    from the Gauss equation.
    """
    alpha = np.asarray(alpha, dtype=float)
    c, d, _ = alpha.shape
    if n is None:
        n = d
    V = simdiag(list(alpha))
    ap = np.einsum("pi,cpq,qj->cij", V, alpha, V)
    kappa = np.stack([np.diag(ap[k]) for k in range(c)], axis=1)

    scale = max(1.0, float(np.max(np.abs(kappa))))
    parent = list(range(d))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(d):
        for j in range(i + 1, d):
            if np.max(np.abs(kappa[i] - kappa[j])) <= tol_group * scale:
                parent[find(j)] = find(i)
    groups = {}
    for i in range(d):
        groups.setdefault(find(i), []).append(i)
    glist = sorted(groups.values(), key=lambda g: (-len(g), g[0]))
    u = glist[0]
    eta = kappa[u].mean(axis=0)

    residuals = None
    comp = sorted(set(range(d)) - set(u))
    if len(comp) == 2 and rho is not None:
        i, j = comp
        a11 = ap[:, i, i]
        a22 = ap[:, j, j]
        a12 = ap[:, i, j]
        k_perp = float(a11 @ a22 - a12 @ a12)
        residuals = {
            "ga1": (rho - k_perp) - (n - 2.0) * float(a11 @ eta),
            "eqalpha": float((a11 - a22) @ eta),
            "eqalpha2": float(a12 @ eta),
            "eqalpha1": (rho - (n - 3.0) * float(eta @ eta)
                         - float((a11 + a22) @ eta)),
        }
    return UmbilicalStructure(
        kappa=kappa,
        group_sizes=tuple(len(g) for g in glist),
        u_indices=tuple(u),
        eta=eta,
        residuals=residuals,
    )


# -- Gauss equation ----------------------------------------------------------------

def gauss_ricci(alpha):
    """Ricci tensor in the orthonormal frame, flat ambient Gauss equation."""
    tr = np.einsum("cpp->c", alpha)
    return np.einsum("c,cpq->pq", tr, alpha) - np.einsum(
        "cpr,crq->pq", alpha, alpha
    )


def gauss_ricci_residual(imm, pe, h=1e-3):
    """Extrinsic Ricci against finite-difference intrinsic Ricci at pe.x.

    Independent routes: the left side never differentiates anything (exact
    jets and frame algebra), the right side never sees the ambient space
    (metric stencils on the pullback chart).
    """
    ric_ext = gauss_ricci(pe.alpha)
    chart = geometry.PullbackChart(imm, label="pullback")
    pc = geometry.curvature_fd(chart, pe.x, h=h)
    ric_int = np.einsum("ip,jq,ij->pq", pe.B, pe.B, pc.ricci)
    return float(np.max(np.abs(ric_ext - ric_int)))


# -- Codazzi -------------------------------------------------------------------------

def _alpha_chart(J, H):
    """Ambient-valued second fundamental form in chart indices, with the
    Christoffel symbols Gamma^d_ij and the inverse of the pullback metric
    J^T J, all read off the jet."""
    G = J.T @ J
    Gi = np.linalg.inv(G)
    # subtract the tangential part J Gamma^d_ij
    gam = np.einsum("de,ae,aij->dij", Gi, J, H)
    return H - np.einsum("ad,dij->aij", J, gam), gam, Gi


def codazzi_residual(imm, pe, h=1e-4):
    """Antisymmetry defect of the covariant derivative of alpha at pe.x.

    (nabla_a alpha)(b, c) is computed as the normal projection of the
    coordinate derivative of the ambient-valued alpha minus the two
    Christoffel corrections; Codazzi in flat ambient space demands symmetry
    in (a, b), so the a-b antisymmetrization is pure error. The 2 dim
    displaced points are evaluated in one jet call.
    """
    d = imm.dim
    a0, gam, Gi = _alpha_chart(pe.J, pe.H)
    amb = a0.shape[0]
    PiN = np.eye(amb) - pe.J @ Gi @ pe.J.T
    # rows 2a and 2a + 1 are pe.x displaced by +h and -h along axis a
    axes = np.arange(d)
    X = np.repeat(pe.x[None], 2 * d, axis=0)
    X[2 * axes, axes] += h
    X[2 * axes + 1, axes] -= h
    _, Js, Hs = imm.jet(X)
    da = np.empty((d, amb, d, d))
    for a in range(d):
        ap = _alpha_chart(Js[2 * a], Hs[2 * a])[0]
        am = _alpha_chart(Js[2 * a + 1], Hs[2 * a + 1])[0]
        da[a] = (ap - am) / (2.0 * h)
    # (nabla_a alpha)_bc = PiN d_a alpha_bc - Gamma^d_ab alpha_dc - Gamma^d_ac alpha_bd
    nab = np.einsum("xy,aybc->axbc", PiN, da)
    nab -= np.einsum("dab,xdc->axbc", gam, a0)
    nab -= np.einsum("dac,xbd->axbc", gam, a0)
    defect = nab - np.transpose(nab, (2, 1, 0, 3))
    return float(np.max(np.abs(defect)))


# -- rotational profile normal --------------------------------------------------------

def profile_delta(s):
    """Coefficients (a, b, c) of the distinguished rotational normal at the
    warp sample s.

    delta = (a, b sin theta, b cos theta, c F(y)) with a = -phi' psi',
    b = -phi' phi'', c = 1 - phi'^2; |delta|^2 = 1 - phi'^2. Degenerates
    when phi' approaches 1.
    """
    w2 = 1.0 - s.dphi ** 2
    if w2 <= 1e-8:
        raise DegenerateDelta("profile normal degenerates as phi' -> 1")
    margin = w2 - s.d2phi ** 2
    if margin < 0.0:
        raise BadRange("no profile exists where the margin is negative")
    dpsi = math.sqrt(max(margin, 0.0))
    return -s.dphi * dpsi, -s.dphi * s.d2phi, w2


def profile_normal_shape_residual(imm, pe):
    """Deviation of A_delta from its block form phi'' I_2 (+) -(w^2/phi) I.

    Exact identity for every rotational immersion here, independent of the
    warp family; the residual is pure roundoff.
    """
    if imm.meta.get("kind") != "rotational":
        raise BadRange("profile normal exists only for rotational immersions")
    t, th = pe.x[0], pe.x[1]
    s = imm.meta["warp"].sample_at(t)
    a, b, c = profile_delta(s)
    delta = np.zeros(imm.ambient_dim)
    delta[0] = a
    delta[1] = b * math.sin(th)
    delta[2] = b * math.cos(th)
    delta[3:] = c * pe.v[3:] / s.phi
    M = np.einsum("x,xij->ij", delta, pe.H)
    G = pe.J.T @ pe.J
    S = np.linalg.solve(G, M)
    d = imm.dim
    want = np.zeros((d, d))
    want[0, 0] = want[1, 1] = s.d2phi
    w2 = 1.0 - s.dphi ** 2
    for k in range(2, d):
        want[k, k] = -w2 / s.phi
    return float(np.max(np.abs(S - want)))


# -- Dupin condition -----------------------------------------------------------------

def dupin_residual(imm, pe, h=1e-4, leaf_axis=None):
    """Normal-space velocity of eta along a U-leaf direction at pe.x.

    eta is recomputed as an ambient vector at the two displaced points (it
    is frame-independent, so normal-frame jumps between neighboring points
    cannot pollute the difference quotient) and differentiated centrally;
    parallelism in the normal connection means the normal projection of
    the derivative vanishes.
    """
    if leaf_axis is None:
        leaf_axis = imm.dim - 1
    eta = []
    for sign in (1.0, -1.0):
        y = pe.x.copy()
        y[leaf_axis] += sign * h
        pe_y = extrinsics_at(imm, y)
        eta.append(umbilical_structure(pe_y.alpha).eta @ pe_y.N)
    vel = (eta[0] - eta[1]) / (2.0 * h)
    return float(np.linalg.norm(pe.N @ vel))


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


def shape_operator_normal_form(A1, A2, tol=1e-6):
    """Classify a commuting 4x4 shape-operator pair by gauge rotation.

    The gauge freedom is a rotation of the normal 2-frame; for every
    diagonal slot k the closed-form angle beta = atan2(A2_kk, A1_kk) zeroes
    that slot of the rotated A2 exactly, so scanning the four candidate
    angles finds the gauge with the most zeros. Two or more zeros give the
    epsilon form, exactly one the generic form.
    """
    A1 = np.asarray(A1, dtype=float)
    A2 = np.asarray(A2, dtype=float)
    if A1.shape != (4, 4) or A2.shape != (4, 4):
        raise BadDimension("normal forms are defined for 4x4 pairs")
    V = simdiag([A1, A2])
    d1 = np.diag(V.T @ A1 @ V)
    d2 = np.diag(V.T @ A2 @ V)
    scale = max(1.0, float(np.max(np.abs(d1))), float(np.max(np.abs(d2))))

    best = None
    for k in range(4):
        beta = math.atan2(d2[k], d1[k])
        cb, sb = math.cos(beta), math.sin(beta)
        e1 = cb * d1 + sb * d2
        e2 = -sb * d1 + cb * d2
        zeros = int(np.sum(np.abs(e2) <= tol * scale))
        cand = (zeros, -k, beta, e1, e2)
        if best is None or cand[:2] > best[:2]:
            best = cand
    zeros, _, beta, e1, e2 = best

    order = np.argsort(-np.abs(e2), kind="stable")
    i, j = int(order[0]), int(order[1])
    k, l = int(order[2]), int(order[3])
    if zeros >= 2:
        pairings = {eps: _pairing(e1, k, l, i, j, eps) for eps in (1, -1)}
        eps = 1 if pairings[1] <= pairings[-1] else -1
        a, b = float(e1[k]), float(e1[i])
        p, q = float(e2[i]), float(e2[j])
        rel = abs(p * q - eps * (a * a - b * b))
        leak = float(np.max(np.abs(e2[[k, l]])))
        return EpsilonForm(
            a=a, b=b, p=p, q=q, eps=eps, beta=beta,
            residual=max(pairings[eps], rel, leak),
        )
    if zeros == 1:
        z = int(order[3])
        slots = [int(s) for s in order[:3]]
        dd = float(e1[z])
        best_fit = None
        for perm in itertools.permutations(slots):
            sa, sb_, sc = perm
            a, b, c = float(e1[sa]), float(e1[sb_]), float(e1[sc])
            p, q, r = float(e2[sa]), float(e2[sb_]), float(e2[sc])
            res = max(
                abs(p * q - (a * dd - b * c)),
                abs(p * r - (a * c - b * dd)),
                abs(q * r - (a * b - c * dd)),
            )
            fit = (res, perm)
            if best_fit is None or fit[0] < best_fit[0]:
                best_fit = fit
                chosen = (a, b, c, dd, p, q, r)
        a, b, c, dd, p, q, r = chosen
        pos = (a * dd - b * c) * (a * c - b * dd) * (a * b - c * dd) > 0.0
        return GenericForm(a=a, b=b, c=c, d=dd, p=p, q=q, r=r, beta=beta,
                           residual=best_fit[0], positive=bool(pos))
    return Unclassified(reason="no gauge produced a zero slot")


def solve_normal_form_relations(a, b, c, d):
    """Recover (p, q, r) from the generic-form relations, positive-p branch.

    p^2 = (ad - bc)(ac - bd)/(ab - cd); the product of the three right-hand
    sides must be positive for a real solution.
    """
    r1 = a * d - b * c
    r2 = a * c - b * d
    r3 = a * b - c * d
    if abs(r3) < 1e-14 or r1 * r2 * r3 <= 0.0:
        raise NotNormalForm("relations have no real solution for these values")
    p = math.sqrt(r1 * r2 / r3)
    return p, r1 / p, r2 / p


def classify_at(imm, x, tol=1e-6):
    """Normal-form classification of a 4-manifold immersion point, codim 2."""
    pe = extrinsics_at(imm, x)
    if pe.dim != 4 or pe.codim != 2:
        raise BadDimension(
            "classification needs dimension 4 and codimension 2, got %d/%d"
            % (pe.dim, pe.codim)
        )
    A1, A2 = pe.shape_operators
    return shape_operator_normal_form(A1, A2, tol=tol)


# -- scan driver ------------------------------------------------------------------------

@dataclass
class ExtrinsicReport:
    label: str
    dim: int
    codim: int
    n_points: int
    flat_normal_max: float
    gauss_max: float
    codazzi_max: float
    u_dim_mode: int
    umbilical_points: int
    umbilical_residual_max: float
    dupin_max: float
    profile_max: float
    provenance: str = "frame-algebra"

    def as_dict(self):
        return {
            "label": self.label,
            "dim": self.dim,
            "codim": self.codim,
            "n_points": self.n_points,
            "flat_normal_max": self.flat_normal_max,
            "gauss_max": self.gauss_max,
            "codazzi_max": self.codazzi_max,
            "u_dim_mode": self.u_dim_mode,
            "umbilical_points": self.umbilical_points,
            "umbilical_residual_max": self.umbilical_residual_max,
            "dupin_max": self.dupin_max,
            "profile_max": self.profile_max,
            "provenance": self.provenance,
        }


def extrinsic_scan(imm, n_points=8, seed=0, h=1e-3):
    """Run every applicable extrinsic check over a quasi-random sample.

    The umbilical residuals and Dupin are evaluated only at points where
    the largest umbilical group leaves a 2-dimensional complement; their
    maxima are NaN when no point does (umbilical_points == 0). Every
    maximum propagates NaN.
    """
    chart = geometry.PullbackChart(imm, label=imm.label)
    pts = geometry.sample_points(chart, n_points, seed=seed, h=h)
    flat, gauss, codazzi, umb, dupin, profile, u_dims = ([] for _ in range(7))
    rotational = imm.meta.get("kind") == "rotational"
    for x in pts:
        pe = extrinsics_at(imm, x)
        flat.append(flat_normal_residual(pe.alpha))
        gauss.append(gauss_ricci_residual(imm, pe, h=h))
        codazzi.append(codazzi_residual(imm, pe))
        um = umbilical_structure(pe.alpha, rho=imm.rho)
        u_dims.append(um.u_dim)
        if um.residuals is not None:
            umb.append(np.max(np.abs(list(um.residuals.values()))))
            dupin.append(dupin_residual(imm, pe))
        if rotational:
            profile.append(profile_normal_shape_residual(imm, pe))
    return ExtrinsicReport(
        label=imm.label, dim=imm.dim, codim=imm.ambient_dim - imm.dim,
        n_points=len(pts), flat_normal_max=float(np.max(flat)),
        gauss_max=float(np.max(gauss)), codazzi_max=float(np.max(codazzi)),
        u_dim_mode=int(np.bincount(u_dims).argmax()),
        umbilical_points=len(umb),
        umbilical_residual_max=float(np.max(umb)) if umb else math.nan,
        dupin_max=float(np.max(dupin)) if dupin else math.nan,
        profile_max=float(np.max(profile, initial=0.0)),
    )
