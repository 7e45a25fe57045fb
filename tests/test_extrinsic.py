import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from warpgeo import cli, extrinsic, geometry, immersions, warpfunc
from warpgeo.errors import (
    BadDimension,
    BadRange,
    DegenerateDelta,
    NotFlatNormal,
    NotNormalForm,
    RankDeficient,
)
from warp_samples import sample_at


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def schw_point(n):
    imm = immersions.schwarzschild_immersion(n)
    x = np.array([0.9, 1.0] + [0.9 + 0.1 * k for k in range(n - 2)])
    return imm, x


def at(imm, x):
    return extrinsic.extrinsics_at(imm, x)


def count_calls(monkeypatch, owner, name):
    """Wrap owner.name with a counter; returns a one-entry list."""
    calls = [0]
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def poisoned(imm, bad, radius=0.01):
    """imm with a NaN jet at every row within radius of the point bad."""
    def jet_fn(X, order, fn=imm.jet_fn):
        out = fn(X, order)
        hit = np.all(np.abs(X - bad) < radius, axis=1)
        for a in out:
            a[hit] = np.nan
        return out
    return dataclasses.replace(imm, jet_fn=jet_fn)


def group_sizes(um, row=0):
    """Sizes of a row's principal-curvature groups, largest first."""
    return tuple(sorted(np.bincount(um.labels[row]), reverse=True))


def gauss_sectional(alpha, p, q):
    """Sectional curvature of the frame plane (p, q) from the Gauss equation."""
    return float(alpha[:, p, p] @ alpha[:, q, q] - alpha[:, p, q] @ alpha[:, p, q])


def codazzi_field_residual(field_fn, x, h=1e-4):
    """Codazzi defect of a prescribed shape-operator field over a flat chart.

    field_fn(x) returns a list of symmetric matrices; the chart metric is
    the identity, so the covariant derivative is the plain derivative and
    the defect is max_c |d_a A^c_bc - d_b A^c_ac|. A nonzero limit under
    h-refinement certifies that no immersion realizes the field.
    """
    x = np.asarray(x, dtype=float)
    mats0 = field_fn(x)
    c = len(mats0)
    d = mats0[0].shape[0]
    if x.shape != (d,):
        raise BadDimension(
            "field point must have one coordinate per tangent direction"
        )
    dA = np.empty((d, c, d, d))
    for a in range(d):
        xp, xm = x.copy(), x.copy()
        xp[a] += h
        xm[a] -= h
        mp, mm = field_fn(xp), field_fn(xm)
        for k in range(c):
            dA[a, k] = (mp[k] - mm[k]) / (2.0 * h)
    defect = dA - np.transpose(dA, (2, 1, 0, 3))
    return float(np.max(np.abs(defect)))


def synthetic_shape_field(x):
    """Commuting shape-operator pair that satisfies the pointwise normal form
    with opposite-sign pairing but violates Codazzi.

    a and b vary over the chart; p = b - a and q = b + a keep the relation
    pq = b^2 - a^2 exact at every point, yet the field is not realizable.
    """
    a = 1.0 + 0.3 * math.sin(x[0]) * math.cos(x[1])
    b = 0.5 + 0.2 * math.cos(x[2])
    A1 = np.diag([a, -a, b, -b])
    A2 = np.diag([0.0, 0.0, b - a, b + a])
    return [A1, A2]


class TestFrames:
    def test_orthonormal_and_complementary(self):
        imm, x = schw_point(5)
        pe = extrinsic.extrinsics_at(imm, x)
        Q, N = pe.Q[0], pe.N[0]
        assert np.max(np.abs(Q.T @ Q - np.eye(5))) < 1e-12
        assert np.max(np.abs(N @ N.T - np.eye(2))) < 1e-12
        assert np.max(np.abs(N @ Q)) < 1e-12
        assert pe.dim == 5 and pe.codim == 2
        # a batch of codimension-3 rows, both frames from one complete QR
        imm = immersions.extra_codim_immersion(7, 2)
        pe = extrinsic.extrinsics_at(imm, geometry.sample_points(imm, 6))
        assert pe.N.shape == (6, 3, 10)
        eye = np.eye(3)
        assert np.max(np.abs(pe.N @ np.swapaxes(pe.N, 1, 2) - eye)) < 1e-12
        assert np.max(np.abs(pe.N @ pe.J)) < 1e-12
        assert np.max(np.abs(pe.N @ pe.Q)) < 1e-12

    def test_b_maps_chart_to_frame(self):
        imm, x = schw_point(5)
        pe = extrinsic.extrinsics_at(imm, x)
        _, J, _ = imm.jet(x[None])
        assert np.max(np.abs(J[0] @ pe.B[0] - pe.Q[0])) < 1e-12

    def test_alpha_symmetric(self):
        imm, x = schw_point(4)
        pe = extrinsic.extrinsics_at(imm, x)
        assert np.max(np.abs(pe.alpha - np.swapaxes(pe.alpha, 2, 3))) < 1e-13

    def test_rank_deficient_at_polar_degeneracy(self):
        imm = immersions.build_immersion("sphere", 3)
        with pytest.raises(RankDeficient):
            extrinsic.extrinsics_at(imm, np.array([1e-13, 1.0, 1.0]))
        # one such row fails the whole batch
        with pytest.raises(RankDeficient):
            extrinsic.extrinsics_at(imm, [[1.0, 1.0, 1.0], [1e-13, 1.0, 1.0]])

    def test_invariants_under_frame_rotations(self, rng):
        # row 0 is the point's own frame, rows 1-5 rotate both frames
        imm, x = schw_point(5)
        alpha = extrinsic.extrinsics_at(imm, x).alpha
        rows = [alpha[0]]
        for _ in range(5):
            oc = random_orthogonal(rng, alpha.shape[1])
            ot = random_orthogonal(rng, alpha.shape[2])
            rot = np.einsum("mn,npq->mpq", oc, alpha[0])
            rows.append(np.einsum("pi,mpq,qj->mij", ot, rot, ot))
        rows = np.stack(rows)
        um = extrinsic.umbilical_structure(rows, rho=imm.rho)
        flat = extrinsic.flat_normal_residual(rows)
        assert flat.shape == (6,)
        assert np.all(flat < flat[0] + 1e-12)
        for r in range(1, 6):
            assert group_sizes(um, r) == group_sizes(um, 0)
            assert abs(np.linalg.norm(um.eta[r])
                       - np.linalg.norm(um.eta[0])) < 1e-10
        assert np.all(um.split)
        assert np.max(np.abs(um.residuals - um.residuals[0])) < 1e-9


class TestProfileNormal:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_block_form_is_exact(self, n):
        imm, x = schw_point(n)
        assert extrinsic.profile_normal_shape_residual(imm, at(imm, x)) < 1e-12

    def test_extra_codim_block_form(self):
        imm = immersions.extra_codim_immersion(7, 2)
        x = np.array([0.9, 1.0, 0.9, 1.1, 0.8, 1.2, 2.0])
        assert extrinsic.profile_normal_shape_residual(imm, at(imm, x)) < 1e-12

    def test_delta_norm_matches_turning_margin(self):
        sol = warpfunc.integrate(warpfunc.schwarzschild_params(5), 1.6, 1e-3)
        s = sample_at(sol, 0.9)
        a, b, c = extrinsic.profile_delta(s)
        w2 = 1.0 - s.dphi ** 2
        norm2 = a * a + b * b + c * c * 1.0
        # |delta|^2 = a^2 + b^2 + c^2 with |F| = 1, and it equals w^2
        assert abs(norm2 - w2) < 1e-14

    def test_degenerate_when_slope_reaches_one(self):
        sol = warpfunc.integrate(warpfunc.linear_params(6), 2.0, 1e-3)
        with pytest.raises(DegenerateDelta):
            extrinsic.profile_delta(sample_at(sol, 1.5))
        # arrays of rows degenerate when any one row does
        ts = np.array([0.9, 1.0, 1.1])
        fine = warpfunc.integrate(warpfunc.schwarzschild_params(5), 1.6, 1e-3)
        s = fine.samples_at(ts)
        extrinsic.profile_delta(s)
        s.dphi[1] = 1.0
        with pytest.raises(DegenerateDelta):
            extrinsic.profile_delta(s)

    def test_rejects_non_rotational(self):
        imm = immersions.clifford_immersion(5, 1.0)
        pe = at(imm, np.zeros(5) + 0.9)
        with pytest.raises(BadRange):
            extrinsic.profile_normal_shape_residual(imm, pe)


class TestUmbilicalStructure:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_rotational_substructure(self, n):
        imm, x = schw_point(n)
        pe = extrinsic.extrinsics_at(imm, x)
        um = extrinsic.umbilical_structure(pe.alpha, rho=0.0)
        assert um.u_dim.tolist() == [n - 2]
        assert group_sizes(um) == (n - 2, 1, 1)
        sol = imm.chart.warp
        s = sample_at(sol, x[0])
        w = math.sqrt(1.0 - s.dphi ** 2)
        assert abs(np.linalg.norm(um.eta[0]) - w / s.phi) < 1e-10
        assert um.residuals.shape == (1, 4)
        assert np.max(np.abs(um.residuals)) < 1e-10

    @pytest.mark.parametrize("n,rho,expect", [(5, 1.0, 1.0 / math.sqrt(2.0)),
                                              (6, 2.0, math.sqrt(2.0 / 3.0))])
    def test_product_substructure(self, n, rho, expect):
        imm = immersions.clifford_immersion(n, rho)
        x = np.full(n, 0.9) + 0.1 * np.arange(n)
        pe = extrinsic.extrinsics_at(imm, x)
        um = extrinsic.umbilical_structure(pe.alpha, rho=rho)
        assert um.u_dim.tolist() == [n - 2]
        assert group_sizes(um) == (n - 2, 2)
        assert abs(np.linalg.norm(um.eta[0]) - expect) < 1e-12
        assert np.max(np.abs(um.residuals)) < 1e-12

    def test_composite_fiber_splits(self):
        # Einstein but not (n-2)-umbilical: the in-sphere normal of the
        # product torus takes different constants on the two factors.
        imm = immersions.flat_base_composite(7, 2)
        x = np.array([1.3, 0.4, 0.9, 1.1, 0.8, 1.2, 2.0])
        pe = extrinsic.extrinsics_at(imm, x)
        um = extrinsic.umbilical_structure(pe.alpha, rho=0.0)
        assert group_sizes(um) == (3, 2, 2)
        assert um.u_dim[0] != imm.dim - 2
        assert not um.split[0] and np.all(np.isnan(um.residuals))
        kappa = um.kappa[0]
        base_rows = kappa[np.argsort(np.abs(kappa).sum(axis=1))[:2]]
        assert np.max(np.abs(base_rows)) < 1e-12

    def test_extra_codim_not_umbilical(self):
        imm = immersions.extra_codim_immersion(7, 2)
        x = np.array([0.9, 1.0, 0.9, 1.1, 0.8, 1.2, 2.0])
        pe = extrinsic.extrinsics_at(imm, x)
        assert pe.codim == 3
        assert extrinsic.flat_normal_residual(pe.alpha)[0] < 1e-12
        um = extrinsic.umbilical_structure(pe.alpha, rho=0.0)
        assert um.u_dim[0] != imm.dim - 2

    def test_coarse_tolerance_merges_everything(self, monkeypatch):
        imm, x = schw_point(5)
        pe = extrinsic.extrinsics_at(imm, x)
        monkeypatch.setattr(extrinsic, "_TOL_GROUP", 1e6)
        um = extrinsic.umbilical_structure(pe.alpha)
        assert group_sizes(um) == (5,)
        assert um.residuals is None

    def test_rows_match_one_row_at_a_time(self):
        imm = immersions.build_immersion("schwarzschild", 5)
        pe = extrinsic.extrinsics_at(imm, geometry.sample_points(imm, 6))
        um = extrinsic.umbilical_structure(pe.alpha, rho=imm.rho)
        for r in range(6):
            one = extrinsic.umbilical_structure(pe.alpha[r:r + 1], rho=imm.rho)
            for key in ("kappa", "labels", "u", "eta", "residuals"):
                np.testing.assert_array_equal(getattr(one, key)[0],
                                              getattr(um, key)[r])


class TestCommonEigenbasis:
    def test_recovers_shared_eigenbasis(self, rng):
        v = random_orthogonal(rng, 6)
        d1 = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 3.0])
        d2 = np.array([0.5, 0.5, -1.0, 4.0, 2.5, 0.0])
        alpha = np.stack([v @ np.diag(d1) @ v.T, v @ np.diag(d2) @ v.T])
        um = extrinsic.umbilical_structure(alpha[None])
        want = np.stack([d1, d2], axis=1)
        got = sorted(map(tuple, np.round(um.kappa[0], 9)))
        assert got == sorted(map(tuple, want))
        assert group_sizes(um) == (2, 1, 1, 1, 1)
        assert np.max(np.abs(um.eta[0] - [1.0, 0.5])) < 1e-9

    def test_rejects_non_commuting(self):
        # one non-commuting row fails the whole batch
        m1 = np.diag([1.0, 2.0])
        m2 = np.array([[0.0, 1.0], [1.0, 0.0]])
        good = np.stack([m1, np.diag([3.0, -1.0])])
        with pytest.raises(NotFlatNormal, match="do not commute"):
            extrinsic.umbilical_structure(np.stack([good, np.stack([m1, m2])]))

    @pytest.mark.parametrize("rotate", [False, True])
    def test_rejects_coincident_combination(self, rng, rotate):
        # kappa rows (w1, 0) and (0, w0) differ, yet both give the generic
        # combination the eigenvalue w0 w1
        w0, w1 = math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0
        v = random_orthogonal(rng, 3) if rotate else np.eye(3)
        alpha = np.stack([v @ np.diag(d) @ v.T
                          for d in ([w1, 0.0, 2.0], [0.0, w0, 1.0])])
        with pytest.raises(NotFlatNormal, match="combination"):
            extrinsic.umbilical_structure(alpha[None])

    def test_rejects_basis_that_leaves_off_diagonals(self):
        # the commutator, 1e-8, is below tolerance, yet the combination's
        # eigenbasis turns A by ~37 degrees and leaves ~5e-5 off its diagonal
        a = np.diag([1.0, 1.0 + 1e-4])
        b = 1e-4 * np.array([[0.0, 1.0], [1.0, 0.0]])
        alpha = np.stack([a, b])[None]
        assert extrinsic.flat_normal_residual(alpha)[0] < 1e-7
        with pytest.raises(NotFlatNormal, match="commute only to tolerance"):
            extrinsic.umbilical_structure(alpha)

    def test_constants_are_built_once_a_codimension(self):
        A, B, w = extrinsic._normal_pairs(3)
        assert extrinsic._normal_pairs(3)[0] is A
        assert (A.tolist(), B.tolist()) == ([0, 0, 1], [1, 2, 2])
        assert np.array_equal(w, np.sqrt([2.0, 3.0, 5.0]) - 1.0)
        for a in (A, B, w):
            with pytest.raises(ValueError):
                a[0] = 1

    def test_nan_row_stays_in_its_row(self):
        imm = immersions.clifford_immersion(5, 1.0)
        alpha = extrinsic.extrinsics_at(
            imm, geometry.sample_points(imm, 3, seed=2)).alpha
        finite = extrinsic.umbilical_structure(alpha, rho=imm.rho)
        alpha = np.insert(alpha, 1, np.nan, axis=0)
        alpha[1, 0, 0, 0] = 1.0
        um = extrinsic.umbilical_structure(alpha, rho=imm.rho)
        for key in ("kappa", "eta", "residuals"):
            assert np.all(np.isnan(getattr(um, key)[1])), key
        assert not np.any(um.u[1]) and np.all(um.labels[1] == -1)
        # a NaN row counts as split, so its residuals fail what reads them
        assert um.split.tolist() == [True] * 4
        for key in ("kappa", "labels", "u", "eta", "flat", "residuals"):
            np.testing.assert_array_equal(np.delete(getattr(um, key), 1, 0),
                                          getattr(finite, key))
        assert math.isnan(extrinsic.flat_normal_residual(alpha)[1])
        assert math.isnan(um.flat[1])


# members of every family row with an immersion, plus a perturbed one
GAUSS_MEMBERS = [
    ("schwarzschild", 4, {}), ("schwarzschild", 5, {}),
    ("schwarzschild", 6, {}), ("extra-codim", 7, {"m": 2}),
    ("clifford", 5, {"rho": 1.0}), ("clifford", 6, {"rho": 2.0}),
    ("clifford", 5, {"rho": 1.0, "perturb": 0.05}), ("sphere", 4, {}),
    ("flat-torus-composite", 7, {"m": 2}),
    ("round-torus-composite", 7, {"m": 2}),
    ("cylinder-torus-composite", 7, {"m": 2}),
]


class TestGaussEquation:
    @pytest.mark.parametrize("family,n,member", GAUSS_MEMBERS)
    def test_exact_on_every_member(self, family, n, member):
        # both sides are exact, so only roundoff separates them
        imm = immersions.build_immersion(family, n, **member)
        for seed in (0, 21):
            rep = extrinsic.extrinsic_scan(imm, n_points=12, seed=seed)
            assert rep.gauss_max <= 1e-10
            assert rep.realization_max <= 1e-9

    def test_mismatched_chart_fails(self):
        # the fiber 1% too large: the chart's Ricci no longer matches the
        # immersion's. (Scaling a factor of a product chart would not do:
        # the Ricci tensor of a round factor does not depend on its radius.)
        imm = immersions.build_immersion("schwarzschild", 5)
        wrong = dataclasses.replace(
            imm.chart, fiber=geometry.FiberSpec(dims=(3,), radii=(1.01,)))
        bad = dataclasses.replace(imm, chart=wrong)
        assert extrinsic.extrinsic_scan(imm, n_points=6).gauss_max <= 1e-10
        assert extrinsic.extrinsic_scan(bad, n_points=6).gauss_max > 1e-2

    def test_rescaled_factor_fails_realization_only(self):
        # a round factor 5% too large leaves every Ricci tensor as it was,
        # so only the metric and its derivatives can see it
        imm = immersions.build_immersion("clifford", 5, rho=1.0)
        wrong = geometry.chart_for_family("clifford", 5, rho=1.0,
                                          perturb=0.05)[0]
        good = extrinsic.extrinsic_scan(imm, n_points=6, seed=1)
        bad = extrinsic.extrinsic_scan(dataclasses.replace(imm, chart=wrong),
                                       n_points=6, seed=1)
        assert good.realization_max <= 1e-14
        assert bad.gauss_max <= 1e-14
        assert 0.05 < bad.realization_max < 0.08

    @pytest.mark.parametrize("family,n,member", [
        ("schwarzschild", 5, {}), ("flat-torus-composite", 7, {"m": 2}),
        ("clifford", 5, {"rho": 1.0})])
    def test_realization_is_the_dense_comparison(self, monkeypatch, family,
                                                 n, member):
        # realization sets the diagonals of J^T J and of its derivatives
        # against f and df and every other entry against 0, and must equal
        # the dense comparison to the bit. With J and H random, against the
        # chart's own f and df at the same points, the diagonals set the
        # maximum. Against a chart whose f and df are those diagonals
        # themselves only the other entries are left: those of J^T J where
        # H is small, those of the derivatives where it is large, so
        # leaving out either set would show
        imm = immersions.build_immersion(family, n, **member)
        pe = at(imm, geometry.sample_points(imm, 12, seed=3))
        rng = np.random.default_rng(11)
        J = rng.standard_normal(pe.J.shape)
        H0 = rng.standard_normal(pe.H.shape)
        f, df = imm.chart.metric_jet(pe.x)[:2]
        cases = [(H0, f, df)]
        idx = np.arange(imm.dim)
        for k in (1e-3, 1e3):
            gram, dgram = gram_and_derivatives(J, k * H0)
            cases.append((k * H0, gram[:, idx, idx], dgram[:, :, idx, idx]))
        jet = imm.chart.metric_jet
        for case, (H, f, df) in enumerate(cases):
            def chart_jet(X, order, sample, f=f, df=df):
                return f, df, jet(X, order, sample)[2]

            monkeypatch.setattr(imm.chart, "metric_jet", chart_jet)
            gram, dgram = dense_realization(J, H, f, df)
            got = realization_rows(imm, dataclasses.replace(pe, J=J, H=H))
            assert np.array_equal(got, np.maximum(gram, dgram))
            assert np.all(got > 1e-3)
            if case:
                assert np.all((gram > dgram) == (case == 1))

    def test_warp_other_than_the_jets_fails(self, monkeypatch, capsys):
        # the chart's warp replaced by a solution of the same equation from
        # phi0 x 1.001, the immersion left as it is. The jet's sample is
        # then not the chart's warp, so it stands in for nothing: Gauss and
        # the profile check sample the chart's warp, and realization and
        # the profile check fail as they do when nothing reads the jet's
        # sample (at the default 6 points, 9.2e-4 and 6.8e-4)
        def mismatched(*args, build=immersions.build_immersion, **kwargs):
            imm = build(*args, **kwargs)
            sol = imm.chart.warp
            params = dataclasses.replace(sol.params, c=None,
                                         phi0=1.001 * sol.params.phi0)
            other = warpfunc.integrate(params, sol.t_max, step=sol.step)
            return dataclasses.replace(imm, chart=dataclasses.replace(
                imm.chart, warp=other))

        imm = mismatched("schwarzschild", 5)
        assert at(imm, geometry.sample_points(imm, 3)).warp is None
        monkeypatch.setattr(immersions, "build_immersion", mismatched)
        assert cli.main(["verify-extrinsic", "--family", "schwarzschild",
                         "--n", "5"]) == 1
        checks = {c["name"]: c
                  for c in json.loads(capsys.readouterr().out)["checks"]}
        for name in ("realization", "profile-normal-blocks"):
            assert checks[name]["status"] == "fail"
            assert checks[name]["value"] > 1e-4

    @pytest.mark.parametrize("make", [
        lambda: immersions.schwarzschild_immersion(5),
        lambda: immersions.clifford_immersion(5, 1.0),
        lambda: immersions.flat_base_composite(7, 2),
        lambda: immersions.extra_codim_immersion(7, 2),
    ])
    def test_extrinsic_ricci_matches_intrinsic(self, make):
        imm = make()
        x = np.full(imm.dim, 0.9) + 0.05 * np.arange(imm.dim)
        assert extrinsic.gauss_ricci_residual(imm, at(imm, x))[0] < 5e-5

    def test_sectional_of_product_planes(self):
        # the frame aligns with coordinates because the pullback is diagonal
        imm = immersions.clifford_immersion(5, 1.0)
        x = np.full(5, 0.9) + 0.1 * np.arange(5)
        pe = extrinsic.extrinsics_at(imm, x)
        assert abs(gauss_sectional(pe.alpha[0], 0, 1) - 1.0) < 1e-12
        assert abs(gauss_sectional(pe.alpha[0], 0, 2)) < 1e-12
        assert abs(gauss_sectional(pe.alpha[0], 2, 3) - 0.5) < 1e-12

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_sectional_of_rotational_planes(self, n):
        imm, x = schw_point(n)
        pe = extrinsic.extrinsics_at(imm, x)
        s = sample_at(imm.chart.warp, x[0])
        base = gauss_sectional(pe.alpha[0], 0, 1)
        assert abs(base - (n - 2.0) * s.d2phi / s.phi) < 1e-11
        mixed = gauss_sectional(pe.alpha[0], 0, 2)
        assert abs(mixed - (-s.d2phi / s.phi)) < 1e-12
        if n > 4:
            c = imm.chart.warp.params.c
            fib = gauss_sectional(pe.alpha[0], 2, 3)
            assert abs(fib - (-c / s.phi ** (n - 1.0))) < 1e-12

    def test_ricci_from_alpha_closed_form(self):
        # S^2 x S^3 at radii (1, sqrt 2): Ric = g in the orthonormal frame
        imm = immersions.clifford_immersion(5, 1.0)
        x = np.full(5, 1.1)
        pe = extrinsic.extrinsics_at(imm, x)
        assert np.max(np.abs(extrinsic.gauss_ricci(pe.alpha) - np.eye(5))) < 1e-12


class TestCodazzi:
    def test_one_jet_call(self, monkeypatch):
        # one jet call per block: three arrays of 2 dim 7 ambient dim^2 =
        # 1750 entries a point at n = 5 put 15 points in a block of 5 2**14
        imm, x = schw_point(5)
        pe = at(imm, x)
        pts = geometry.sample_points(geometry.PullbackChart(imm), 12)
        batch = at(imm, pts)
        jets = count_calls(monkeypatch, immersions.Immersion, "jet")
        extrinsic.codazzi_residual(imm, pe)
        assert jets == [1]
        extrinsic.codazzi_residual(imm, batch)
        assert jets == [1 + 1]

    @pytest.mark.parametrize("make", [
        lambda: immersions.schwarzschild_immersion(5),
        lambda: immersions.flat_base_composite(7, 2),
    ])
    def test_immersions_satisfy_codazzi(self, make):
        imm = make()
        x = np.full(imm.dim, 0.9) + 0.05 * np.arange(imm.dim)
        assert extrinsic.codazzi_residual(imm, at(imm, x))[0] < 1e-6

    def test_synthetic_field_fails_codazzi(self):
        y = np.array([0.7, 1.2, 0.5, 0.0])
        r1 = codazzi_field_residual(synthetic_shape_field, y, h=1e-4)
        r2 = codazzi_field_residual(synthetic_shape_field, y, h=5e-5)
        assert r1 > 0.05 and r2 > 0.05
        # converges to a nonzero limit instead of decaying with h
        assert abs(r1 - r2) < 1e-6

    def test_synthetic_field_still_has_pointwise_form(self):
        y = np.array([0.7, 1.2, 0.5, 0.0])
        a1, a2 = synthetic_shape_field(y)
        form = extrinsic.shape_operator_normal_form(a1, a2)
        assert form.kind == "epsilon"
        assert form.eps == -1
        assert form.residual < 1e-12

    def test_field_point_width_guard(self):
        with pytest.raises(BadDimension):
            codazzi_field_residual(
                synthetic_shape_field, np.zeros(3)
            )


class TestNormalForms:
    def test_rotational_n4_is_epsilon_plus(self):
        imm, x = schw_point(4)
        form = extrinsic.classify_at(imm, x)
        assert form.kind == "epsilon"
        assert form.eps == 1
        assert form.residual < 1e-10
        s = sample_at(imm.chart.warp, x[0])
        w2 = 1.0 - s.dphi ** 2
        k1sq = s.d2phi ** 2 / w2
        k2sq = w2 / s.phi ** 2
        assert abs(form.p * form.q - (k2sq - k1sq)) < 1e-10
        assert abs(form.a ** 2 - k2sq) < 1e-10
        assert abs(form.b ** 2 - k1sq) < 1e-10

    def test_epsilon_form_found_through_gauge_mix(self):
        a, b = 2.0, 1.5
        p, q = 2.5, (a * a - b * b) / 2.5
        d1 = np.diag([b, b, a, a])
        d2 = np.diag([p, q, 0.0, 0.0])
        beta = 0.6
        m1 = math.cos(beta) * d1 - math.sin(beta) * d2
        m2 = math.sin(beta) * d1 + math.cos(beta) * d2
        form = extrinsic.shape_operator_normal_form(m1, m2)
        assert form.kind == "epsilon"
        assert form.eps == 1
        assert form.residual < 1e-12
        assert abs(abs(form.p * form.q) - abs(p * q)) < 1e-12
        assert sorted([form.a ** 2, form.b ** 2]) == pytest.approx([b * b, a * a])

    def test_generic_form_roundtrip(self):
        a, b, c, d = 3.0, 1.0, 0.5, 0.25
        p, q, r = extrinsic.solve_normal_form_relations(a, b, c, d)
        form = extrinsic.shape_operator_normal_form(
            np.diag([a, b, c, d]), np.diag([p, q, r, 0.0])
        )
        assert form.kind == "generic"
        assert form.residual < 1e-12
        assert form.positive
        assert sorted([form.p, form.q, form.r]) == pytest.approx(sorted([p, q, r]))

    def test_solver_frozen_value(self):
        assert extrinsic.solve_normal_form_relations(2.0, 1.0, 1.0, 1.0) == \
            pytest.approx((1.0, 1.0, 1.0))

    def test_solver_relations_hold(self):
        a, b, c, d = 3.0, 1.0, 0.5, 0.25
        p, q, r = extrinsic.solve_normal_form_relations(a, b, c, d)
        assert abs(p * q - (a * d - b * c)) < 1e-12
        assert abs(p * r - (a * c - b * d)) < 1e-12
        assert abs(q * r - (a * b - c * d)) < 1e-12

    def test_solver_rejects_degenerate(self):
        with pytest.raises(NotNormalForm):
            extrinsic.solve_normal_form_relations(1.0, 1.0, 1.0, 1.0)

    def test_rows_classify_as_points_do(self):
        # the appendix's rows path: one extrinsics_at call for every point,
        # the same kind, eps and residual as one point at a time
        imm = immersions.build_immersion("schwarzschild", 4)
        pts = geometry.sample_points(imm, 10, seed=3)
        forms = extrinsic.classify_rows(imm, pts)
        ones = [extrinsic.classify_at(imm, x) for x in pts]
        assert [(f.kind, f.eps, f.residual) for f in forms] == \
            [(f.kind, f.eps, f.residual) for f in ones]
        with pytest.raises(BadDimension):
            extrinsic.classify_at(imm, pts[:2])

    def test_batched_slots_are_the_rows_own(self):
        # classify_rows reads every row's slots from one batched eigenbasis;
        # they and the operators in it are each row's own to the byte, so
        # its forms are the pairs' one at a time
        imm = immersions.build_immersion("schwarzschild", 4)
        for seed in range(30):
            pe = extrinsic.extrinsics_at(
                imm, geometry.sample_points(imm, 10, seed=seed))
            batch = extrinsic._principal_curvatures(pe.alpha)
            for r in range(10):
                one = extrinsic._principal_curvatures(pe.alpha[r:r + 1])
                for got, want in zip(batch, one, strict=True):
                    assert np.array_equal(got[r:r + 1], want), seed
            forms = extrinsic.classify_rows(imm, pe.x)
            assert forms == [extrinsic.shape_operator_normal_form(*a)
                             for a in pe.alpha], seed

    def test_float_scan_is_the_array_scan(self, rng):
        # the gauge scan on Python floats gives every field of the array
        # scan it replaced, as a float, on the appendix's slots and on
        # random pairs made to land in each kind
        imm = immersions.build_immersion("schwarzschild", 4)
        slots = [k.T for seed in range(30) for k in
                 extrinsic._principal_curvatures(extrinsic.extrinsics_at(
                     imm, geometry.sample_points(imm, 10, seed=seed)).alpha)[0]]
        kinds = ["epsilon"] * len(slots)
        for kind in ("epsilon", "generic"):
            for _ in range(200):
                a, b, c, d, p, q, r = rng.standard_normal(7)
                eps = rng.choice([1.0, -1.0])
                d1, d2 = ((np.array([b, eps * b, a, eps * a]),
                           np.array([p, q, 0.0, 0.0])) if kind == "epsilon"
                          else (np.array([a, b, c, d]),
                                np.array([p, q, r, 0.0])))
                gauge, order = rng.uniform(-math.pi, math.pi), rng.permutation(4)
                cg, sg = math.cos(gauge), math.sin(gauge)
                slots.append(((cg * d1 - sg * d2)[order],
                              (sg * d1 + cg * d2)[order]))
                kinds.append(kind)
        # a row that is not finite has NaN slots
        slots.append((np.full(4, np.nan), np.full(4, np.nan)))
        kinds.append("unclassified")
        for (d1, d2), kind in zip(slots, kinds):
            want = normal_form_numpy(d1, d2)
            got = extrinsic._normal_form(d1, d2)
            assert type(got) is type(want) and want.kind == kind
            for field in dataclasses.fields(want):
                x, y = getattr(got, field.name), getattr(want, field.name)
                if isinstance(y, str):
                    assert x == y
                else:
                    assert float(x) == float(y), (field.name, x, y)

    def test_classify_needs_dim_four(self):
        imm, x = schw_point(5)
        with pytest.raises(BadDimension):
            extrinsic.classify_at(imm, x)

    def test_shape_guard(self):
        with pytest.raises(BadDimension):
            extrinsic.shape_operator_normal_form(np.eye(3), np.eye(3))


def normal_form_numpy(d1, d2):
    """The gauge scan on 4-element arrays that _normal_form replaced."""
    scale = max(1.0, float(np.max(np.abs(d1))), float(np.max(np.abs(d2))))
    best = None
    for k in range(4):
        beta = math.atan2(d2[k], d1[k])
        cb, sb = math.cos(beta), math.sin(beta)
        e1 = cb * d1 + sb * d2
        e2 = -sb * d1 + cb * d2
        zeros = int(np.sum(np.abs(e2) <= extrinsic.TOL_FORM * scale))
        cand = (zeros, -k, beta, e1, e2)
        if best is None or cand[:2] > best[:2]:
            best = cand
    zeros, _, beta, e1, e2 = best
    order = np.argsort(-np.abs(e2), kind="stable")
    i, j = int(order[0]), int(order[1])
    k, l = int(order[2]), int(order[3])
    if zeros >= 2:
        pairings = {eps: extrinsic._pairing(e1, k, l, i, j, eps)
                    for eps in (1, -1)}
        eps = 1 if pairings[1] <= pairings[-1] else -1
        a, b = float(e1[k]), float(e1[i])
        p, q = float(e2[i]), float(e2[j])
        rel = abs(p * q - eps * (a * a - b * b))
        leak = float(np.max(np.abs(e2[[k, l]])))
        return extrinsic.EpsilonForm(a=a, b=b, p=p, q=q, eps=eps, beta=beta,
                                     residual=max(pairings[eps], rel, leak))
    if zeros == 1:
        z = int(order[3])
        dd = float(e1[z])
        best_fit = None
        for perm in itertools.permutations(int(s) for s in order[:3]):
            sa, sb_, sc = perm
            a, b, c = float(e1[sa]), float(e1[sb_]), float(e1[sc])
            p, q, r = float(e2[sa]), float(e2[sb_]), float(e2[sc])
            res = max(abs(p * q - (a * dd - b * c)),
                      abs(p * r - (a * c - b * dd)),
                      abs(q * r - (a * b - c * dd)))
            if best_fit is None or res < best_fit[0]:
                best_fit = (res, perm)
                chosen = (a, b, c, dd, p, q, r)
        a, b, c, dd, p, q, r = chosen
        pos = (a * dd - b * c) * (a * c - b * dd) * (a * b - c * dd) > 0.0
        return extrinsic.GenericForm(a=a, b=b, c=c, d=dd, p=p, q=q, r=r,
                                     beta=beta, residual=best_fit[0],
                                     positive=bool(pos))
    return extrinsic.Unclassified(reason="no gauge produced a zero slot")


class TestDupin:
    def test_rotational_eta_parallel_along_leaf(self):
        imm, x = schw_point(5)
        assert dupin_rows(imm, at(imm, x)) < 1e-6

    def test_product_eta_parallel_along_leaf(self):
        imm = immersions.clifford_immersion(5, 1.0)
        x = np.full(5, 0.9) + 0.1 * np.arange(5)
        assert dupin_rows(imm, at(imm, x)) < 1e-8


class TestScan:
    def test_rotational_report(self):
        imm = immersions.schwarzschild_immersion(5)
        rep = extrinsic.extrinsic_scan(imm, n_points=4, seed=1)
        assert rep.flat_normal_max < 1e-12
        assert rep.gauss_max < 5e-5
        assert rep.codazzi_max < 1e-6
        assert rep.u_dim_mode == 3
        assert rep.umbilical_residual_max < 1e-8
        assert rep.dupin_max < 1e-6
        assert rep.profile_max < 1e-10
        assert rep.umbilical_points == 4
        d = rep.as_dict()
        assert d["label"] == "schwarzschild-n5"
        assert d["codim"] == 2
        assert d["provenance"] == "frame-algebra"

    def test_composite_report_flags_split(self):
        imm = immersions.flat_base_composite(7, 2)
        rep = extrinsic.extrinsic_scan(imm, n_points=3, seed=1)
        assert rep.u_dim_mode == 3
        assert rep.u_dim_mode != imm.dim - 2
        assert rep.flat_normal_max < 1e-12
        assert rep.gauss_max < 5e-5

    @pytest.mark.parametrize("family,n,m,n_extrinsics,n_jets", [
        ("schwarzschild", 5, None, 1, 2),
        ("flat-torus-composite", 7, 2, 1, 4),
        ("extra-codim", 7, 2, 1, 5),
        ("clifford", 5, None, 1, 2),
    ])
    def test_one_evaluation_per_point(self, monkeypatch, family, n, m,
                                      n_extrinsics, n_jets):
        # the sample's own evaluation is one jet call and one extrinsics_at
        # call; Gauss reads the chart and makes none; Codazzi makes one per
        # block, and Dupin reads Codazzi's derivative, making none. The
        # warp is sampled once a jet call on a rotational member, 2 rows a
        # point, and Gauss and the profile check read the first call's
        # sample; a composite's jet reads a closed-form sigma, so Gauss's
        # chart call samples once; a product has no warp
        imm = immersions.build_immersion(family, n, m=m,
                                         rho=1.0 if family == "clifford"
                                         else None)
        pes = count_calls(monkeypatch, extrinsic, "extrinsics_at")
        jets = count_calls(monkeypatch, immersions.Immersion, "jet")
        sampled, samples_at = [], warpfunc.WarpSolution.samples_at

        def counted(self, ts):
            sampled.append(len(ts))
            return samples_at(self, ts)

        monkeypatch.setattr(warpfunc.WarpSolution, "samples_at", counted)
        rep = extrinsic.extrinsic_scan(imm, n_points=12)
        d = imm.dim
        per_point = 3 * 2 * d ** 3 * imm.ambient_dim   # codazzi_residual's
        blocks = geometry._block_slices(12, per_point)
        assert pes == [1] == [n_extrinsics]
        assert jets == [1 + len(blocks)] == [n_jets]
        if imm.base == "rotational":
            assert sampled == [2 * 12] + [
                2 * 2 * d * len(range(12)[b]) for b in blocks]
        else:
            assert sampled == ([12] if imm.base != "product" else [])
        # the same work as one call per point: own row and Codazzi's
        # stencil, umbilical or not
        out = rep.as_dict()
        assert (out["jet_calls"], out["jet_rows"]) == (n_jets,
                                                       12 * (1 + 2 * d))

    def test_nan_commutator_propagates(self):
        alpha = np.zeros((2, 2, 3, 3))
        alpha[1, 1, 0, 0] = np.nan
        flat = extrinsic.flat_normal_residual(alpha)
        assert flat[0] == 0.0 and math.isnan(flat[1])

    @pytest.mark.parametrize("family,n,m", [("schwarzschild", 5, None),
                                            ("flat-torus-composite", 7, 2)])
    def test_one_umbilical_structure_call(self, monkeypatch, family, n, m):
        # the whole sample goes through umbilical_structure at once, and
        # Dupin, read from Codazzi's derivative, needs no second grouping
        imm = immersions.build_immersion(family, n, m=m)
        calls = count_calls(monkeypatch, extrinsic, "umbilical_structure")
        rep = extrinsic.extrinsic_scan(imm, n_points=12)
        assert calls == [1]
        assert (rep.umbilical_points > 0) == (family == "schwarzschild")


class TestFailClosed:
    def test_nan_row_stays_in_its_row(self):
        imm = immersions.clifford_immersion(5, 1.0)
        X = geometry.sample_points(geometry.PullbackChart(imm), 4, seed=2)
        X[1] = np.nan
        pe = extrinsic.extrinsics_at(imm, X)
        assert np.all(np.isnan(pe.alpha[1]))
        assert np.all(np.isfinite(np.delete(pe.alpha, 1, axis=0)))
        for res in (*extrinsic.gauss_ricci_residual(imm, pe),
                    *extrinsic.codazzi_residual(imm, pe)):
            assert math.isnan(res[1])
            assert np.all(np.isfinite(np.delete(res, 1)))

    def poisoned_scan_input(self):
        imm = immersions.build_immersion("schwarzschild", 5)
        pts = geometry.sample_points(geometry.PullbackChart(imm), 6, seed=0)
        bad = pts[2]
        # no other sample point shares the poisoned neighbourhood
        assert np.sum(np.all(np.abs(pts - bad) < 0.01, axis=1)) == 1
        return poisoned(imm, bad)

    def test_nan_row_fails_every_maximum(self):
        rep = extrinsic.extrinsic_scan(self.poisoned_scan_input(),
                                       n_points=6, seed=0)
        assert rep.n_points == 6
        for key in ("flat_normal_max", "gauss_max", "codazzi_max",
                    "umbilical_residual_max", "dupin_max", "profile_max"):
            assert math.isnan(getattr(rep, key)), key
        assert rep.u_dim_mode == 3

    def test_nan_row_fails_umbilical_max(self):
        # every Clifford row is umbilical and passes alone, so only the
        # poisoned row can make the maximum NaN
        imm = immersions.build_immersion("clifford", 5, rho=1.0)
        pts = geometry.sample_points(imm, 6, seed=0)
        assert np.sum(np.all(np.abs(pts - pts[2]) < 0.01, axis=1)) == 1
        rep = extrinsic.extrinsic_scan(imm, n_points=6, seed=0)
        assert rep.umbilical_points == 6
        assert rep.umbilical_residual_max < 1e-10
        rep = extrinsic.extrinsic_scan(poisoned(imm, pts[2]), n_points=6,
                                       seed=0)
        assert rep.umbilical_points == 6
        assert math.isnan(rep.umbilical_residual_max)

    def test_nan_row_fails_verify_extrinsic(self, monkeypatch, capsys):
        imm = self.poisoned_scan_input()
        monkeypatch.setattr(immersions, "build_immersion",
                            lambda *args, **kwargs: imm)
        code = cli.main(["verify-extrinsic", "--family", "schwarzschild",
                         "--n", "5", "--points", "6", "--seed", "0"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        failed = {c["name"] for c in doc["checks"] if c["status"] == "fail"}
        assert {"flat-normal-bundle", "gauss-equation", "codazzi",
                "umbilical-residuals", "dupin-leaf",
                "profile-normal-blocks"} <= failed


def gram_and_derivatives(J, H):
    """J^T J and its first derivatives H_ki^T J_j + J_i^T H_kj at [:, k, i,
    j], formed as realization forms them."""
    dgram = H.transpose(0, 2, 3, 1) @ J[:, None]
    return np.swapaxes(J, 1, 2).copy() @ J, dgram + np.swapaxes(dgram, 2, 3)


def dense_realization(J, H, f, df):
    """realization's two parts by their definition: the worst of |J^T J - g|
    and of |d(J^T J) - dg| over 1 + max |g|, with g = diag f and dg = diag
    df dense matrices."""
    rows, d = f.shape
    g, dg = np.zeros((rows, d, d)), np.zeros((rows, d, d, d))
    for i in range(d):
        g[:, i, i] = f[:, i]
        dg[:, :, i, i] = df[:, :, i]
    gram, dgram = gram_and_derivatives(J, H)
    scale = 1.0 + np.max(np.abs(g), axis=(1, 2))
    return (np.max(np.abs(gram - g), axis=(1, 2)) / scale,
            np.max(np.abs(dgram - dg), axis=(1, 2, 3)) / scale)


def gauss_rows(imm, pe):
    return extrinsic.gauss_ricci_residual(imm, pe)[0]


def realization_rows(imm, pe):
    return extrinsic.gauss_ricci_residual(imm, pe)[1]


def codazzi_rows(imm, pe):
    return extrinsic.codazzi_residual(imm, pe)[0]


def dupin_rows(imm, pe):
    return extrinsic.codazzi_residual(imm, pe)[1]


# (family, n, m): a rotational immersion with umbilical points and Dupin,
# and a dim-7 composite whose Codazzi blocks hold four points each
BATCH_CASES = [("schwarzschild", 5, None), ("flat-torus-composite", 7, 2)]


def codazzi_reference(imm, pe, h=extrinsic._STEP):
    """Codazzi defect max |PiN (d_a H_bc - d_b H_ac)|, d the central
    difference, with PiN = I - J (J^T J)^-1 J^T, by einsum over the
    unflattened indices, every row in one jet call."""
    n, d, amb = len(pe.x), imm.dim, imm.ambient_dim
    E = np.stack([h * np.eye(d), -h * np.eye(d)], axis=1).reshape(-1, d)
    H = imm.jet((pe.x[:, None] + E).reshape(-1, d))[2]
    H = H.reshape(n, d, 2, amb, d, d)
    dH = (H[:, :, 0] - H[:, :, 1]) / (2.0 * h)
    Gi = np.linalg.inv(np.einsum("nxa,nxb->nab", pe.J, pe.J))
    PiN = np.eye(amb) - np.einsum("nxa,nab,nyb->nxy", pe.J, Gi, pe.J)
    defect = np.einsum("nxy,naybc->naxbc", PiN, dH - np.swapaxes(dH, 1, 3))
    return np.max(np.abs(defect), axis=(1, 2, 3, 4))


# (family, n, m, rho): every BATCH_CASES member and every member report scans
CODAZZI_MEMBERS = sorted({case + (None,) for case in BATCH_CASES} | {
    (family, n, m, rho) for family, row in geometry.FAMILIES.items()
    for n, m, rho in row.scan}, key=str)


@pytest.mark.parametrize("family,n,m,rho", CODAZZI_MEMBERS)
def test_scan_computes_each_invariant_once(monkeypatch, family, n, m, rho):
    # Gauss reads the chart's closed-form Ricci, so the scan runs no
    # intrinsic curvature core, and it reports the one commutator the
    # common eigenbasis was checked against
    imm = immersions.build_immersion(family, n, m=m, rho=rho)
    pe = extrinsic.extrinsics_at(imm, geometry.sample_points(imm, 12, seed=5))
    flat = extrinsic.flat_normal_residual(pe.alpha)
    cores = count_calls(monkeypatch, geometry, "diagonal_curvature")
    commutators = count_calls(monkeypatch, extrinsic, "flat_normal_residual")
    dense = count_calls(monkeypatch, geometry, "_on_diagonal")
    # and it asks the chart for (f, df, ric) alone, never for d2f
    shapes, jet = [], type(imm.chart).metric_jet

    def recorded(self, X, *args):
        out = jet(self, X, *args)
        shapes.append([a.shape[1:] for a in out])
        return out

    monkeypatch.setattr(type(imm.chart), "metric_jet", recorded)
    rep = extrinsic.extrinsic_scan(imm, n_points=12, seed=5)
    assert cores == [0] and commutators == [1] and dense == [0]
    assert shapes == [[(n,), (n, n), (n,)]]
    assert rep.flat_normal_max == np.max(flat)


@pytest.mark.parametrize("family,n,m,rho", CODAZZI_MEMBERS)
def test_codazzi_matches_reference(family, n, m, rho):
    # the reference forms PiN from the inverse metric, not the normal
    # frame, and contracts in another order; the two differ by rounding
    # (at most 2.8e-17 here), under the central difference's rounding
    # floor of about eps |H| / h
    imm = immersions.build_immersion(family, n, m=m, rho=rho)
    pe = extrinsic.extrinsics_at(imm, geometry.sample_points(imm, 12, seed=5))
    got = codazzi_rows(imm, pe)
    want = codazzi_reference(imm, pe)
    assert np.all(want > 0.0)
    assert np.max(np.abs(got - want)) <= 1e-11


def dupin_reference(imm, pe, h=extrinsic._STEP):
    """Dupin as the normal part of eta's velocity along the last chart axis:
    eta as an ambient vector at the two leaf neighbours of every row, from
    a second extrinsics_at and umbilical_structure call, differenced
    centrally."""
    n = len(pe.x)
    Y = np.concatenate([pe.x, pe.x])
    Y[:n, -1] += h
    Y[n:, -1] -= h
    nb = extrinsic.extrinsics_at(imm, Y)
    eta = np.einsum("nc,nca->na", extrinsic.umbilical_structure(nb.alpha).eta,
                    nb.N)
    vel = (eta[:n] - eta[n:]) / (2.0 * h)
    return np.linalg.norm(np.einsum("nca,na->nc", pe.N, vel), axis=1)


def leaf_rotated(imm, rate):
    """imm with H's normal part turned in the oriented normal plane by the
    angle rate * x_L, L the last chart axis; J is unchanged, so Gauss,
    realization and the umbilical algebra still hold, but eta turns along
    the leaf. Codimension 2 only."""
    def jet_fn(X, order, fn=imm.jet_fn):
        if order == 1:
            return fn(X, order)   # v and J are the true ones
        v, J, H = fn(X, order)
        d = J.shape[2]
        E = np.linalg.qr(J, mode="complete")[0][:, :, d:]   # normal frame
        # K turns the normal plane by a right angle, with (J, w, K w)
        # positively oriented whichever frame E is
        s = np.sign(np.linalg.det(np.concatenate([J, E], axis=2)))
        K = s[:, None, None] * (E[:, :, 1:] @ np.swapaxes(E[:, :, :1], 1, 2)
                                - E[:, :, :1] @ np.swapaxes(E[:, :, 1:], 1, 2))
        Hn = np.einsum("nxy,nyij->nxij", E @ np.swapaxes(E, 1, 2), H)
        th = rate * X[:, -1, None, None, None]
        return v, J, (H + (np.cos(th) - 1.0) * Hn
                      + np.sin(th) * np.einsum("nxy,nyij->nxij", K, H))
    return dataclasses.replace(imm, jet_fn=jet_fn)


def leaf_stretched(imm, k):
    """imm in the chart x_L -> x_L + k x_L^2 of its last axis: the same
    immersed points, with a leaf metric g_LL that varies along the leaf,
    so Gamma^e_LL alpha_eL = (d_L g_LL / 2) eta no longer vanishes."""
    def jet_fn(X, order, fn=imm.jet_fn):
        Y = X.copy()
        Y[:, -1] += k * X[:, -1] ** 2
        jet = [a.copy() for a in fn(Y, order)]
        J = jet[1]
        s = (1.0 + 2.0 * k * X[:, -1])[:, None]   # d y_L / d x_L
        if order == 2:
            H = jet[2]
            H[:, :, -1, :] *= s[:, :, None]
            H[:, :, :, -1] *= s[:, :, None]
            H[:, :, -1, -1] += 2.0 * k * J[:, :, -1]
        J[:, :, -1] *= s
        return tuple(jet)
    return dataclasses.replace(imm, jet_fn=jet_fn)


# (family, n, m, rho): every member report scans for the umbilical splitting
DUPIN_MEMBERS = sorted(
    (family, n, m, rho) for family, row in geometry.FAMILIES.items()
    if row.u_dim_codim2 for n, m, rho in row.scan)


@pytest.mark.parametrize("stretch,bound", [(0.0, 1e-10), (0.1, 1e-7)])
@pytest.mark.parametrize("family,n,m,rho", DUPIN_MEMBERS)
def test_dupin_matches_reference(family, n, m, rho, stretch, bound):
    # in the family's chart both sit at rounding level on the split rows
    # (at most 1.7e-12 and 4.1e-12), far below Codazzi's 1e-8 truncation
    # and tol_dupin. Stretched along the leaf, g_LL varies there, and
    # Dupin needs the Christoffel term Codazzi leaves out: without it this
    # would read |d_L g_LL| |eta| / (2 g_LL), 2e-2 to 0.26. Both measures
    # then read central-difference truncation (at most 4.4e-9 and 1.5e-9)
    imm = leaf_stretched(immersions.build_immersion(family, n, m=m, rho=rho),
                         stretch)
    pe = extrinsic.extrinsics_at(imm, geometry.sample_points(imm, 12, seed=5))
    assert np.all(extrinsic.umbilical_structure(pe.alpha).split)
    assert np.max(dupin_rows(imm, pe)) <= bound
    assert np.max(dupin_reference(imm, pe)) <= bound


@pytest.mark.parametrize("family,n,rho", [("schwarzschild", 5, None),
                                          ("clifford", 5, 1.0)])
def test_dupin_catches_leaf_rotation(family, n, rho):
    # turning H's normal part by 0.05 x_L makes eta turn along the leaf:
    # the reference reads 0.05 |eta| (1.5e-2 to 4.4e-2 here), the new
    # Dupin agrees with it to 3.2e-11 relative (a margin of about 30 under
    # the bound), and Codazzi reads 3.5e-2 to 6.9e-2 on every row
    imm = leaf_rotated(immersions.build_immersion(family, n, rho=rho), 0.05)
    pe = extrinsic.extrinsics_at(imm, geometry.sample_points(imm, 12, seed=5))
    assert np.all(extrinsic.umbilical_structure(pe.alpha).split)
    codazzi, dupin = extrinsic.codazzi_residual(imm, pe)
    want = dupin_reference(imm, pe)
    assert np.all(want > 1e-2)
    assert np.max(np.abs(dupin - want) / want) <= 1e-9
    assert np.min(dupin) > cli.TOLERANCES["tol_dupin"]
    assert np.min(codazzi) > cli.TOLERANCES["tol_codazzi"]


def normal_scaled(imm, k):
    """imm with H's normal part scaled by k and J unchanged: alpha is k
    times the true one at every point, so the frame algebra, realization
    and, on a Ricci-flat member, Gauss still hold, but H is no longer the
    Hessian of one map."""
    def jet_fn(X, order, fn=imm.jet_fn):
        if order == 1:
            return fn(X, order)   # v and J are the true ones
        v, J, H = fn(X, order)
        Q = np.linalg.qr(J)[0]   # tangent frame
        Hn = H - np.einsum("nxt,nyt,nyij->nxij", Q, Q, H)
        return v, J, H + (k - 1.0) * Hn
    return dataclasses.replace(imm, jet_fn=jet_fn)


@pytest.mark.parametrize("args", [
    ["--family", "flat-torus-composite", "--n", "7", "--m", "2"],
    ["--family", "clifford", "--n", "5", "--rho", "1.0"],
    ["--family", "schwarzschild", "--n", "5"],
], ids=["flat-torus-composite-n7-m2", "clifford-n5", "schwarzschild-n5"])
def test_codazzi_catches_scaled_normal_hessian(monkeypatch, capsys, args):
    # Codazzi differences H itself, so a scaled normal part shows as the
    # a-b antisymmetrization of alpha_ae Gamma^e_bc (6.4e-3 to 1.1e-2
    # here); on the flat composite no other check fails
    build = immersions.build_immersion
    monkeypatch.setattr(immersions, "build_immersion",
                        lambda *a, **kw: normal_scaled(build(*a, **kw), 1.01))
    assert cli.main(["verify-extrinsic", *args]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["codazzi"]["status"] == "fail"
    assert checks["codazzi"]["value"] > 1e-3


class TestBatching:
    @pytest.mark.parametrize("family,n,m", BATCH_CASES)
    def test_rows_match_one_row_at_a_time(self, family, n, m):
        imm = immersions.build_immersion(family, n, m=m)
        pts = geometry.sample_points(geometry.PullbackChart(imm), 12, seed=5)
        pe = extrinsic.extrinsics_at(imm, pts)
        ones = [extrinsic.extrinsics_at(imm, x) for x in pts]
        alpha = np.concatenate([one.alpha for one in ones])
        assert np.max(np.abs(pe.alpha - alpha)) <= 1e-12 * np.max(np.abs(alpha))
        # relative tolerance, absolute tolerance; Gauss, Dupin and the
        # profile check sit at the roundoff floor
        checks = [(codazzi_rows, 1e-12, 0.0),
                  (gauss_rows, 0.0, 1e-12), (realization_rows, 0.0, 1e-12),
                  (dupin_rows, 0.0, 1e-11)]
        if imm.base == "rotational":
            checks.append((extrinsic.profile_normal_shape_residual, 0.0, 1e-11))
        for fn, rel, tol in checks:
            batched = fn(imm, pe)
            rowwise = np.concatenate([fn(imm, one) for one in ones])
            assert batched.shape == (12,)
            assert np.all(np.abs(batched - rowwise)
                          <= rel * np.abs(rowwise) + tol), fn.__name__

    # and the unit sphere, whose jet builds a level per angle and so peaks
    # closest to the budget
    @pytest.mark.parametrize("family,n,m", BATCH_CASES + [("sphere", 5, None)])
    def test_codazzi_blocks_stay_within_budget(self, monkeypatch, family, n, m):
        # 41 points: 15, 15 and 11 in Schwarzschild n5's blocks, ten blocks
        # of 4 and one of 1 in the composite's, 18, 18 and 5 in the sphere's
        imm = immersions.build_immersion(family, n, m=m)
        pts = geometry.sample_points(geometry.PullbackChart(imm), 41, seed=5)
        pe = extrinsic.extrinsics_at(imm, pts)
        calls = []
        jet = immersions.Immersion.jet

        def sized(self, X, order=2):
            out = jet(self, X, order)
            calls.append((len(X), max(a.size for a in out)))
            return out

        monkeypatch.setattr(immersions.Immersion, "jet", sized)
        tracemalloc.start()
        try:
            extrinsic.codazzi_residual(imm, pe)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(rows for rows, _ in calls) == 41 * 2 * n
        assert len(calls) > 1
        assert max(size for _, size in calls) <= geometry._BLOCK_ELEMENTS
        # every array alive at a block's peak counts, not the largest alone,
        # and the blocks are not sized so far under the budget as to waste it
        assert 4 * geometry._BLOCK_ELEMENTS <= peak <= 8 * geometry._BLOCK_ELEMENTS

    @pytest.mark.parametrize("family,n,m,count", [
        ("schwarzschild", 5, None, 200), ("flat-torus-composite", 7, 2, 80),
        ("sphere", 4, None, 400)])
    def test_gauss_blocks_stay_within_budget(self, monkeypatch, family, n, m,
                                             count):
        # Gauss's blocks count 4 d**3 a point, not the exact pass's count:
        # blocks of 163 and 37 points at dim 5, 59 and 21 at dim 7, 320 and
        # 80 on the sphere n4
        imm = immersions.build_immersion(family, n, m=m)
        pe = extrinsic.extrinsics_at(
            imm, geometry.sample_points(imm, count, seed=5))
        sizes, jet = [], imm.chart.metric_jet

        def sized(X, *args):
            sizes.append(len(X))
            return jet(X, *args)

        monkeypatch.setattr(imm.chart, "metric_jet", sized)
        tracemalloc.start()
        try:
            extrinsic.gauss_ricci_residual(imm, pe)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(sizes) == count and len(sizes) == 2
        assert 4 * geometry._BLOCK_ELEMENTS <= peak <= 8 * geometry._BLOCK_ELEMENTS
