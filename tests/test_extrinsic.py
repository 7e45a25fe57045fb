import math

import numpy as np
import pytest

from warpgeo import extrinsic, geometry, immersions, warpfunc
from warpgeo.errors import (
    BadDimension,
    BadRange,
    DegenerateDelta,
    FrameMismatch,
    NotFlatNormal,
    NotNormalForm,
    RankDeficient,
)


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
        raise FrameMismatch(
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
        assert np.max(np.abs(pe.Q.T @ pe.Q - np.eye(5))) < 1e-12
        assert np.max(np.abs(pe.N @ pe.N.T - np.eye(2))) < 1e-12
        assert np.max(np.abs(pe.N @ pe.Q)) < 1e-12
        assert pe.dim == 5 and pe.codim == 2

    def test_b_maps_chart_to_frame(self):
        imm, x = schw_point(5)
        pe = extrinsic.extrinsics_at(imm, x)
        _, J, _ = imm.jet(x[None])
        assert np.max(np.abs(J[0] @ pe.B - pe.Q)) < 1e-12

    def test_alpha_symmetric(self):
        imm, x = schw_point(4)
        pe = extrinsic.extrinsics_at(imm, x)
        assert np.max(np.abs(pe.alpha - np.transpose(pe.alpha, (0, 2, 1)))) < 1e-13

    def test_rank_deficient_at_polar_degeneracy(self):
        imm = immersions.build_immersion("sphere", 3)
        with pytest.raises(RankDeficient):
            extrinsic.extrinsics_at(imm, np.array([1e-13, 1.0, 1.0]))

    def test_invariants_under_frame_rotations(self, rng):
        imm, x = schw_point(5)
        pe = extrinsic.extrinsics_at(imm, x)
        um0 = extrinsic.umbilical_structure(pe.alpha, rho=imm.rho)
        flat0 = extrinsic.flat_normal_residual(pe.alpha)
        for _ in range(5):
            oc = random_orthogonal(rng, pe.codim)
            ot = random_orthogonal(rng, pe.dim)
            rot = np.einsum("mn,npq->mpq", oc, pe.alpha)
            rot = np.einsum("pi,mpq,qj->mij", ot, rot, ot)
            um = extrinsic.umbilical_structure(rot, rho=imm.rho)
            assert um.group_sizes == um0.group_sizes
            assert abs(np.linalg.norm(um.eta) - np.linalg.norm(um0.eta)) < 1e-10
            assert extrinsic.flat_normal_residual(rot) < flat0 + 1e-12
            for key, val in um0.residuals.items():
                assert abs(um.residuals[key] - val) < 1e-9


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
        s = sol.sample_at(0.9)
        a, b, c = extrinsic.profile_delta(s)
        w2 = 1.0 - s.dphi ** 2
        norm2 = a * a + b * b + c * c * 1.0
        # |delta|^2 = a^2 + b^2 + c^2 with |F| = 1, and it equals w^2
        assert abs(norm2 - w2) < 1e-14

    def test_degenerate_when_slope_reaches_one(self):
        sol = warpfunc.integrate(warpfunc.linear_params(6), 2.0, 1e-3)
        with pytest.raises(DegenerateDelta):
            extrinsic.profile_delta(sol.sample_at(1.5))

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
        assert um.u_dim == n - 2
        assert um.group_sizes == (n - 2, 1, 1)
        sol = imm.meta["warp"]
        s = sol.sample_at(x[0])
        w = math.sqrt(1.0 - s.dphi ** 2)
        assert abs(np.linalg.norm(um.eta) - w / s.phi) < 1e-10
        for val in um.residuals.values():
            assert abs(val) < 1e-10

    @pytest.mark.parametrize("n,rho,expect", [(5, 1.0, 1.0 / math.sqrt(2.0)),
                                              (6, 2.0, math.sqrt(2.0 / 3.0))])
    def test_product_substructure(self, n, rho, expect):
        imm = immersions.clifford_immersion(n, rho)
        x = np.full(n, 0.9) + 0.1 * np.arange(n)
        pe = extrinsic.extrinsics_at(imm, x)
        um = extrinsic.umbilical_structure(pe.alpha, rho=rho)
        assert um.u_dim == n - 2
        assert um.group_sizes == (n - 2, 2)
        assert abs(np.linalg.norm(um.eta) - expect) < 1e-12
        for val in um.residuals.values():
            assert abs(val) < 1e-12

    def test_composite_fiber_splits(self):
        # Einstein but not (n-2)-umbilical: the in-sphere normal of the
        # product torus takes different constants on the two factors.
        imm = immersions.flat_base_composite(7, 2)
        x = np.array([1.3, 0.4, 0.9, 1.1, 0.8, 1.2, 2.0])
        pe = extrinsic.extrinsics_at(imm, x)
        um = extrinsic.umbilical_structure(pe.alpha, rho=0.0)
        assert um.group_sizes == (3, 2, 2)
        assert um.u_dim != imm.dim - 2
        base_rows = um.kappa[np.argsort(np.abs(um.kappa).sum(axis=1))[:2]]
        assert np.max(np.abs(base_rows)) < 1e-12

    def test_extra_codim_not_umbilical(self):
        imm = immersions.extra_codim_immersion(7, 2)
        x = np.array([0.9, 1.0, 0.9, 1.1, 0.8, 1.2, 2.0])
        pe = extrinsic.extrinsics_at(imm, x)
        assert pe.codim == 3
        assert extrinsic.flat_normal_residual(pe.alpha) < 1e-12
        um = extrinsic.umbilical_structure(pe.alpha, rho=0.0)
        assert um.u_dim != imm.dim - 2

    def test_coarse_tolerance_merges_everything(self):
        imm, x = schw_point(5)
        pe = extrinsic.extrinsics_at(imm, x)
        um = extrinsic.umbilical_structure(pe.alpha, tol_group=1e6)
        assert um.group_sizes == (5,)
        assert um.residuals is None


class TestSimdiag:
    def test_recovers_shared_eigenbasis(self, rng):
        v = random_orthogonal(rng, 6)
        d1 = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 3.0])
        d2 = np.array([0.5, 0.5, -1.0, 4.0, 2.5, 0.0])
        m1 = v @ np.diag(d1) @ v.T
        m2 = v @ np.diag(d2) @ v.T
        w = extrinsic.simdiag([m1, m2])
        for m in (m1, m2):
            off = w.T @ m @ w
            off = off - np.diag(np.diag(off))
            assert np.max(np.abs(off)) < 1e-9

    def test_rejects_non_commuting(self):
        m1 = np.diag([1.0, 2.0])
        m2 = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NotFlatNormal):
            extrinsic.simdiag([m1, m2])


class TestGaussEquation:
    @pytest.mark.parametrize("make", [
        lambda: immersions.schwarzschild_immersion(5),
        lambda: immersions.clifford_immersion(5, 1.0),
        lambda: immersions.flat_base_composite(7, 2),
        lambda: immersions.extra_codim_immersion(7, 2),
    ])
    def test_extrinsic_ricci_matches_intrinsic(self, make):
        imm = make()
        x = np.full(imm.dim, 0.9) + 0.05 * np.arange(imm.dim)
        assert extrinsic.gauss_ricci_residual(imm, at(imm, x)) < 5e-5

    def test_sectional_of_product_planes(self):
        # the frame aligns with coordinates because the pullback is diagonal
        imm = immersions.clifford_immersion(5, 1.0)
        x = np.full(5, 0.9) + 0.1 * np.arange(5)
        pe = extrinsic.extrinsics_at(imm, x)
        assert abs(gauss_sectional(pe.alpha, 0, 1) - 1.0) < 1e-12
        assert abs(gauss_sectional(pe.alpha, 0, 2)) < 1e-12
        assert abs(gauss_sectional(pe.alpha, 2, 3) - 0.5) < 1e-12

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_sectional_of_rotational_planes(self, n):
        imm, x = schw_point(n)
        pe = extrinsic.extrinsics_at(imm, x)
        s = imm.meta["warp"].sample_at(x[0])
        base = gauss_sectional(pe.alpha, 0, 1)
        assert abs(base - (n - 2.0) * s.d2phi / s.phi) < 1e-11
        mixed = gauss_sectional(pe.alpha, 0, 2)
        assert abs(mixed - (-s.d2phi / s.phi)) < 1e-12
        if n > 4:
            c = imm.meta["warp"].params.c
            fib = gauss_sectional(pe.alpha, 2, 3)
            assert abs(fib - (-c / s.phi ** (n - 1.0))) < 1e-12

    def test_ricci_from_alpha_closed_form(self):
        # S^2 x S^3 at radii (1, sqrt 2): Ric = g in the orthonormal frame
        imm = immersions.clifford_immersion(5, 1.0)
        x = np.full(5, 1.1)
        pe = extrinsic.extrinsics_at(imm, x)
        assert np.max(np.abs(extrinsic.gauss_ricci(pe.alpha) - np.eye(5))) < 1e-12


class TestCodazzi:
    def test_one_jet_call(self, monkeypatch):
        imm, x = schw_point(5)
        pe = at(imm, x)
        jets = count_calls(monkeypatch, immersions.Immersion, "jet")
        extrinsic.codazzi_residual(imm, pe)
        assert jets == [1]

    @pytest.mark.parametrize("make", [
        lambda: immersions.schwarzschild_immersion(5),
        lambda: immersions.flat_base_composite(7, 2),
    ])
    def test_immersions_satisfy_codazzi(self, make):
        imm = make()
        x = np.full(imm.dim, 0.9) + 0.05 * np.arange(imm.dim)
        assert extrinsic.codazzi_residual(imm, at(imm, x)) < 1e-6

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
        with pytest.raises(FrameMismatch):
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
        s = imm.meta["warp"].sample_at(x[0])
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

    def test_classify_needs_dim_four(self):
        imm, x = schw_point(5)
        with pytest.raises(BadDimension):
            extrinsic.classify_at(imm, x)

    def test_shape_guard(self):
        with pytest.raises(BadDimension):
            extrinsic.shape_operator_normal_form(np.eye(3), np.eye(3))


class TestDupin:
    def test_rotational_eta_parallel_along_leaf(self):
        imm, x = schw_point(5)
        assert extrinsic.dupin_residual(imm, at(imm, x)) < 1e-6

    def test_product_eta_parallel_along_leaf(self):
        imm = immersions.clifford_immersion(5, 1.0)
        x = np.full(5, 0.9) + 0.1 * np.arange(5)
        assert extrinsic.dupin_residual(imm, at(imm, x)) < 1e-8


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
        ("schwarzschild", 5, None, 36, 60),
        ("flat-torus-composite", 7, 2, 12, 36),
    ])
    def test_one_evaluation_per_point(self, monkeypatch, family, n, m,
                                      n_extrinsics, n_jets):
        # a point's own evaluation, its Gauss stencil and its Codazzi
        # displacements are one jet call each; Dupin evaluates the two leaf
        # neighbours of every point where it runs
        imm = immersions.build_immersion(family, n, m=m)
        pes = count_calls(monkeypatch, extrinsic, "extrinsics_at")
        jets = count_calls(monkeypatch, immersions.Immersion, "jet")
        rep = extrinsic.extrinsic_scan(imm, n_points=12)
        u = rep.umbilical_points
        assert pes == [12 + 2 * u] == [n_extrinsics]
        assert jets == [3 * 12 + 2 * u] == [n_jets]

    def test_nan_commutator_propagates(self):
        alpha = np.zeros((2, 3, 3))
        alpha[1, 0, 0] = np.nan
        assert math.isnan(extrinsic.flat_normal_residual(alpha))
