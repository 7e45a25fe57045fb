"""Immersion tests.

The decisive checks are cross-module: analytic pullbacks must reproduce the
closed-form chart metrics to machine precision, and every jet must agree
with central differences of the level below it (Jacobian vs values, Hessian
vs Jacobians). After that, intrinsic verification runs on the pullback
metric itself, which exercises the full path from jets to curvature.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from warpgeo import extrinsic
from warpgeo import geometry as gm
from warpgeo import immersions as im
from warpgeo.errors import (
    BadDimension,
    BadRange,
    OutOfDomain,
    SingularChartPoint,
)

TOL_EINSTEIN = 5e-5


def family_chart(family, n, **member):
    return gm.chart_for_family(family, n, **member)[0]


def fd_jacobian(fn, X, eps=1e-6):
    base = fn(X)
    out = np.zeros(base.shape + (X.shape[1],))
    for a in range(X.shape[1]):
        Xp, Xm = X.copy(), X.copy()
        Xp[:, a] += eps
        Xm[:, a] -= eps
        out[..., a] = (fn(Xp) - fn(Xm)) / (2.0 * eps)
    return out


class TestSphereJet:
    def test_values_on_unit_sphere(self, rng):
        Y = rng.uniform(0.3, 2.5, size=(20, 4))
        v, _, _ = im.sphere_jet(Y)
        assert np.max(np.abs(np.linalg.norm(v, axis=1) - 1.0)) < 1e-14

    def test_jacobian_matches_difference_quotients(self, rng):
        Y = rng.uniform(0.4, 2.2, size=(5, 3))
        v, j, _ = im.sphere_jet(Y)
        fd = fd_jacobian(lambda q: im.sphere_jet(q)[0], Y)
        assert np.max(np.abs(fd - j)) < 1e-9

    def test_hessian_matches_difference_quotients(self, rng):
        Y = rng.uniform(0.4, 2.2, size=(5, 3))
        _, _, h = im.sphere_jet(Y)
        fd = fd_jacobian(lambda q: im.sphere_jet(q)[1], Y)
        assert np.max(np.abs(fd - h)) < 1e-8

    def test_circle_case(self):
        v, j, h = im.sphere_jet(np.array([[0.7]]))
        assert v[0] == pytest.approx([math.cos(0.7), math.sin(0.7)])
        assert j[0, :, 0] == pytest.approx([-math.sin(0.7), math.cos(0.7)])
        assert h[0, :, 0, 0] == pytest.approx([-math.cos(0.7), -math.sin(0.7)])


class TestFiberJet:
    def test_offset_torus_on_unit_sphere(self, rng):
        fib = gm.offset_torus_fiber(7, 2)
        Y = rng.uniform(0.4, 2.0, size=(10, fib.dim))
        v, _, _ = im.fiber_jet(fib, Y)
        assert v.shape == (10, 8)
        assert np.max(np.abs(np.linalg.norm(v, axis=1) - 1.0)) < 1e-14
        # offset occupies the final ambient coordinate
        assert np.all(v[:, -1] == fib.offset)

    def test_pullback_matches_metric_diag(self, rng):
        # J^T J of the embedding must equal the closed-form product metric
        fib = gm.unit_torus_fiber(8, 3)
        Y = rng.uniform(0.4, 2.0, size=(6, fib.dim))
        v, j, _ = im.fiber_jet(fib, Y)
        G = np.einsum("nai,naj->nij", j, j)
        diag = fib.metric_diag(Y)
        for r in range(6):
            assert np.max(np.abs(G[r] - np.diag(diag[r]))) < 1e-13

    def test_jet_consistency(self, rng):
        fib = gm.offset_torus_fiber(6, 2)
        Y = rng.uniform(0.4, 2.0, size=(4, fib.dim))
        v, j, h = im.fiber_jet(fib, Y)
        fdj = fd_jacobian(lambda q: im.fiber_jet(fib, q)[0], Y)
        fdh = fd_jacobian(lambda q: im.fiber_jet(fib, q)[1], Y)
        assert np.max(np.abs(fdj - j)) < 1e-9
        assert np.max(np.abs(fdh - h)) < 1e-8

    def test_angle_count_guard(self):
        fib = gm.round_fiber(3)
        with pytest.raises(BadDimension):
            im.fiber_jet(fib, np.zeros((2, 2)))


class TestProfileTable:
    def test_non_finite_query_is_out_of_domain(self):
        # checked before the grid index is cast, so no RuntimeWarning leaks
        immr = im.build_immersion("schwarzschild", 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (math.nan, math.inf, -math.inf, 1e300):
                with pytest.raises(OutOfDomain):
                    immr.jet(np.array([[t, 1.0, 1.0, 1.0, 1.0]]))

    def test_psi_starts_at_zero_and_increases(self):
        immr = im.schwarzschild_immersion(5)
        table = im.ProfileTable(immr.chart.warp)
        assert table.psi[0] == 0.0
        assert np.all(np.diff(table.psi) >= 0.0)

    def test_psi_derivative_consistency(self):
        immr = im.schwarzschild_immersion(5)
        table = im.ProfileTable(immr.chart.warp)
        h = 1e-5
        for t in (0.5, 0.9, 1.4):
            (psi, dpsi, d2psi), _ = table.jet(np.array([t - h, t, t + h]))
            fd1 = (psi[2] - psi[0]) / (2.0 * h)
            assert fd1 == pytest.approx(dpsi[1], abs=1e-9)
            fd2 = (dpsi[2] - dpsi[0]) / (2.0 * h)
            assert fd2 == pytest.approx(d2psi[1], rel=1e-5, abs=1e-7)

    def test_margin_degeneracy_guard(self):
        # phi'(3e-6) is about 3e-6, past the turning guard, but the margin
        # 1 - phi'^2 - phi''^2 is below 1e-10
        immr = im.schwarzschild_immersion(5)
        table = im.ProfileTable(immr.chart.warp)
        with pytest.raises(SingularChartPoint, match="margin"):
            table.jet(np.array([3e-6]))

    def test_one_dense_output_call_per_jet(self, monkeypatch):
        from warpgeo import warpfunc as wf

        immr = im.schwarzschild_immersion(5)
        table = im.ProfileTable(immr.chart.warp)
        sol = immr.chart.warp
        X = immr.sample_box.mean(axis=1) + np.zeros((3, immr.dim))
        X[:, 0] = (0.5, 0.9, 1.4)
        t = X[:, 0]
        phi, dphi, d2phi, d3phi = sol.samples_at(t)
        (psi, dpsi, d2psi), _ = table.jet(t)
        calls = []
        samples_at = wf.WarpSolution.samples_at

        def counted(self, ts):
            calls.append(len(np.atleast_1d(ts)))
            return samples_at(self, ts)

        monkeypatch.setattr(wf.WarpSolution, "samples_at", counted)
        v, j, h = immr.jet(X)
        # the points and their Simpson midpoints; psi' at the grid nodes
        # comes from the table
        assert calls == [6]
        st = np.sin(X[:, 1])
        vf = im.fiber_jet(immr.chart.fiber, X[:, 2:])[0]
        assert np.array_equal(v[:, 0], psi)
        assert np.array_equal(v[:, 1], dphi * st)
        assert np.array_equal(v[:, 3:], phi[:, None] * vf)
        assert np.array_equal(j[:, 0, 0], dpsi)
        assert np.array_equal(j[:, 1, 0], d2phi * st)
        assert np.array_equal(h[:, 0, 0, 0], d2psi)
        assert np.array_equal(h[:, 1, 0, 0], d3phi * st)

    def test_negative_margin_rejected(self):
        # the sin family has margin identically zero; any numerical dip
        # below is clipped, but a genuinely infeasible family must raise
        from warpgeo import warpfunc as wf

        p = wf.WarpParams(n=5, eps=1.0, rho=0.0, t0=0.0, phi0=0.5, dphi0=1.2)
        sol = wf.integrate(p, 1.0, step=1e-3)
        with pytest.raises(BadRange):
            im.ProfileTable(sol)


def rotational_jet_reference(imm, X):
    """The rotational 2-jet written out block by block, before the map
    became the composite over its profile surface."""
    table, fiber = im.ProfileTable(imm.chart.warp), imm.chart.fiber
    nrow, dim, amb = X.shape[0], imm.dim, imm.ambient_dim
    t, th = X[:, 0], X[:, 1]
    (psi, dpsi, d2psi), (phi, dphi, d2phi, d3phi) = table.jet(t)
    vf, jf, hf = im.fiber_jet(fiber, X[:, 2:])
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


def _profile_base_jet(table, T, U):
    """The profile surface (psi, phi' sin U, phi' cos U, phi) in R^4, packed
    as the hand-written base jet did."""
    (psi, dpsi, d2psi), (phi, dphi, d2phi, d3phi) = table.jet(T)
    su, cu, z = np.sin(U), np.cos(U), np.zeros_like(T)
    v = np.stack([psi, dphi * su, dphi * cu, phi], axis=1)
    j = np.moveaxis(np.array([
        [dpsi, z], [d2phi * su, dphi * cu], [d2phi * cu, -dphi * su],
        [dphi, z]]), -1, 0)
    h = np.moveaxis(np.array([
        [[d2psi, z], [z, z]],
        [[d3phi * su, d2phi * cu], [d2phi * cu, -dphi * su]],
        [[d3phi * cu, -d2phi * su], [-d2phi * su, -dphi * cu]],
        [[d2phi, z], [z, z]]]), -1, 0)
    return v, j, h


def _flat_base_jet(T, U):
    n = T.shape[0]
    v = np.stack([U, T], axis=1)
    j = np.zeros((n, 2, 2))
    j[:, 0, 1] = 1.0
    j[:, 1, 0] = 1.0
    return v, j, np.zeros((n, 2, 2, 2))


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


_BASE_JETS = {"flat": _flat_base_jet, "sphere": _sphere_base_jet,
              "cylinder": _cylinder_base_jet}


def two_column_jet_reference(imm, X):
    """The composite (w, s sigma h2(y)) over a base surface (w, sigma) given
    by its full 2-jet, sigma's derivatives taken in both base coordinates,
    as the warped products were assembled before sigma became a function
    of t alone."""
    fiber = imm.chart.fiber
    if imm.base == "rotational":
        vb, jb, hb = _profile_base_jet(im.ProfileTable(imm.chart.warp),
                                       X[:, 0], X[:, 1])
    else:
        vb, jb, hb = _BASE_JETS[imm.base](X[:, 0], X[:, 1])
    s = 1.0 / fiber.ambient_radius()
    k, nrow = vb.shape[1], X.shape[0]
    vf, jf, hf = im.fiber_jet(fiber, X[:, 2:])
    sig, dsig, d2sig = s * vb[:, -1], s * jb[:, -1], s * hb[:, -1]
    v = np.concatenate([vb[:, :-1], sig[:, None] * vf], axis=1)
    j = np.zeros((nrow, imm.ambient_dim, imm.dim))
    j[:, : k - 1, :2] = jb[:, :-1]
    j[:, k - 1:, 2:] = sig[:, None, None] * jf
    h = np.zeros((nrow, imm.ambient_dim, imm.dim, imm.dim))
    h[:, : k - 1, :2, :2] = hb[:, :-1]
    h[:, k - 1:, :2, :2] = vf[:, :, None, None] * d2sig[:, None]
    h[:, k - 1:, 2:, 2:] = sig[:, None, None, None] * hf
    for a in range(2):
        j[:, k - 1:, a] = dsig[:, a, None] * vf
        h[:, k - 1:, a, 2:] = h[:, k - 1:, 2:, a] = dsig[:, a, None, None] * jf
    return v, j, h


def perturbed_flat_composite():
    """The flat composite with its second torus radius off by 5 percent,
    so s R = 1 with s != 1: still a warped product, but not Einstein."""
    fib = gm.offset_torus_fiber(7, 2)
    bad = gm.FiberSpec(dims=fib.dims,
                       radii=(fib.radii[0], fib.radii[1] * 1.05),
                       offset=fib.offset)
    chart = dataclasses.replace(
        family_chart("flat-torus-composite", 7, m=2), fiber=bad,
        label="perturbed")
    return im.warped_immersion(chart, rho=0.0, base="flat")


_WARPED_MEMBERS = [
    ("schwarzschild", 4, None), ("schwarzschild", 5, None),
    ("schwarzschild", 6, None), ("extra-codim", 7, 2), ("extra-codim", 8, 3),
    ("flat-torus-composite", 7, 2), ("round-torus-composite", 7, 2),
    ("cylinder-torus-composite", 7, 2)]


@pytest.mark.parametrize("member", _WARPED_MEMBERS + ["perturbed"],
                         ids=lambda m: m if isinstance(m, str) else
                         "%s-n%d" % m[:2])
def test_warped_product_equals_two_column_reference(member):
    # sigma as a function of t alone reproduces the two-column assembly
    # value for value (signed zeros aside), at 24 and 204 rows
    if member == "perturbed":
        imm = perturbed_flat_composite()
        assert 1.0 / imm.chart.fiber.ambient_radius() != 1.0
    else:
        family, n, m = member
        imm = im.build_immersion(family, n, m=m)
    for count, seed in ((24, 0), (204, 3)):
        X = gm.sample_points(imm, count, seed=seed)
        for got, want in zip(imm.jet(X), two_column_jet_reference(imm, X)):
            assert np.array_equal(got, want)


class TestRotationalImmersions:
    @pytest.mark.parametrize("family,n,m", [
        ("schwarzschild", 4, None), ("schwarzschild", 5, None),
        ("schwarzschild", 6, None), ("extra-codim", 7, 2),
        ("extra-codim", 8, 3)])
    def test_composite_equals_reference(self, family, n, m):
        # the composite over the profile surface with s = 1 is the
        # hand-written rotational map value for value (signed zeros aside)
        immr = im.build_immersion(family, n, m=m)
        X = gm.sample_points(immr, 16, seed=3)
        for got, want in zip(immr.jet(X), rotational_jet_reference(immr, X)):
            assert np.array_equal(got, want)

    def test_pullback_equals_chart_metric(self):
        for n in (4, 5, 6):
            immr = im.schwarzschild_immersion(n)
            chart = family_chart("schwarzschild", n)
            X = gm.sample_points(chart, 5, seed=1)
            pull = gm.PullbackChart(immr).metric_batch(X)
            dev = np.max(np.abs(pull - chart.metric_batch(X)))
            assert dev < 1e-12

    def test_extra_codim_pullback(self):
        for n, m in ((7, 2), (8, 3)):
            immr = im.extra_codim_immersion(n, m)
            chart = family_chart("extra-codim", n, m=m)
            X = gm.sample_points(chart, 5, seed=2)
            pull = gm.PullbackChart(immr).metric_batch(X)
            dev = np.max(np.abs(pull - chart.metric_batch(X)))
            assert dev < 1e-12

    def test_ambient_dimensions(self):
        # codimension 2 for the one-sphere fiber, 3 for the torus fiber
        assert im.schwarzschild_immersion(5).ambient_dim == 7
        assert im.schwarzschild_immersion(6).ambient_dim == 8
        assert im.extra_codim_immersion(7, 2).ambient_dim == 10

    def test_axis_distance_invariant(self, rng):
        immr = im.schwarzschild_immersion(5)
        X = gm.sample_points(family_chart("schwarzschild", 5), 6, seed=4)
        V = immr.jet(X, 1)[0]
        phi, dphi = immr.chart.warp.samples_at(X[:, 0])[:2]
        # fiber block norm is phi, profile circle radius is phi'
        assert np.max(np.abs(np.linalg.norm(V[:, 3:], axis=1) - phi)) < 1e-12
        assert np.max(np.abs(np.linalg.norm(V[:, 1:3], axis=1) - np.abs(dphi))) < 1e-12

    def test_jet_consistency(self):
        immr = im.extra_codim_immersion(7, 2)
        X = gm.sample_points(family_chart("extra-codim", 7, m=2), 3, seed=5)
        v, j, h = immr.jet(X)
        fdj = fd_jacobian(lambda q: immr.jet(q)[0], X)
        fdh = fd_jacobian(lambda q: immr.jet(q)[1], X)
        # dense-output noise of order 1e-13 is amplified by the 2e-6 step
        assert np.max(np.abs(fdj - j)) < 5e-7
        assert np.max(np.abs(fdh - h)) < 5e-6

    def test_turning_point_guard(self):
        immr = im.schwarzschild_immersion(5)
        X = np.array([[1e-7, 1.0, 1.0, 1.0, 1.0]])
        with pytest.raises(SingularChartPoint):
            immr.jet(X)

    def test_fiber_must_sit_on_unit_sphere(self):
        from warpgeo import warpfunc as wf

        sol = wf.integrate(wf.schwarzschild_params(5), 1.5, step=1e-3)
        chart = gm.WarpedChart(warp=sol,
                               fiber=gm.FiberSpec(dims=(3,), radii=(2.0,)),
                               t_range=(0.4, 1.2), label="bad")
        with pytest.raises(BadRange):
            im.warped_immersion(chart, rho=0.0, base="rotational")

    def test_intrinsic_verification_on_pullback(self):
        chart = gm.PullbackChart(im.schwarzschild_immersion(5), label="pb")
        rep = gm.verify_einstein(chart, rho=0.0, n_points=8)
        assert rep.einstein_max < TOL_EINSTEIN
        assert rep.sectional_spread > 1e-2


class TestProductImmersions:
    def test_clifford_pullback_matches_chart(self):
        immr = im.clifford_immersion(5, 1.0)
        chart = family_chart("clifford", 5, rho=1.0)
        X = gm.sample_points(chart, 6, seed=3)
        pull = gm.PullbackChart(immr).metric_batch(X)
        dev = np.max(np.abs(pull - chart.metric_batch(X)))
        assert dev < 1e-13

    def test_clifford_is_einstein_through_pullback(self):
        for n, rho in ((5, 1.0), (6, 2.0)):
            chart = gm.PullbackChart(im.clifford_immersion(n, rho), label="pb")
            rep = gm.verify_einstein(chart, rho=rho, n_points=8)
            assert rep.einstein_max < TOL_EINSTEIN

    def test_unit_sphere_control(self):
        immr = im.build_immersion("sphere", 4)
        chart = gm.PullbackChart(immr, label="pb")
        rep = gm.verify_einstein(chart, rho=3.0, n_points=8)
        assert rep.einstein_max < TOL_EINSTEIN
        assert abs(rep.sectional_min - 1.0) < 1e-4
        assert abs(rep.sectional_max - 1.0) < 1e-4


class TestComposites:
    def test_pullbacks_match_charts(self):
        cases = [
            (im.build_immersion(family, 7, m=2), family_chart(family, 7, m=2))
            for family in ("flat-torus-composite", "round-torus-composite",
                           "cylinder-torus-composite")
        ]
        for immc, chart in cases:
            X = gm.sample_points(chart, 5, seed=6)
            pull = gm.PullbackChart(immc).metric_batch(X)
            dev = np.max(np.abs(pull - chart.metric_batch(X)))
            assert dev < 1e-10

    def test_calibration_hits_unit_product(self):
        # s R = 1 puts the fiber block s sigma h2(y), every row after the
        # flat base's u, at distance sigma = t from the origin
        immc = im.flat_base_composite(7, 2)
        X = gm.sample_points(immc, 8, seed=2)
        V = immc.jet(X, 1)[0]
        assert np.max(np.abs(np.linalg.norm(V[:, 1:], axis=1) - X[:, 0])) < 1e-14

    def test_flat_composite_is_einstein(self):
        chart = gm.PullbackChart(im.flat_base_composite(7, 2), label="pb")
        rep = gm.verify_einstein(chart, rho=0.0, n_points=8)
        assert rep.einstein_max < TOL_EINSTEIN
        assert rep.sectional_spread > 1e-2

    def test_mismatched_composites_fail_einstein(self):
        sphere = gm.PullbackChart(
            im.build_immersion("round-torus-composite", 7, m=2), label="pb")
        rep = gm.verify_einstein(sphere, rho=6.0, n_points=6)
        assert rep.einstein_max > 0.2
        cyl = gm.PullbackChart(
            im.build_immersion("cylinder-torus-composite", 7, m=2), label="pb")
        rep2 = gm.verify_einstein(cyl, rho=0.0, n_points=6)
        assert rep2.einstein_max > 0.05

    def test_perturbed_fiber_detected(self):
        # same construction, second torus radius off by 5 percent: the
        # pullback is still a warped product but the fiber is not Einstein
        chart = gm.PullbackChart(perturbed_flat_composite(), label="pb")
        rep = gm.verify_einstein(chart, rho=0.0, n_points=6)
        assert rep.einstein_max > 1e-3

    def test_jet_consistency(self):
        immc = im.build_immersion("round-torus-composite", 7, m=2)
        chart = family_chart("round-torus-composite", 7, m=2)
        X = gm.sample_points(chart, 3, seed=7)
        v, j, h = immc.jet(X)
        fdj = fd_jacobian(lambda q: immc.jet(q)[0], X)
        fdh = fd_jacobian(lambda q: immc.jet(q)[1], X)
        assert np.max(np.abs(fdj - j)) < 1e-8
        assert np.max(np.abs(fdh - h)) < 1e-7

    def test_unknown_base_rejected(self):
        with pytest.raises(BadRange):
            im.warped_immersion(
                family_chart("flat-torus-composite", 7, m=2), 0.0, "torus")


class TestBuilderDispatch:
    def test_families(self):
        assert im.build_immersion("schwarzschild", 5).dim == 5
        assert im.build_immersion("clifford", 6, rho=2.0).dim == 6
        assert im.build_immersion("flat-torus-composite", 7, m=2).dim == 7
        assert im.build_immersion("extra-codim", 7, m=2).ambient_dim == 10

    def test_guards(self):
        with pytest.raises(BadRange):
            im.build_immersion("unknown", 5)
        with pytest.raises(BadRange):
            im.build_immersion("clifford", 5)
        with pytest.raises(BadRange):
            im.build_immersion("extra-codim", 7)

    def test_wrong_coordinate_width(self):
        immr = im.build_immersion("schwarzschild", 5)
        with pytest.raises(BadDimension):
            immr.jet(np.zeros((1, 4)))


# every immersion family's members, the perturbed flat composite last
_ORDER_MEMBERS = [
    ("sphere", 3, None, None), ("sphere", 5, None, None),
    ("sphere", 7, None, None), ("clifford", 5, None, 1.0),
    ("clifford", 6, None, 2.0)] + [
    (family, n, m, None) for family, n, m in _WARPED_MEMBERS] + ["perturbed"]


def recording(imm):
    """imm with a jet_fn that records the order of every call."""
    orders = []

    def jet_fn(X, order, fn=imm.jet_fn):
        orders.append(order)
        return fn(X, order)
    return dataclasses.replace(imm, jet_fn=jet_fn), orders


class TestJetOrder:
    @pytest.mark.parametrize("member", _ORDER_MEMBERS, ids=lambda m: (
        m if isinstance(m, str) else
        "%s-n%d" % m[:2] + ("-m%d" % m[2] if m[2] else "")))
    def test_order_one_is_the_value_and_jacobian(self, member):
        # order 1 forms no Hessian at any level, and its v and J are the
        # order-2 call's to the byte
        if member == "perturbed":
            imm = perturbed_flat_composite()
        else:
            family, n, m, rho = member
            imm = im.build_immersion(family, n, m=m, rho=rho)
        for count in (1, 24, 204):
            X = gm.sample_points(imm, count, seed=count)
            first, second = imm.jet(X, 1), imm.jet(X)
            assert len(first) == 2 and len(second) == 3
            for got, want in zip(first, second):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("order", [0, 3])
    def test_other_orders_rejected(self, order):
        imm = im.build_immersion("schwarzschild", 5)
        X = gm.sample_points(imm, 2)
        with pytest.raises(BadRange):
            imm.jet(X, order)
        with pytest.raises(BadRange):
            im.fiber_jet(imm.chart.fiber, X[:, 2:], order)
        with pytest.raises(BadRange):
            im.sphere_jet(X[:, 2:], order=order)

    def test_sphere_and_fiber_jets_by_order(self, rng):
        fib = gm.offset_torus_fiber(7, 2)
        Y = rng.uniform(0.5, 2.5, size=(9, fib.dim))
        for jet in (lambda o: im.sphere_jet(Y, order=o),
                    lambda o: im.fiber_jet(fib, Y, o)):
            first, second = jet(1), jet(2)
            assert len(first) == 2 and len(second) == 3
            for got, want in zip(first, second):
                assert np.array_equal(got, want)

    def test_metric_and_values_ask_order_one(self):
        # the pullback's stencils and the exports read v or J alone
        imm, orders = recording(im.build_immersion("schwarzschild", 5))
        gm.verify_einstein(gm.PullbackChart(imm), 0.0, n_points=3)
        im.points_csv(imm, count=4)
        im.surface_obj(imm, res=3)
        assert len(orders) >= 3 and set(orders) == {1}

    def test_extrinsics_ask_order_two(self):
        imm, orders = recording(im.build_immersion("schwarzschild", 5))
        extrinsic.extrinsic_scan(imm, n_points=3)
        assert len(orders) >= 2 and set(orders) == {2}


class TestExport:
    def test_csv_deterministic(self):
        immr = im.clifford_immersion(5, 1.0)
        text = im.points_csv(immr, count=32, seed=1)
        assert text == im.points_csv(immr, count=32, seed=1)
        lines = text.strip().split("\n")
        assert len(lines) == 33
        assert lines[0].split(",")[:2] == ["x0", "x1"]
        assert lines[0].split(",")[-1] == "f%d" % (immr.ambient_dim - 1)

    def test_csv_values_lie_on_product(self):
        immr = im.clifford_immersion(5, 1.0)
        text = im.points_csv(immr, count=16, seed=2)
        rows = [r.split(",") for r in text.strip().split("\n")[1:]]
        V = np.array([[float(x) for x in r[immr.dim:]] for r in rows])
        # first block is S^2(1), second is S^3(sqrt 2)
        assert np.max(np.abs(np.linalg.norm(V[:, :3], axis=1) - 1.0)) < 1e-12
        assert np.max(np.abs(np.linalg.norm(V[:, 3:], axis=1) - math.sqrt(2.0))) < 1e-12

    def test_obj_mesh_counts(self):
        immr = im.schwarzschild_immersion(5)
        text = im.surface_obj(immr, res=8)
        assert text.count("\nv ") + text.startswith("v ") == 64
        assert text.count("\nf ") == 2 * 49

    def test_obj_guards(self):
        # the circle S^1 in R^2 has no third ambient axis to project to
        circle = im.build_immersion("sphere", 1)
        with pytest.raises(BadRange):
            im.surface_obj(circle, res=4)
