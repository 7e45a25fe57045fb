"""Immersion tests.

The decisive checks are cross-module: analytic pullbacks must reproduce the
closed-form chart metrics to machine precision, and every jet must agree
with central differences of the level below it (Jacobian vs values, Hessian
vs Jacobians). After that, intrinsic verification runs on the pullback
metric itself, which exercises the full path from jets to curvature.
"""

import math
import warnings

import numpy as np
import pytest

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
        table = immr.meta["profile"]
        assert table.psi[0] == 0.0
        assert np.all(np.diff(table.psi) >= 0.0)

    def test_psi_derivative_consistency(self):
        immr = im.schwarzschild_immersion(5)
        table = immr.meta["profile"]
        h = 1e-5
        for t in (0.5, 0.9, 1.4):
            fd1 = (table.psi_at(t + h)[0] - table.psi_at(t - h)[0]) / (2.0 * h)
            _, dpsi, d2psi = table.jet_at(np.array([t]))
            assert fd1 == pytest.approx(dpsi[0], abs=1e-9)
            fd2 = (table.jet_at(np.array([t + h]))[1][0]
                   - table.jet_at(np.array([t - h]))[1][0]) / (2.0 * h)
            assert fd2 == pytest.approx(d2psi[0], rel=1e-5, abs=1e-7)

    def test_margin_degeneracy_guard(self):
        immr = im.schwarzschild_immersion(5)
        table = immr.meta["profile"]
        with pytest.raises(SingularChartPoint):
            table.jet_at(np.array([3e-6]))

    def test_one_dense_output_call_per_jet(self, monkeypatch):
        from warpgeo import warpfunc as wf

        immr = im.schwarzschild_immersion(5)
        table = immr.meta["profile"]
        sol = immr.meta["warp"]
        X = immr.sample_box.mean(axis=1) + np.zeros((3, immr.dim))
        X[:, 0] = (0.5, 0.9, 1.4)
        t = X[:, 0]
        phi, dphi, d2phi, d3phi = sol.samples_at(t)
        psi = table.psi_at(t)
        _, dpsi, d2psi = table.jet_at(t)
        calls = []
        samples_at = wf.WarpSolution.samples_at

        def counted(self, ts):
            calls.append(len(np.atleast_1d(ts)))
            return samples_at(self, ts)

        monkeypatch.setattr(wf.WarpSolution, "samples_at", counted)
        v, j, h = immr.jet(X)
        assert calls == [9]
        st = np.sin(X[:, 1])
        vf = im.fiber_jet(immr.meta["fiber"], X[:, 2:])[0]
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


class TestRotationalImmersions:
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
        V = immr.value_batch(X)
        phi = immr.meta["warp"].samples_at(X[:, 0])[0]
        dphi = immr.meta["warp"].samples_at(X[:, 0])[1]
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
        with pytest.raises(BadRange):
            im.rotational_immersion(sol, gm.round_fiber(3, 2.0), (0.4, 1.2),
                                    label="bad", rho=0.0)

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
        immc = im.flat_base_composite(7, 2)
        s = immc.meta["s"]
        r = immc.meta["fiber"].ambient_radius()
        assert s * r == pytest.approx(1.0, abs=1e-14)

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
        fib = gm.offset_torus_fiber(7, 2)
        bad = gm.FiberSpec(dims=fib.dims,
                           radii=(fib.radii[0], fib.radii[1] * 1.05),
                           offset=fib.offset)
        immc = im.warped_composite("flat", bad, label="perturbed", rho=0.0)
        chart = gm.PullbackChart(immc, label="pb")
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
            im.warped_composite("torus", gm.unit_torus_fiber(7, 2))


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


class TestExport:
    def test_csv_deterministic(self, tmp_path):
        immr = im.clifford_immersion(5, 1.0)
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        im.export_points_csv(immr, str(f1), count=32, seed=1)
        im.export_points_csv(immr, str(f2), count=32, seed=1)
        assert f1.read_text() == f2.read_text()
        lines = f1.read_text().strip().split("\n")
        assert len(lines) == 33
        assert lines[0].split(",")[:2] == ["x0", "x1"]
        assert lines[0].split(",")[-1] == "f%d" % (immr.ambient_dim - 1)

    def test_csv_values_lie_on_product(self, tmp_path):
        immr = im.clifford_immersion(5, 1.0)
        f = tmp_path / "pts.csv"
        im.export_points_csv(immr, str(f), count=16, seed=2)
        rows = [r.split(",") for r in f.read_text().strip().split("\n")[1:]]
        V = np.array([[float(x) for x in r[immr.dim:]] for r in rows])
        # first block is S^2(1), second is S^3(sqrt 2)
        assert np.max(np.abs(np.linalg.norm(V[:, :3], axis=1) - 1.0)) < 1e-12
        assert np.max(np.abs(np.linalg.norm(V[:, 3:], axis=1) - math.sqrt(2.0))) < 1e-12

    def test_obj_mesh_counts(self, tmp_path):
        immr = im.schwarzschild_immersion(5)
        f = tmp_path / "slice.obj"
        im.export_surface_obj(immr, str(f), res=8)
        text = f.read_text()
        assert text.count("\nv ") + text.startswith("v ") == 64
        assert text.count("\nf ") == 2 * 49

    def test_obj_guards(self, tmp_path):
        immr = im.schwarzschild_immersion(5)
        with pytest.raises(BadRange):
            im.export_surface_obj(immr, str(tmp_path / "x.obj"), coords=(1, 1))
        with pytest.raises(BadRange):
            im.export_surface_obj(immr, str(tmp_path / "x.obj"), axes=(0, 1, 99))
