"""Intrinsic verification tests.

The finite-difference engine is validated against closed-form Christoffel
symbols and the unit sphere before it is trusted on anything else; the
Einstein checks then cross-validate ODE-level predictions (base curvature,
fiber constants) against curvature computed purely from chart metrics.
"""

import math

import numpy as np
import pytest

from warpgeo import geometry as gm
from warpgeo import warpfunc as wf
from warpgeo.errors import (
    BadDimension,
    BadRange,
    OutsideDomain,
    SingularChartPoint,
)

TOL_EINSTEIN = 5e-5


def family_chart(family, n, **member):
    return gm.chart_for_family(family, n, **member)[0]


class TestFiberSpec:
    def test_round_metric_diag(self):
        fib = gm.round_fiber(2)
        d = fib.metric_diag(np.array([[0.9, 2.0]]))[0]
        assert d[0] == 1.0
        assert d[1] == pytest.approx(math.sin(0.9) ** 2, abs=1e-15)

    def test_product_metric_diag_layout(self):
        fib = gm.FiberSpec(dims=(2, 3), radii=(2.0, 0.5))
        y = np.array([[0.7, 1.0, 1.1, 0.8, 2.0]])
        d = fib.metric_diag(y)[0]
        assert d[0] == 4.0
        assert d[1] == pytest.approx(4.0 * math.sin(0.7) ** 2)
        assert d[2] == 0.25
        assert d[3] == pytest.approx(0.25 * math.sin(1.1) ** 2)
        assert d[4] == pytest.approx(0.25 * math.sin(1.1) ** 2 * math.sin(0.8) ** 2)

    def test_pole_guard(self):
        fib = gm.round_fiber(3)
        with pytest.raises(SingularChartPoint):
            fib.metric_diag(np.array([[1e-4, 1.0, 1.0]]))
        # the final angle is an azimuth; zero is fine there
        fib.metric_diag(np.array([[1.0, 1.0, 0.0]]))

    def test_rejects_non_finite_radius_and_offset(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(BadRange):
                gm.FiberSpec(dims=(2, 3), radii=(1.0, bad))
            with pytest.raises(BadRange):
                gm.FiberSpec(dims=(2,), radii=(1.0,), offset=bad)

    def test_einstein_constant_round(self):
        # S^d(r) has Ricci constant (d-1)/r^2
        assert gm.round_fiber(4, 2.0).einstein_constant == pytest.approx(3.0 / 4.0)

    def test_einstein_constant_product(self):
        r1, r2 = gm.clifford_radii(6, 2.0)
        fib = gm.FiberSpec(dims=(2, 4), radii=(r1, r2))
        assert fib.einstein_constant == pytest.approx(2.0, abs=1e-14)
        lop = gm.FiberSpec(dims=(2, 4), radii=(r1, r2 * 1.1))
        assert lop.einstein_constant is None

    def test_clifford_radii_frozen(self):
        assert gm.clifford_radii(5, 1.0) == pytest.approx((1.0, math.sqrt(2.0)))
        assert gm.clifford_radii(6, 2.0) == pytest.approx(
            (math.sqrt(0.5), math.sqrt(1.5))
        )
        with pytest.raises(BadRange):
            gm.clifford_radii(5, -1.0)
        with pytest.raises(BadDimension):
            gm.clifford_radii(4, 1.0)

    def test_offset_torus_lands_on_unit_sphere(self):
        for n, m in ((6, 2), (7, 2), (8, 3), (9, 5)):
            fib = gm.offset_torus_fiber(n, m)
            assert fib.ambient_radius() == pytest.approx(1.0, abs=1e-14)
            assert fib.einstein_constant == pytest.approx(n - 3.0, abs=1e-12)
            # fits an n-dim warped product with eps = 1
            assert fib.dim == n - 2
            assert fib.einstein_constant / (n - 3.0) == pytest.approx(
                1.0, abs=1e-13)

    def test_unit_torus_constant_is_shifted(self):
        for n, m in ((6, 2), (7, 2), (8, 4)):
            fib = gm.unit_torus_fiber(n, m)
            assert fib.ambient_radius() == pytest.approx(1.0, abs=1e-14)
            assert fib.einstein_constant == pytest.approx(n - 4.0, abs=1e-12)
            assert fib.dim == n - 2
            assert fib.einstein_constant / (n - 3.0) == pytest.approx(
                (n - 4.0) / (n - 3.0), abs=1e-13
            )

    def test_torus_range_guards(self):
        with pytest.raises(BadRange):
            gm.offset_torus_fiber(7, 1)
        with pytest.raises(BadRange):
            gm.offset_torus_fiber(7, 4)
        with pytest.raises(BadDimension):
            gm.unit_torus_fiber(5, 2)

    def test_flat_torus_is_einstein_with_zero(self):
        fib = gm.FiberSpec(dims=(1, 1), radii=(1.0, 2.0))
        assert fib.einstein_constant == 0.0


class TestChristoffelOracle:
    def test_warped_chart_closed_form(self):
        # n=4 chart (t, theta, y1, y2), metric diag(1, phi'^2, phi^2, phi^2 sin^2 y1)
        family = family_chart("schwarzschild", 4)
        chart = gm.WarpedChart(warp=family.warp, fiber=family.fiber,
                               t_range=(0.4, 1.4))
        x = np.array([0.8, 1.3, 1.1, 2.0])
        gam = gm.curvature_fd(chart, x, h=1e-3).gamma
        s = chart.warp.sample_at(0.8)
        p, dp, d2p = s.phi, s.dphi, s.d2phi
        y1 = x[2]
        expected = {
            (0, 1, 1): -dp * d2p,
            (1, 0, 1): d2p / dp,
            (0, 2, 2): -p * dp,
            (2, 0, 2): dp / p,
            (0, 3, 3): -p * dp * math.sin(y1) ** 2,
            (3, 0, 3): dp / p,
            (2, 3, 3): -math.sin(y1) * math.cos(y1),
            (3, 2, 3): math.cos(y1) / math.sin(y1),
        }
        for (k, i, j), val in expected.items():
            assert gam[k, i, j] == pytest.approx(val, abs=3e-6), (k, i, j)
            assert gam[k, j, i] == pytest.approx(val, abs=3e-6)
        # entries with no lower-index pattern above must vanish
        assert gam[1, 2, 3] == pytest.approx(0.0, abs=1e-7)
        assert gam[0, 0, 0] == pytest.approx(0.0, abs=1e-7)

    def test_sphere_fiber_closed_form(self):
        chart = gm.ProductChart(gm.round_fiber(2), label="s2")
        x = np.array([0.9, 1.7])
        gam = gm.curvature_fd(chart, x, h=1e-3).gamma
        assert gam[0, 1, 1] == pytest.approx(-math.sin(0.9) * math.cos(0.9), abs=1e-6)
        assert gam[1, 0, 1] == pytest.approx(math.cos(0.9) / math.sin(0.9), abs=1e-6)


def plane_sectional(pc, u, v):
    """Curvature of the plane spanned by arbitrary vectors u, v."""
    num = np.einsum("abcd,a,b,c,d->", pc.riemann_low, u, v, u, v)
    gu = pc.g @ u
    gv = pc.g @ v
    return float(num / ((u @ gu) * (v @ gv) - (u @ gv) ** 2))


class TestCurvatureEngine:
    def test_unit_sphere_sign_pin(self):
        chart = gm.ProductChart(gm.round_fiber(2), label="s2")
        pc = gm.curvature_fd(chart, np.array([1.1, 0.7]))
        assert pc.sectional(0, 1) == pytest.approx(1.0, abs=1e-5)
        assert np.max(np.abs(pc.ricci - pc.g)) < 1e-5

    def test_scaled_sphere(self):
        # S^3(2): sectional 1/4, Ricci (2/4) g
        chart = gm.ProductChart(gm.round_fiber(3, 2.0), label="s3")
        pc = gm.curvature_fd(chart, np.array([1.2, 0.9, 2.1]))
        assert pc.sectional(0, 1) == pytest.approx(0.25, abs=1e-5)
        assert pc.sectional(1, 2) == pytest.approx(0.25, abs=1e-5)
        assert np.max(np.abs(pc.ricci - 0.5 * pc.g)) < 2e-5
        scalar = np.einsum("ab,ab->", np.linalg.inv(pc.g), pc.ricci)
        assert scalar == pytest.approx(3.0 * 2.0 * 0.25, abs=1e-4)

    def test_plane_invariance_under_span_change(self, rng):
        chart = family_chart("schwarzschild", 5)
        pc = gm.curvature_fd(chart, np.array([0.9, 1.0, 1.2, 0.9, 2.2]))
        u = np.zeros(5)
        v = np.zeros(5)
        u[0], v[2] = 1.0, 1.0
        k0 = plane_sectional(pc, u, v)
        assert k0 == pytest.approx(pc.sectional(0, 2), rel=1e-10)
        # same plane, different spanning vectors
        a = 1.7 * u + 0.4 * v
        b = -0.3 * u + 2.2 * v
        assert plane_sectional(pc, a, b) == pytest.approx(k0, rel=1e-9)

    def test_ricci_symmetry_defect_small(self):
        chart = family_chart("round", 5)
        pc = gm.curvature_fd(chart, np.array([0.7, 1.0, 1.1, 0.9, 2.0]))
        assert pc.ricci_sym_defect < 1e-7

    def test_bad_point_shape(self):
        chart = gm.ProductChart(gm.round_fiber(2))
        with pytest.raises(BadDimension):
            gm.metric_jet_fd(chart, np.array([1.0, 2.0, 3.0]))


class TestSpaceFormCharts:
    def test_round_chart_is_einstein(self):
        for n in (5, 6):
            rep = gm.verify_einstein(family_chart("round", n),
                                     rho=float(n - 1), n_points=10)
            assert rep.einstein_max < TOL_EINSTEIN
            assert rep.passed
            assert rep.sectional_min > 1.0 - 1e-3
            assert rep.sectional_max < 1.0 + 1e-3

    def test_flat_chart_is_ricci_flat_and_flat(self):
        rep = gm.verify_einstein(family_chart("flat", 6), rho=0.0, n_points=10)
        assert rep.einstein_max < TOL_EINSTEIN
        assert abs(rep.sectional_min) < 1e-4
        assert abs(rep.sectional_max) < 1e-4

    def test_richardson_estimate_tracks_fd_error(self):
        rep = gm.verify_einstein(family_chart("round", 5), rho=4.0, n_points=6,
                                 richardson=True)
        assert rep.richardson_max < 1e-3
        assert rep.richardson_max > 0.0


class TestEinsteinCharts:
    def test_clifford_products(self):
        for n, rho in ((5, 1.0), (6, 2.0)):
            rep = gm.verify_einstein(family_chart("clifford", n, rho=rho),
                                     rho=rho, n_points=10)
            assert rep.einstein_max < TOL_EINSTEIN
            # Einstein but nowhere near constant curvature: mixed planes are flat
            assert rep.sectional_spread > 0.3

    def test_schwarzschild_charts(self):
        for n in (5, 6):
            rep = gm.verify_einstein(family_chart("schwarzschild", n), rho=0.0,
                                     n_points=10)
            assert rep.einstein_max < TOL_EINSTEIN
            assert rep.sectional_spread > 1e-2

    def test_schwarzschild_sectional_cross_check(self):
        # FD plane curvatures against ODE-level closed forms:
        # base plane -(n-2)(n-3)c/(2 phi^{n-1}), mixed (n-3)c/(2 phi^{n-1}),
        # fiber-fiber -c/phi^{n-1}
        n = 5
        chart = family_chart("schwarzschild", n)
        x = np.array([0.9, 1.0, 1.2, 0.9, 2.2])
        pc = gm.curvature_fd(chart, x)
        phi = chart.warp.sample_at(x[0]).phi
        c = chart.warp.params.c
        base = -(n - 2.0) * (n - 3.0) * c / (2.0 * phi ** (n - 1.0))
        mixed = (n - 3.0) * c / (2.0 * phi ** (n - 1.0))
        fib = -c / phi ** (n - 1.0)
        assert pc.sectional(0, 1) == pytest.approx(base, rel=1e-4)
        assert pc.sectional(0, 2) == pytest.approx(mixed, rel=1e-4)
        assert pc.sectional(1, 3) == pytest.approx(mixed, rel=1e-4)
        assert pc.sectional(2, 4) == pytest.approx(fib, rel=1e-4)
        # Ricci-flatness is the weighted sum of these three values
        assert base + (n - 2.0) * mixed == pytest.approx(0.0, abs=1e-12)

    def test_base_plane_matches_ode_curvature(self):
        chart = family_chart("schwarzschild", 6)
        x = np.array([1.1, 0.8, 1.3, 1.0, 0.8, 2.0])
        pc = gm.curvature_fd(chart, x)
        s = chart.warp.sample_at(x[0])
        k_ode = wf.base_gauss_curvature(chart.warp.params, s)
        assert pc.sectional(0, 1) == pytest.approx(k_ode, rel=1e-4)

    def test_flat_torus_composite_is_einstein_not_flat(self):
        rep = gm.verify_einstein(
            family_chart("flat-torus-composite", 7, m=2), rho=0.0, n_points=8)
        assert rep.einstein_max < TOL_EINSTEIN
        assert rep.sectional_spread > 1e-2

    def test_extra_codim_charts_are_einstein(self):
        for n, m in ((7, 2), (8, 3)):
            rep = gm.verify_einstein(family_chart("extra-codim", n, m=m),
                                     rho=0.0, n_points=8)
            assert rep.einstein_max < TOL_EINSTEIN
            assert rep.sectional_spread > 1e-2

    def test_extra_codim_params_structure(self):
        p = wf.extra_codim_params(7)
        assert p.eps == pytest.approx(3.0 / 4.0)
        assert p.phi0 == 1.5
        # smooth pole: phi''(0) = 1 exactly
        assert wf.rhs_second_order(p.n, p.eps, p.rho, p.phi0, p.dphi0) == 1.0
        assert p.c == pytest.approx(-p.eps * p.phi0 ** 4)
        with pytest.raises(BadDimension):
            wf.extra_codim_params(5)


class TestMismatchedFiberCharts:
    def test_round_torus_composite_fails_einstein(self):
        rep = gm.verify_einstein(family_chart("round-torus-composite", 7, m=2),
                                 rho=6.0, n_points=8)
        # fiber defect is -g_F per fiber direction; normalized residual
        # peaks at max(r1^2, r2^2)/2 = 1/3 for n=7, m=2
        assert rep.einstein_max > 0.2
        assert rep.einstein_max < 1.0 / 3.0 + 1e-3

    def test_cylinder_torus_composite_fails_einstein(self):
        rep = gm.verify_einstein(
            family_chart("cylinder-torus-composite", 7, m=2), rho=0.0,
            n_points=8)
        assert rep.einstein_max > 0.05

    def test_fiber_constant_residual_is_exactly_one(self):
        # the obstruction is fiber constant n-4 against required n-3
        n = 7
        p = wf.WarpParams(n=n, eps=1.0, rho=float(n - 1), t0=0.15,
                          phi0=math.sin(0.15), dphi0=math.cos(0.15))
        sol = wf.integrate(p, 1.5, step=1e-3)
        fib = gm.unit_torus_fiber(n, 2)
        for t in (0.4, 0.8, 1.2):
            r = gm.fiber_constant_residual(p, sol.sample_at(t), fib)
            assert r == pytest.approx(1.0, abs=1e-9)

    def test_matched_fibers_have_zero_residual(self):
        n = 7
        lin = wf.linear_params(n, t0=0.3)
        sol = wf.integrate(lin, 2.0, step=1e-3)
        fib = gm.offset_torus_fiber(n, 2)
        assert gm.fiber_constant_residual(lin, sol.sample_at(1.0), fib) == pytest.approx(
            0.0, abs=1e-10
        )
        pex = wf.extra_codim_params(n)
        solex = wf.integrate(pex, 1.5, step=1e-3)
        fibu = gm.unit_torus_fiber(n, 2)
        assert gm.fiber_constant_residual(
            pex, solex.sample_at(0.9), fibu
        ) == pytest.approx(0.0, abs=1e-9)

    def test_not_einstein_fiber_rejected(self):
        n = 7
        lin = wf.linear_params(n, t0=0.3)
        sol = wf.integrate(lin, 2.0, step=1e-3)
        lop = gm.FiberSpec(dims=(2, 3), radii=(1.0, 1.3))
        with pytest.raises(BadRange):
            gm.fiber_constant_residual(lin, sol.sample_at(1.0), lop)

    def test_perturbed_clifford_detected(self):
        r1, r2 = gm.clifford_radii(5, 1.0)
        bad = gm.ProductChart(
            gm.FiberSpec(dims=(2, 3), radii=(r1, r2 * 1.05)), label="perturbed"
        )
        rep = gm.verify_einstein(bad, rho=1.0, n_points=8)
        assert rep.einstein_max > 1e-3


class TestScalarConditions:
    def test_conditions_vanish_on_solutions(self):
        p = wf.schwarzschild_params(6)
        sol = wf.integrate(p, 2.0, step=1e-3)
        for t in (0.5, 1.0, 1.7):
            s = sol.sample_at(t)
            k = wf.base_gauss_curvature(p, s)
            r1, r2 = gm.einstein_conditions_residual(p, s, k)
            assert abs(r1) < 1e-10
            assert abs(r2) < 1e-10

    def test_conditions_detect_wrong_curvature(self):
        p = wf.schwarzschild_params(6)
        sol = wf.integrate(p, 2.0, step=1e-3)
        s = sol.sample_at(1.0)
        k = wf.base_gauss_curvature(p, s)
        r1, _ = gm.einstein_conditions_residual(p, s, k + 0.1)
        assert abs(r1) == pytest.approx(0.1 * s.phi, rel=1e-12)


class TestChartGuards:
    def test_warped_chart_turning_point(self):
        chart = family_chart("schwarzschild", 5)
        with pytest.raises(SingularChartPoint):
            chart.metric_batch(np.array([[1e-7, 1.0, 1.2, 0.9, 2.0]]))

    def test_sample_box_margin_collapse(self):
        family = family_chart("schwarzschild", 5)
        chart = gm.WarpedChart(warp=family.warp, fiber=family.fiber,
                               t_range=(0.5, 0.501))
        with pytest.raises(OutsideDomain):
            gm.sample_points(chart, 4)

    def test_nan_metric_fails_closed(self):
        class NaNChart(gm.ProductChart):
            def metric_batch(self, X):
                return np.full_like(super().metric_batch(X), np.nan)

        rep = gm.verify_einstein(NaNChart(gm.round_fiber(2)), rho=1.0,
                                 n_points=3)
        assert math.isnan(rep.einstein_max)
        assert math.isnan(rep.sectional_spread)
        assert not rep.passed

    def test_chart_for_family_dispatch(self):
        chart, rho = gm.chart_for_family("clifford", 5, rho=1.0)
        assert rho == 1.0
        assert chart.dim == 5
        chart, rho = gm.chart_for_family("extra-codim", 7, m=2)
        assert rho == 0.0
        assert chart.dim == 7
        with pytest.raises(BadRange):
            gm.chart_for_family("moebius", 5)
        with pytest.raises(BadRange):
            gm.chart_for_family("clifford", 5)
