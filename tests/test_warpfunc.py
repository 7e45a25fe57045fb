"""Structural-equation solver tests.

Expected values come from three independent sources: hand-evaluated algebra
at rational states, the exact n=5 family phi = sqrt(t^2 - c), and the
trigonometric family phi = A sin t. The integrator is never compared against
itself.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpgeo import warpfunc as wf
from warpgeo.errors import (
    BadDimension,
    BadRange,
    DomainExhausted,
    InconsistentParams,
    NonPositiveWarp,
    OutOfDomain,
    StepTooLarge,
    WrongFamily,
)
from warp_samples import base_curvature, node, sample_at

SQ3 = math.sqrt(3.0)
SQ2 = math.sqrt(2.0)


class TestAlgebra:
    def test_rhs_hand_values(self):
        # n=5, eps=1, rho=0 at the Schwarzschild neck (phi=1, phi'=0)
        assert wf.rhs_second_order(5, 1.0, 0.0, 1.0, 0.0) == 1.0
        # n=5, rho=4: phi = sin t at t = pi/6 must give phi'' = -1/2
        assert wf.rhs_second_order(5, 1.0, 4.0, 0.5, SQ3 / 2.0) == pytest.approx(
            -0.5, abs=1e-15
        )

    def test_c_hand_values(self):
        assert wf.c_from_state(5, 1.0, 0.0, 1.0, 0.0) == -1.0
        assert wf.c_from_state(5, 1.0, 4.0, 0.5, SQ3 / 2.0) == pytest.approx(
            0.0, abs=1e-16
        )
        assert wf.c_from_state(6, 1.0, 0.0, 1.5, 0.0) == pytest.approx(
            -27.0 / 8.0, abs=1e-15
        )

    def test_third_derivative_hand_value(self):
        # exact n=5 family at c=-1, t=1: phi=sqrt(2), phi'''=-3/(4 sqrt(2))
        v = wf.third_derivative(5, 0.0, SQ2, 1.0 / SQ2, 2.0 ** -1.5)
        assert v == pytest.approx(-3.0 / (4.0 * SQ2), abs=1e-15)

    def test_sin_family_satisfies_equation(self):
        # phi = sin t solves the equation with eps=1, rho=n-1 for every n
        for n in (4, 5, 7, 9):
            for t in (0.3, 1.0, 1.4):
                got = wf.rhs_second_order(n, 1.0, float(n - 1), math.sin(t), math.cos(t))
                assert got == pytest.approx(-math.sin(t), abs=1e-14)
                d3 = wf.third_derivative(n, float(n - 1), math.sin(t), math.cos(t), -math.sin(t))
                assert d3 == pytest.approx(-math.cos(t), abs=1e-14)

    @given(
        n=st.integers(min_value=4, max_value=9),
        amp=st.floats(min_value=0.1, max_value=10.0),
        t=st.floats(min_value=0.1, max_value=3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_scaled_sin_needs_matching_eps(self, n, amp, t):
        # phi = A sin t solves the equation with rho = n-1 iff eps = A^2
        phi, dphi = amp * math.sin(t), amp * math.cos(t)
        got = wf.rhs_second_order(n, amp * amp, float(n - 1), phi, dphi)
        assert got == pytest.approx(-phi, rel=1e-11, abs=1e-11)
        assert wf.c_from_state(n, amp * amp, float(n - 1), phi, dphi) == pytest.approx(
            0.0, abs=1e-9 * max(1.0, amp ** (n - 1))
        )

    @given(
        n=st.integers(min_value=4, max_value=9),
        eps=st.floats(min_value=-1.0, max_value=1.5),
        rho=st.floats(min_value=-3.0, max_value=6.0),
        phi=st.floats(min_value=0.05, max_value=20.0),
        dphi=st.floats(min_value=-5.0, max_value=5.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_first_integral_roundtrip(self, n, eps, rho, phi, dphi):
        c = wf.c_from_state(n, eps, rho, phi, dphi)
        r = wf.first_integral_residual(n, eps, rho, c, phi, dphi)
        scale = 1.0 + abs(c) / phi ** (n - 3) + dphi * dphi
        assert abs(r) <= 1e-12 * scale

    def test_first_integral_differentiates_to_equation(self):
        # d/dt of the first integral must reproduce the second-order form
        n, eps, rho = 6, 1.0, 2.0
        phi, dphi = 0.8, 0.3
        c = wf.c_from_state(n, eps, rho, phi, dphi)
        d2 = wf.rhs_second_order(n, eps, rho, phi, dphi)
        # differentiate: 2 phi' phi'' = -2 rho phi phi'/(n-1) - (n-3) c phi'/phi^{n-2}
        lhs = 2.0 * dphi * d2
        rhs = -2.0 * rho * phi * dphi / (n - 1.0) - (n - 3.0) * c * dphi / phi ** (n - 2.0)
        assert lhs == pytest.approx(rhs, rel=1e-13)


class TestParams:
    def test_c_is_derived_when_omitted(self):
        p = wf.WarpParams(n=5, eps=1.0, rho=0.0, t0=0.0, phi0=1.0, dphi0=0.0)
        assert p.c == -1.0

    def test_consistent_c_accepted(self):
        p = wf.WarpParams(n=5, eps=1.0, rho=0.0, t0=0.0, phi0=1.0, dphi0=0.0, c=-1.0)
        assert p.c == -1.0

    def test_inconsistent_c_rejected(self):
        with pytest.raises(InconsistentParams):
            wf.WarpParams(n=5, eps=1.0, rho=0.0, t0=0.0, phi0=1.0, dphi0=0.0, c=-0.5)

    def test_dimension_guard(self):
        with pytest.raises(BadDimension):
            wf.WarpParams(n=3, eps=1.0, rho=0.0, t0=0.0, phi0=1.0, dphi0=0.0)

    def test_positive_warp_guard(self):
        with pytest.raises(NonPositiveWarp):
            wf.WarpParams(n=5, eps=1.0, rho=0.0, t0=0.0, phi0=0.0, dphi0=0.0)

    def test_schwarzschild_constants(self):
        assert wf.schwarzschild_params(4).c == -0.5
        assert wf.schwarzschild_params(5).c == -1.0
        assert wf.schwarzschild_params(6).c == -27.0 / 8.0

    def test_named_families_have_c_zero(self):
        assert wf.sin_params(6).c == pytest.approx(0.0, abs=1e-15)
        assert wf.linear_params(6).c == 0.0


class TestIntegrate:
    def test_matches_exact_n5_family(self):
        sol = wf.integrate(wf.schwarzschild_params(5), 3.0, step=1e-3)
        phi, dphi, d2phi, d3phi = wf.closed_form_n5(-1.0, sol.t)
        assert np.max(np.abs(sol.phi - phi)) < 1e-11
        assert np.max(np.abs(sol.dphi - dphi)) < 1e-11
        assert np.max(np.abs(sol.d2phi - d2phi)) < 1e-11
        assert np.max(np.abs(sol.d3phi - d3phi)) < 1e-11

    def test_fourth_order_convergence(self):
        errs = []
        for h in (0.1, 0.05, 0.025):
            sol = wf.integrate(wf.schwarzschild_params(5), 3.0, step=h, tol_drift=1.0)
            phi = wf.closed_form_n5(-1.0, sol.t)[0]
            errs.append(np.max(np.abs(sol.phi - phi)))
        # fourth order gives a factor 16 per halving; allow headroom
        assert errs[0] / errs[1] > 10.0
        assert errs[1] / errs[2] > 10.0

    def test_drift_stays_small(self):
        for n in (4, 5, 6, 8):
            sol = wf.integrate(wf.schwarzschild_params(n), 2.5, step=1e-3)
            assert sol.max_drift < 1e-10
            assert sol.halt_reason == "t_end"
            assert not sol.truncated

    def test_coarse_step_rejected(self):
        with pytest.raises(StepTooLarge):
            wf.integrate(wf.schwarzschild_params(4), 3.0, step=0.3)

    def test_lands_on_t_end_exactly(self):
        sol = wf.integrate(wf.schwarzschild_params(5), 1.7, step=1e-3)
        assert sol.t[-1] == pytest.approx(1.7, abs=1e-12)

    def test_backward_integration(self):
        # even profile: integrating backwards mirrors the forward run
        fwd = wf.integrate(wf.schwarzschild_params(5), 2.0, step=1e-3)
        bwd = wf.integrate(wf.schwarzschild_params(5), -2.0, step=1e-3)
        assert np.max(np.abs(fwd.phi - bwd.phi)) < 1e-13
        assert np.max(np.abs(fwd.dphi + bwd.dphi)) < 1e-13

    def test_linear_family_is_exact(self):
        sol = wf.integrate(wf.linear_params(5, t0=1.0), 4.0, step=1e-2)
        assert np.max(np.abs(sol.phi - sol.t)) < 1e-12
        assert np.max(np.abs(sol.dphi - 1.0)) < 1e-12

    def test_sin_family(self):
        sol = wf.integrate(wf.sin_params(6), 2.8, step=1e-3)
        assert np.max(np.abs(sol.phi - np.sin(sol.t))) < 1e-11
        assert np.max(np.abs(sol.dphi - np.cos(sol.t))) < 1e-11

    def test_truncates_at_floor_with_resolved_prefix(self):
        # phi'^2 = 1 + 1/phi^2 falling branch: sqrt(phi^2+1) = sqrt(2) - t,
        # collapses at t = sqrt(2) - 1
        p = wf.WarpParams(n=5, eps=1.0, rho=0.0, t0=0.0, phi0=1.0, dphi0=-SQ2)
        sol = wf.integrate(p, 2.0, step=1e-3)
        assert sol.truncated
        assert sol.halt_reason == "phi_floor"
        assert sol.t[-1] < SQ2 - 1.0
        exact = np.sqrt((SQ2 - sol.t) ** 2 - 1.0)
        assert np.max(np.abs(sol.phi - exact)) < 1e-7
        assert np.all(sol.phi > 0.1)

    def test_initial_state_below_floor(self):
        p = wf.WarpParams(n=5, eps=1.0, rho=0.0, t0=0.0, phi0=1e-9, dphi0=0.0)
        with pytest.raises(DomainExhausted):
            wf.integrate(p, 1.0, step=1e-3)

    def test_bad_arguments(self):
        p = wf.schwarzschild_params(5)
        with pytest.raises(BadRange):
            wf.integrate(p, 1.0, step=-1e-3)
        with pytest.raises(BadRange):
            wf.integrate(p, 0.0)


class TestDenseOutput:
    def test_interpolant_accuracy(self):
        sol = wf.integrate(wf.schwarzschild_params(5), 3.0, step=1e-3)
        ts = np.linspace(0.0005, 2.9995, 617)
        p, d, d2, d3 = sol.samples_at(ts)
        phi, dphi, d2phi, d3phi = wf.closed_form_n5(-1.0, ts)
        assert np.max(np.abs(p - phi)) < 1e-11
        assert np.max(np.abs(d - dphi)) < 1e-11
        assert np.max(np.abs(d2 - d2phi)) < 1e-11
        assert np.max(np.abs(d3 - d3phi)) < 1e-11

    def test_horner_form_meets_the_closed_form_off_the_nodes(self):
        # the n = 5 closed form at 20,000 points inside the cells: the
        # Horner form is as close in phi as the Hermite basis sums it
        # replaced (9.3e-15) and closer in phi' (1.7e-12 there, 4.2e-13 now)
        sol = wf.integrate(wf.schwarzschild_params(5), 3.0, step=1e-3)
        ts = np.random.default_rng(0).uniform(sol.t_min, sol.t_max, 20000)
        assert not np.any(np.isin(ts, sol.t))
        p, d, _, _ = sol.samples_at(ts)
        phi, dphi, _, _ = wf.closed_form_n5(sol.params.c, ts)
        assert np.max(np.abs(p - phi)) <= 1e-14
        assert np.max(np.abs(d - dphi)) <= 5e-13

    def test_single_sample(self):
        sol = wf.integrate(wf.schwarzschild_params(5), 3.0, step=1e-3)
        s = sample_at(sol, 1.0)
        assert s.phi == pytest.approx(SQ2, abs=1e-12)
        assert s.dphi == pytest.approx(1.0 / SQ2, abs=1e-12)
        assert s.d3phi == pytest.approx(-3.0 / (4.0 * SQ2), abs=1e-12)

    def test_out_of_domain(self):
        sol = wf.integrate(wf.schwarzschild_params(5), 2.0, step=1e-3)
        with pytest.raises(OutOfDomain):
            sol.samples_at([2.5])
        with pytest.raises(OutOfDomain):
            sol.samples_at([-0.1])
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(OutOfDomain):
                sol.samples_at([1.0, bad])

    def test_third_derivative_consistent_with_difference_quotient(self):
        # independent route: finite difference of d2phi along the solution
        sol = wf.integrate(wf.schwarzschild_params(6), 2.0, step=1e-3)
        h = 1e-4
        for t in (0.4, 1.1, 1.8):
            plus = sample_at(sol, t + h)
            minus = sample_at(sol, t - h)
            fd = (plus.d2phi - minus.d2phi) / (2.0 * h)
            assert fd == pytest.approx(sample_at(sol, t).d3phi, rel=1e-6, abs=1e-8)


def ricci_flat_base_curvature(n, c, phi):
    """The same curvature for rho = 0, eps = 1, with phi' eliminated by the
    first integral: -(n-2)(n-3) c / (2 phi^{n-1})."""
    return -(n - 2.0) * (n - 3.0) * c / (2.0 * phi ** (n - 1.0))


class TestDiagnostics:
    def test_gauss_curvature_on_exact_family(self):
        # K = -(n-2)(n-3) c / (2 phi^{n-1}); n=5, c=-1, phi=sqrt(2): K = 3/4
        p = wf.schwarzschild_params(5)
        sol = wf.integrate(p, 2.0, step=1e-3)
        s = sample_at(sol, 1.0)
        assert base_curvature(s) == pytest.approx(0.75, abs=1e-10)

    def test_gauss_curvature_at_turning_point(self):
        # at the neck phi'=0 the quotient is removable: approaching it, K
        # tends to (n-2) phi''/phi = (n-2)/b since phi''(0)=1
        for n in (4, 5, 6):
            p = wf.schwarzschild_params(n)
            sol = wf.integrate(p, 1.0, step=1e-3)
            b = (n - 3.0) / 2.0
            assert node(sol, 0).dphi == 0.0
            s = sample_at(sol, 1e-4)
            assert base_curvature(s) == pytest.approx((n - 2.0) / b, rel=1e-7)

    def test_constant_curvature_detection(self):
        assert wf.constant_curvature_value(wf.sin_params(5)) == pytest.approx(1.0)
        assert wf.constant_curvature_value(wf.linear_params(5)) == 0.0
        assert wf.constant_curvature_value(wf.schwarzschild_params(5)) is None

    def test_curvature_constant_along_c_zero_solutions(self):
        sol = wf.integrate(wf.sin_params(7), 2.6, step=1e-3)
        want = wf.constant_curvature_value(sol.params)
        ks = base_curvature(sol)[:: len(sol.t) // 40]
        assert want == 1.0
        assert np.max(np.abs(ks - want)) < 1e-9

    def test_margin_zero_at_pole_positive_after(self):
        for n in (4, 5, 6, 7):
            sol = wf.integrate(wf.schwarzschild_params(n), 2.0, step=1e-3)
            margin = wf.embeddability_margin(sol.dphi, sol.d2phi)
            assert margin[0] == 0.0
            assert min(margin[10::200]) > 0.0
            s = node(sol, 10)
            assert wf.embeddability_margin(s.dphi, s.d2phi) == margin[10]

    def test_schwarzschild_identity(self):
        for n in (4, 5, 6):
            p = wf.schwarzschild_params(n)
            sol = wf.integrate(p, 2.0, step=1e-3)
            res = wf.schwarzschild_identity_residual(p, sol)[::100]
            assert np.max(np.abs(res)) < 1e-9

    def test_identity_guards_family(self):
        p = wf.sin_params(5)
        sol = wf.integrate(p, 2.0, step=1e-3)
        with pytest.raises(WrongFamily):
            wf.schwarzschild_identity_residual(p, node(sol, 50))

    def test_diagnostics_cross_check_curvature(self):
        # the closed form eliminates phi' by the first integral; -phi'''/phi'
        # reads phi''' from the structural equation along the solution
        p = wf.schwarzschild_params(6)
        sol = wf.integrate(p, 2.0, step=1e-3)
        for i in range(1, len(sol.t), 250):
            s = node(sol, i)
            assert ricci_flat_base_curvature(6, p.c, s.phi) == pytest.approx(
                base_curvature(s), rel=1e-8, abs=1e-10
            )
            # the Laplacian 2 phi'' of phi on the base, rational in phi too
            assert -3.0 * p.c / s.phi ** 4 == pytest.approx(
                2.0 * s.d2phi, rel=1e-9, abs=1e-10)

    def test_inf_phi_matches_trajectory(self):
        # run far along the profile on both sides; phi never dips under the
        # neck (-c)^{1/(n-3)}, where it starts
        p = wf.schwarzschild_params(6)
        sol = wf.integrate(p, 4.0, step=1e-3)
        inf_phi = (-p.c) ** (1.0 / 3.0)
        assert inf_phi == pytest.approx(1.5, abs=1e-15)
        assert sol.phi[0] == 1.5
        assert np.min(sol.phi) >= inf_phi - 1e-12


class TestClosedForm:
    def test_closed_form_domain_guard(self):
        with pytest.raises(OutOfDomain):
            wf.closed_form_n5(1.0, 0.5)

    def test_closed_form_solves_equation(self):
        for c in (-2.0, -1.0, 0.5):
            for t in (1.5, 2.0, 3.0):
                s = wf.closed_form_n5(c, t)
                assert wf.rhs_second_order(5, 1.0, 0.0, s.phi, s.dphi) == pytest.approx(
                    s.d2phi, rel=1e-13
                )
                assert wf.first_integral_residual(
                    5, 1.0, 0.0, c, s.phi, s.dphi
                ) == pytest.approx(0.0, abs=1e-13)


class TestSerialization:
    def test_csv_shape_and_determinism(self, tmp_path):
        sol = wf.integrate(wf.schwarzschild_params(5), 1.0, step=1e-2)
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        wf.write_solution_csv(sol, str(f1))
        wf.write_solution_csv(sol, str(f2))
        text = f1.read_text()
        assert text == f2.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "t,phi,dphi,d2phi,d3phi,first_integral_residual"
        assert len(lines) == len(sol.t) + 1
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0 and first[1] == 1.0

    def test_csv_roundtrip_precision(self, tmp_path):
        sol = wf.integrate(wf.schwarzschild_params(5), 1.0, step=1e-2)
        f = tmp_path / "a.csv"
        wf.write_solution_csv(sol, str(f))
        rows = [r.split(",") for r in f.read_text().strip().split("\n")[1:]]
        phi = np.array([float(r[1]) for r in rows])
        assert np.array_equal(phi, sol.phi)

    def test_json_payload_parses_with_stdlib(self, tmp_path):
        sol = wf.integrate(wf.schwarzschild_params(5), 1.0, step=1e-2)
        f = tmp_path / "sol.json"
        wf.write_solution_json(sol, str(f))
        data = json.loads(f.read_text())
        assert data["schema_version"] == 1
        assert data["kind"] == "warp_solution"
        assert data["params"]["n"] == 5
        assert data["params"]["c"] == -1.0
        assert data["halt_reason"] == "t_end"
        assert len(data["phi"]) == len(sol.phi)
        assert data["phi"][0] == 1.0
