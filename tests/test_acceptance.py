"""Acceptance gate: one test per top-level criterion, each printing a
single pass/fail line even when the assertion that follows fails.

Criterion 4 runs the intrinsic Einstein check on every chart family and
requires the two warped composites over the unit-sum product torus to be
detected as non-Einstein. Their fiber's Ricci constant is n-4 where the
warped-product structure needs n-3, a gap no calibration can close, so
their residual must stay above the floor that `warpgeo report` uses. The
companion test below it pins the size of that defect, so a drift in
either direction is caught.
"""

import json
import math
import time

import numpy as np
import pytest

from warpgeo import cli, extrinsic, geometry, immersions, warpfunc

SEED = 42


def announce(capsys, num, slug, ok, detail=""):
    tail = " (%s)" % detail if detail else ""
    with capsys.disabled():
        print("ACCEPTANCE %d %s: %s%s" % (num, slug, "PASS" if ok else "FAIL", tail))


def test_criterion_1_closed_form_oracle(capsys):
    params = warpfunc.schwarzschild_params(5)
    warpfunc.integrate(params, 0.1, 1e-3)  # warm any compiled kernels
    t0 = time.perf_counter()
    sol = warpfunc.integrate(params, 5.0, 1e-3)
    elapsed = time.perf_counter() - t0
    exact = np.sqrt(sol.t ** 2 + 1.0)
    err = float(np.max(np.abs(sol.phi - exact)))
    ok = err <= 1e-9 and elapsed < 1.0
    announce(capsys, 1, "closed-form-n5", ok,
             "max err %.2e, %.2f s" % (err, elapsed))
    assert err <= 1e-9
    assert elapsed < 1.0


def test_criterion_2_first_integral_conservation(capsys):
    worst_drift = 0.0
    worst_ratio = math.inf
    for n in (4, 5, 6, 7, 9):
        sol = warpfunc.integrate(warpfunc.schwarzschild_params(n), 5.0, 1e-3)
        worst_drift = max(worst_drift, sol.max_drift)
        # coarse pair sits above roundoff so the RK4 order is measurable;
        # the drift gate is opened for these two runs only
        coarse = warpfunc.integrate(warpfunc.schwarzschild_params(n), 3.0, 0.05,
                                    tol_drift=1e-4)
        fine = warpfunc.integrate(warpfunc.schwarzschild_params(n), 3.0, 0.025,
                                  tol_drift=1e-4)
        worst_ratio = min(worst_ratio, coarse.max_drift / fine.max_drift)
    ok = worst_drift <= 1e-8 and worst_ratio >= 8.0
    announce(capsys, 2, "first-integral", ok,
             "max drift %.2e, halving gain %.1fx" % (worst_drift, worst_ratio))
    assert worst_drift <= 1e-8
    assert worst_ratio >= 8.0


def test_criterion_3_family_identity_and_margin(capsys):
    worst_ident = 0.0
    margin_zero = 0.0
    margin_min = math.inf
    for n in (4, 5, 6):
        sol = warpfunc.integrate(warpfunc.schwarzschild_params(n), 5.0, 1e-3)
        ident = warpfunc.schwarzschild_identity_residual(sol.params, sol)
        worst_ident = max(worst_ident, float(np.max(np.abs(ident))))
        margin = warpfunc.embeddability_margin(sol)
        margin_zero = max(margin_zero, abs(float(margin[0])))
        inside = sol.t >= 0.1
        margin_min = min(margin_min, float(np.min(margin[inside])))
    ok = worst_ident <= 1e-9 and margin_zero <= 1e-12 and margin_min > 0.0
    announce(capsys, 3, "slope-identity", ok,
             "identity %.2e, margin at start %.1e, interior min %.2e"
             % (worst_ident, margin_zero, margin_min))
    assert worst_ident <= 1e-9
    assert margin_zero <= 1e-12
    assert margin_min > 0.0


_EINSTEIN_SET = (
    ("clifford", 5, None, 1.0),
    ("clifford", 6, None, 2.0),
    ("schwarzschild", 5, None, None),
    ("schwarzschild", 6, None, None),
    ("flat-torus-composite", 7, 2, None),
    ("extra-codim", 7, 2, None),
)

# unit-sum torus composites: not Einstein, residual floors as in `report`
_DEFECT_SET = (
    ("round-torus-composite", 7, 2, None, 0.2),
    ("cylinder-torus-composite", 7, 2, None, 0.05),
)


def test_criterion_4_intrinsic_einstein_fd(capsys):
    t0 = time.perf_counter()
    failures = []
    for family, n, m, rho in _EINSTEIN_SET:
        chart, rho_val = geometry.chart_for_family(family, n, m=m, rho=rho)
        rep = geometry.verify_einstein(chart, rho_val, n_points=20, seed=SEED)
        if not rep.einstein_max <= 5e-5:
            failures.append("%s %.1e" % (rep.label, rep.einstein_max))
    defects = []
    for family, n, m, rho, floor in _DEFECT_SET:
        chart, rho_val = geometry.chart_for_family(family, n, m=m, rho=rho)
        rep = geometry.verify_einstein(chart, rho_val, n_points=20, seed=SEED)
        defects.append("%s %.2f" % (rep.label, rep.einstein_max))
        if not rep.einstein_max >= floor:
            failures.append("%s undetected %.1e" % (rep.label, rep.einstein_max))
    for family, n in (("round", 5), ("flat", 5)):
        chart, rho_val = geometry.chart_for_family(family, n)
        rep = geometry.verify_einstein(chart, rho_val, n_points=20, seed=SEED)
        if not (rep.einstein_max <= 5e-5 and rep.sectional_spread <= 1e-4):
            failures.append("%s spread %.1e" % (rep.label, rep.sectional_spread))
    for n in (5, 6):
        chart, rho_val = geometry.chart_for_family("schwarzschild", n)
        rep = geometry.verify_einstein(chart, rho_val, n_points=20, seed=SEED)
        if not rep.sectional_spread >= 1e-2:
            failures.append("%s flat spread" % rep.label)
    r1, r2 = geometry.clifford_radii(5, 1.0)
    pert = geometry.ProductChart(
        geometry.FiberSpec(dims=(2, 3), radii=(r1, r2 * 1.05)),
        label="clifford-n5-perturbed")
    rep = geometry.verify_einstein(pert, 1.0, n_points=20, seed=SEED)
    if not rep.einstein_max > 1e-3:
        failures.append("perturbed clifford undetected")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append("runtime %.0f s" % elapsed)
    announce(capsys, 4, "intrinsic-einstein-fd", not failures,
             "; ".join(failures)
             or "defects %s, %.1f s" % (", ".join(defects), elapsed))
    assert not failures


def test_criterion_4_companion_unit_sum_defect_is_structural(capsys):
    # criterion 4 requires these composites to be detected; this pins the
    # size of the defect: the fiber Ricci constant falls short by exactly
    # 1, so the normalized residual lands at max(r1^2, r2^2)/2 = 1/3 for
    # n=7, m=2 on both base surfaces
    results = {}
    for family in ("round-torus-composite", "cylinder-torus-composite"):
        chart, rho_val = geometry.chart_for_family(family, 7, m=2)
        rep = geometry.verify_einstein(chart, rho_val, n_points=12, seed=SEED)
        results[family] = rep.einstein_max
        assert 0.05 < rep.einstein_max < 1.0 / 3.0 + 1e-2
    params = warpfunc.sin_params(7)
    sol = warpfunc.integrate(params, 2.2, 1e-3)
    fiber = geometry.unit_torus_fiber(7, 2)
    gap = geometry.fiber_constant_residual(params, sol.sample_at(1.8), fiber)
    assert abs(gap - 1.0) < 1e-9
    announce(capsys, 4, "companion-defect-pinned", True,
             "residuals %.2f / %.2f, fiber gap %.3f"
             % (results["round-torus-composite"],
                results["cylinder-torus-composite"], gap))


# members of every row with both a chart and an immersion
_PULLBACK_MEMBERS = (
    ("schwarzschild", 4, None, None),
    ("schwarzschild", 5, None, None),
    ("schwarzschild", 6, None, None),
    ("extra-codim", 7, 2, None),
    ("clifford", 5, None, 1.0),
    ("clifford", 6, None, 2.0),
    ("sphere", 4, None, None),
    ("flat-torus-composite", 7, 2, None),
    ("round-torus-composite", 7, 2, None),
    ("cylinder-torus-composite", 7, 2, None),
)


def _pullback_cases():
    # immersion, the same row's chart, tolerance class
    for family, n, m, rho in _PULLBACK_MEMBERS:
        chart, _ = geometry.chart_for_family(family, n, m=m, rho=rho)
        klass = ("analytic" if geometry.FAMILIES[family].warp is None
                 else "quadrature")
        yield immersions.build_immersion(family, n, m=m, rho=rho), chart, klass


def test_criterion_5_pullback_fidelity(capsys):
    worst = {"analytic": 0.0, "quadrature": 0.0}
    for imm, chart, klass in _pullback_cases():
        X = geometry.sample_points(chart, 12, seed=SEED)
        pull = geometry.PullbackChart(imm).metric_batch(X)
        gap = float(np.max(np.abs(pull - chart.metric_batch(X))))
        worst[klass] = max(worst[klass], gap)
    ok = worst["analytic"] <= 1e-8 and worst["quadrature"] <= 1e-6
    announce(capsys, 5, "pullback-fidelity", ok,
             "analytic %.1e, quadrature %.1e"
             % (worst["analytic"], worst["quadrature"]))
    assert worst["analytic"] <= 1e-8
    assert worst["quadrature"] <= 1e-6


def test_criterion_6_extrinsic_suite(capsys):
    failures = []
    for n in (4, 5, 6):
        imm = immersions.schwarzschild_immersion(n)
        rep = extrinsic.extrinsic_scan(imm, n_points=6, seed=SEED)
        if not rep.flat_normal_max <= 1e-6:
            failures.append("fnb n=%d" % n)
        if rep.u_dim_mode != n - 2:
            failures.append("u-dim n=%d" % n)
        if not rep.umbilical_residual_max <= 1e-6:
            failures.append("umbilical n=%d" % n)
        if not rep.profile_max <= 1e-6:
            failures.append("profile n=%d" % n)
        if not rep.gauss_max <= 1e-4:
            failures.append("gauss n=%d" % n)
        if not rep.dupin_max <= 1e-4:
            failures.append("dupin n=%d" % n)
    announce(capsys, 6, "extrinsic-suite", not failures,
             "; ".join(failures) or "n=4,5,6 clean")
    assert not failures


def test_criterion_7_normal_form_algebra(capsys):
    imm = immersions.schwarzschild_immersion(4)
    chart = geometry.PullbackChart(imm, label="pull")
    pts = geometry.sample_points(chart, 10, seed=SEED)
    worst = 0.0
    ok = True
    for x in pts:
        form = extrinsic.classify_at(imm, x)
        ok = ok and form.kind == "epsilon" and form.eps == 1
        worst = max(worst, form.residual)
    ok = ok and worst <= 1e-6
    p, q, r = extrinsic.solve_normal_form_relations(2.0, 1.0, 1.0, 1.0)
    solver_ok = max(abs(p - 1.0), abs(q - 1.0), abs(r - 1.0)) < 1e-12
    prod = (2.0 * 1.0 - 1.0) * (2.0 * 1.0 - 1.0) * (2.0 * 1.0 - 1.0)
    ok = ok and solver_ok and prod > 0
    announce(capsys, 7, "normal-form-algebra", ok,
             "10 points eps=+1, max residual %.1e" % worst)
    assert ok


def test_criterion_8_deterministic_reports(capsys, tmp_path):
    a, b = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    for path in (a, b):
        code = cli.main(["report", "--out", path])
        assert code == 0
    capsys.readouterr()
    with open(a, "rb") as fa, open(b, "rb") as fb:
        ba, bb = fa.read(), fb.read()
    ok = ba == bb and len(ba) > 0
    n_checks = len(json.loads(ba)["checks"])
    announce(capsys, 8, "deterministic-reports", ok,
             "%d bytes, %d checks" % (len(ba), n_checks))
    assert ok
