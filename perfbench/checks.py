"""Output checks of the benchmark, kept apart from the program under test.

Every function takes a summary of one operation's output and returns a list
of problems; an empty list means the output is correct. The references are
computed here, without the program: a scipy integration and closed forms for
the warp, the radii of the unit-sum torus for the composites' defect, and
the properties the method must have (Ric = rho g on Einstein charts, the
sectional curvature of round, flat and product spaces, the identities of
Gauss, Codazzi and the flat normal bundle). No check compares against a
stored copy of an earlier output.

All comparisons are written as ``not (value <= tol)`` so that a NaN fails.
"""

import json
import math

import numpy as np

# -- warp-grid -------------------------------------------------------------------

T_END = 5.0
STEP = 1e-3
TOL_DRIFT = 1e-8
# Largest relative differences to the DOP853 reference over 2,200
# integrations (40 workload seeds) were 8.3e-9 for phi and 1.3e-7 for phi',
# the latter at the last kept node of collapsing trajectories; the bounds
# leave a factor of about 3.6 and 3.9.
TOL_PHI = 3e-8
TOL_DPHI = 5e-7
# The reference stops at phi = REF_FLOOR. Below it a trajectory whose first
# integral carries a rounding-sized c may bounce instead of collapsing, which
# no fixed-step integrator resolves, so both sides call it a collapse.
REF_FLOOR = 1e-2
# A collapse this close to t_end may fall on either side of the last step.
HALT_WINDOW = 1e-2


def _rhs(n, eps, rho):
    def f(_t, y):
        return [y[1], -((n - 3.0) * (y[1] * y[1] - eps) + rho * y[0] * y[0])
                / (2.0 * y[0])]
    return f


def warp_reference(n, eps, rho, phi0, dphi0):
    """DOP853 solution from t = 0, stopped where phi falls to REF_FLOOR."""
    from scipy.integrate import solve_ivp

    def floor(_t, y):
        return y[0] - REF_FLOOR
    floor.terminal = True
    floor.direction = -1
    return solve_ivp(_rhs(n, eps, rho), (0.0, T_END), [phi0, dphi0],
                     method="DOP853", rtol=1e-13, atol=1e-14,
                     dense_output=True, events=floor)


def family_constant(n, eps, rho, phi, dphi):
    """c of the first integral phi'^2 = eps - rho phi^2/(n-1) + c/phi^(n-3)."""
    return (dphi * dphi - eps + rho * phi * phi / (n - 1.0)) * phi ** (n - 3.0)


def check_warp(case, out, ref):
    """case: dict n, eps, rho, phi0, dphi0; out: summary of one integration."""
    problems = []
    n, eps, rho = case["n"], case["eps"], case["rho"]
    t, phi, dphi = out["t"], out["phi"], out["dphi"]
    if not (t.size >= 2 and t[0] == 0.0 and phi[0] == case["phi0"]):
        return ["trajectory does not start at the initial state"]
    steps = np.diff(t)
    if not np.all(np.abs(steps - STEP) <= 1e-12):
        problems.append("grid spacing is not the requested step")

    collapsed = ref.status == 1
    ambiguous = collapsed and ref.t[-1] >= T_END - HALT_WINDOW
    if not ambiguous and out["truncated"] != collapsed:
        problems.append("truncated=%s but the reference %s"
                        % (out["truncated"],
                           "collapses" if collapsed else "reaches t_end"))
    want_reason = "phi_floor" if out["truncated"] else "t_end"
    if out["halt_reason"] != want_reason:
        problems.append("halt_reason %r with truncated=%s"
                        % (out["halt_reason"], out["truncated"]))
    if not out["truncated"] and not (abs(t[-1] - T_END) <= 1e-12):
        problems.append("untruncated trajectory ends at %r" % t[-1])

    c = family_constant(n, eps, rho, case["phi0"], case["dphi0"])
    scale = 1.0 + abs(c) / phi ** (n - 3.0) + dphi * dphi
    drift = np.abs(dphi * dphi - eps + rho * phi * phi / (n - 1.0)
                   - c / phi ** (n - 3.0)) / scale
    if not (float(np.max(drift)) <= TOL_DRIFT):
        problems.append("first-integral drift %.3e" % float(np.max(drift)))

    tq, pq, dq = out["tq"], out["phi_q"], out["dphi_q"]
    want_q = t[:-1] + 0.5 * (t[1:] - t[:-1])
    if not (tq.shape == want_q.shape and np.all(np.abs(tq - want_q) <= 1e-12)):
        return problems + ["queries are not the step midpoints"]
    if not (np.all(np.isfinite(pq)) and np.all(np.isfinite(dq))):
        return problems + ["non-finite dense output"]
    inside = tq <= ref.t[-1]
    y = ref.sol(tq[inside])
    problems += _compare("reference", pq[inside], dq[inside], y[0], y[1])

    if n == 5 and eps == 1.0 and rho == 0.0:
        # phi^2 = (t - a)^2 - c, with a fixed by the initial state
        a = -case["phi0"] * case["dphi0"]
        exact = np.sqrt((tq - a) ** 2 - c)
        problems += _compare("closed form", pq, dq, exact, (tq - a) / exact)
    return problems


def _compare(what, phi, dphi, phi_ref, dphi_ref):
    e_phi = float(np.max(np.abs(phi - phi_ref) / np.abs(phi_ref), initial=0.0))
    e_dphi = float(np.max(np.abs(dphi - dphi_ref) / (1.0 + np.abs(dphi_ref)),
                          initial=0.0))
    out = []
    if not (e_phi <= TOL_PHI):
        out.append("phi differs from the %s by %.3e" % (what, e_phi))
    if not (e_dphi <= TOL_DPHI):
        out.append("phi' differs from the %s by %.3e" % (what, e_dphi))
    return out


# -- intrinsic-dense -------------------------------------------------------------

TOL_EINSTEIN = 5e-5
TOL_RICCI_SYM = 1e-6
# Finite differences at h = 1e-3 put round-n5 sectionals up to 3.7e-4 from 1
# and flat-n5 up to 9.6e-5 from 0 over 100 seeds at 200 points; the metric
# entries near the polar angles' padding make the plane areas small.
TOL_SECTIONAL = 2e-3
TOL_DEFECT = 1e-3
PERTURBED_FLOOR = 1e-3


def unit_torus_defect(n, m):
    """Normalised Einstein defect max(r1^2, r2^2)/2 of the unit-sum torus.

    The radii follow from r1^2 + r2^2 = 1 and equal Ricci constants
    (m-1)/r1^2 = (n-m-3)/r2^2 of the two sphere factors.
    """
    r1_sq = (m - 1.0) / (n - 4.0)
    r2_sq = (n - m - 3.0) / (n - 4.0)
    return max(r1_sq, r2_sq) / 2.0


def check_chart(spec, rep, n_points):
    """spec: dict kind (einstein, defect, perturbed), family, n, m, rho."""
    problems = []
    if rep["n_points"] != n_points:
        problems.append("%d points checked, %d asked" % (rep["n_points"], n_points))
    e = rep["einstein_max"]
    kind = spec["kind"]
    if kind == "einstein":
        if not (e <= TOL_EINSTEIN):
            problems.append("einstein_max %.3e" % e)
        if not (rep["ricci_sym_max"] <= TOL_RICCI_SYM):
            problems.append("ricci_sym_max %.3e" % rep["ricci_sym_max"])
    elif kind == "defect":
        want = unit_torus_defect(spec["n"], spec["m"])
        if not (abs(e - want) <= TOL_DEFECT):
            problems.append("defect %.6f, expected %.6f" % (e, want))
    elif kind == "perturbed":
        if not (e >= PERTURBED_FLOOR):
            problems.append("perturbed Clifford defect %.3e undetected" % e)
    lo, hi = rep["sectional_min"], rep["sectional_max"]
    family = spec["family"]
    if family in ("round", "flat"):
        want = 1.0 if family == "round" else 0.0
        dev = max(abs(lo - want), abs(hi - want))
        if not (dev <= TOL_SECTIONAL):
            problems.append("%s sectionals [%.6g, %.6g]" % (family, lo, hi))
    if family == "clifford" and kind == "einstein":
        rho = spec["rho"]
        if not (lo >= -TOL_SECTIONAL and hi <= rho * (1.0 + TOL_SECTIONAL)):
            problems.append("clifford sectionals [%.6g, %.6g] outside [0, %g]"
                            % (lo, hi, rho))
    return ["%s: %s" % (rep["label"], p) for p in problems]


# -- extrinsic-dense -------------------------------------------------------------

TOL_FNB = 1e-6
TOL_UMBILICAL = 1e-6
TOL_CODAZZI = 1e-6
TOL_PROFILE = 1e-6
TOL_DUPIN = 1e-4
TOL_FORM = 1e-6
# The Gauss residual compares exact extrinsic Ricci with finite-difference
# intrinsic Ricci, so its error grows with the curvature: the flat torus
# composite (sectionals up to 12) reaches 1.6e-4 over 1,500 points where
# the rotational immersions stay below 4e-5.
TOL_GAUSS = 1e-3


def check_scan(spec, rep, n_points):
    """spec: dict family, n, rotational, umbilical; rep: ExtrinsicReport dict."""
    problems = []
    if rep["n_points"] != n_points:
        problems.append("%d points scanned, %d asked" % (rep["n_points"], n_points))
    for key, tol in (("flat_normal_max", TOL_FNB), ("gauss_max", TOL_GAUSS),
                     ("codazzi_max", TOL_CODAZZI)):
        if not (rep[key] <= tol):
            problems.append("%s %.3e" % (key, rep[key]))
    if spec["rotational"] and not (rep["profile_max"] <= TOL_PROFILE):
        problems.append("profile_max %.3e" % rep["profile_max"])
    if spec["umbilical"]:
        if not (rep["umbilical_residual_max"] <= TOL_UMBILICAL):
            problems.append("umbilical_residual_max %.3e"
                            % rep["umbilical_residual_max"])
        if not (rep["dupin_max"] <= TOL_DUPIN):
            problems.append("dupin_max %.3e" % rep["dupin_max"])
        if rep["u_dim_mode"] != spec["n"] - 2:
            problems.append("u_dim_mode %d, expected %d"
                            % (rep["u_dim_mode"], spec["n"] - 2))
    return ["%s: %s" % (rep["label"], p) for p in problems]


def check_forms(forms, n_points):
    """forms: list of (kind, eps, residual) from classify_at."""
    problems = []
    if len(forms) != n_points:
        problems.append("%d points classified, %d asked" % (len(forms), n_points))
    for kind, eps, residual in forms:
        if kind != "epsilon" or eps != 1:
            problems.append("normal form %s eps=%s" % (kind, eps))
        elif not (residual <= TOL_FORM):
            problems.append("normal-form residual %.3e" % residual)
    return ["classify: %s" % p for p in problems]


# -- report ----------------------------------------------------------------------

DEFECT_CHECKS = {
    "defect-round-torus-composite-n7-m2": (7, 2),
    "defect-cylinder-torus-composite-n7-m2": (7, 2),
}


def check_report(code, text):
    """code: exit code of `warpgeo report`; text: the bytes it wrote."""
    problems = []
    if code != 0:
        problems.append("exit code %d" % code)
    try:
        payload = json.loads(text)
    except ValueError as exc:
        return problems + ["report is not JSON: %s" % exc]
    if payload.get("overall") != "pass":
        failing = [c["name"] for c in payload.get("checks", [])
                   if c.get("status") != "pass"]
        problems.append("overall %r, failing %s"
                        % (payload.get("overall"), ", ".join(failing)))
    values = {c["name"]: c["value"] for c in payload.get("checks", [])}
    for name, (n, m) in DEFECT_CHECKS.items():
        want = unit_torus_defect(n, m)
        got = values.get(name, math.nan)
        if not (abs(got - want) <= TOL_DEFECT):
            problems.append("%s = %r, expected %.6f" % (name, got, want))
    return problems
