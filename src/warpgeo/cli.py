"""Batch front end: construct the model geometries, run verification
suites, emit deterministic reports and meshes.

Every report is JSON with sorted keys and 17-significant-digit floats, so
identical configuration and seed give byte-identical output. Exit codes:
0 all checks pass, 1 at least one check failed, 2 computation error,
3 configuration error.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import extrinsic, geometry, immersions, serialize, warpfunc
from .errors import (
    BadDimension,
    BadRange,
    ConfigError,
    InconsistentParams,
    WarpgeoError,
    WrongFamily,
)

SCHEMA_VERSION = 1
DEFAULT_SEED = 42

# single table of default tolerances; every report echoes the values used
TOLERANCES = {
    "tol_drift": 1e-8,
    "tol_closed_form": 1e-9,
    "tol_identity": 1e-9,
    "tol_einstein": 5e-5,
    "tol_fd_gap": 1e-3,
    "tol_ricci_sym": 1e-6,
    "tol_spread_flat": geometry.TOL_SPREAD_FLAT,
    "tol_fnb": 1e-6,
    "tol_umbilical": 1e-6,
    "tol_gauss": 1e-4,
    "tol_codazzi": 1e-6,
    "tol_dupin": 1e-4,
    "tol_profile": 1e-6,
    "tol_form": 1e-6,
    "tol_pullback_analytic": 1e-8,
    "tol_pullback_quadrature": 1e-6,
}

_CONFIG_ERRORS = (
    ConfigError,
    BadRange,
    BadDimension,
    InconsistentParams,
    WrongFamily,
)


# -- config plumbing ---------------------------------------------------------------

def _load_config(path, allowed):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError("config needs schema_version %d" % SCHEMA_VERSION)
    unknown = sorted(set(data) - set(allowed) - {"schema_version"})
    if unknown:
        raise ConfigError("unknown config keys: %s" % ", ".join(unknown))
    return data


def _merge(args, defaults):
    """Hard defaults, then config file values, then explicit flags."""
    merged = dict(defaults)
    if getattr(args, "config", None):
        merged.update(_load_config(args.config, defaults))
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return merged


def _check(name, value, tol, provenance, mode="max"):
    ok = value <= tol if mode == "max" else value >= tol
    return {
        "name": name,
        "status": "pass" if ok else "fail",
        "value": float(value),
        "tolerance": float(tol),
        "comparison": mode,
        "provenance": provenance,
    }


def _report(label, seed, checks, extra=None):
    overall = "pass" if all(c["status"] == "pass" for c in checks) else "fail"
    out = {
        "schema_version": SCHEMA_VERSION,
        "label": label,
        "seed": seed,
        "checks": checks,
        "overall": overall,
    }
    if extra:
        out.update(extra)
    return out


def _emit(payload, out_path):
    text = serialize.to_json(payload)
    sys.stdout.write(text + "\n")
    if out_path:
        serialize.write_text_atomic(out_path, text + "\n")


def _exit_code(payload):
    return 0 if payload["overall"] == "pass" else 1


def _member(cfg):
    """m, rho and perturb of a --family selection, typed; None when unset."""
    out = {"m": None if cfg["m"] is None else int(cfg["m"]),
           "rho": None if cfg["rho"] is None else float(cfg["rho"])}
    if "perturb" in cfg:
        out["perturb"] = float(cfg["perturb"])
    return out


# -- warp ---------------------------------------------------------------------------

_WARP_DEFAULTS = {
    "family": None,
    "n": None,
    "m": None,
    "eps": 1.0,
    "rho": 0.0,
    "c": None,
    "phi0": 1.0,
    "dphi0": 0.0,
    "t0": 0.0,
    "t_end": 5.0,
    "step": 1e-3,
    "out": None,
    "csv": None,
    "compare_closed_form": False,
    "tol_drift": TOLERANCES["tol_drift"],
    "tol_closed_form": TOLERANCES["tol_closed_form"],
}


def _warp_params(cfg):
    family = cfg["family"]
    if family is None:
        if cfg["n"] is None:
            raise ConfigError("warp needs --family or --n")
        return warpfunc.WarpParams(
            n=int(cfg["n"]), eps=float(cfg["eps"]), rho=float(cfg["rho"]),
            t0=float(cfg["t0"]), phi0=float(cfg["phi0"]),
            dphi0=float(cfg["dphi0"]),
            c=None if cfg["c"] is None else float(cfg["c"]),
        )
    warps = {k: row.warp for k, row in geometry.FAMILIES.items() if row.warp}
    if family not in warps:
        raise ConfigError("unknown warp family %r; families with a warp: %s"
                          % (family, ", ".join(warps)))
    if cfg["n"] is None:
        raise ConfigError("family %r needs --n" % family)
    return warps[family](int(cfg["n"]))


def cmd_warp(args):
    cfg = _merge(args, _WARP_DEFAULTS)
    params = _warp_params(cfg)
    sol = warpfunc.integrate(params, float(cfg["t_end"]), float(cfg["step"]),
                             tol_drift=float(cfg["tol_drift"]))
    # gate on the same scale the integrator uses; the raw residual inflates
    # with the stiff right-hand side near a positivity floor
    rel_drift = float(np.max(warpfunc.relative_drift(params, sol.phi, sol.dphi,
                                                     sol.drift)))
    checks = [
        _check("first-integral-drift", rel_drift, cfg["tol_drift"],
               "first-integral"),
    ]
    extra = {
        "params": params.as_dict(),
        "t_min": sol.t_min,
        "t_max": sol.t_max,
        "samples": len(sol.t),
        "truncated": sol.truncated,
        "max_drift": sol.max_drift,
        "constant_curvature": warpfunc.constant_curvature_value(params),
    }
    if cfg["compare_closed_form"]:
        checks.append(_check("closed-form-error",
                             warpfunc.closed_form_n5_error(sol),
                             cfg["tol_closed_form"], "closed-form-oracle"))
    if cfg["csv"]:
        warpfunc.write_solution_csv(sol, cfg["csv"])
        extra["csv"] = cfg["csv"]
    payload = _report("warp", DEFAULT_SEED, checks, extra)
    if cfg["out"]:
        warpfunc.write_solution_json(sol, cfg["out"])
    _emit(payload, None)
    return _exit_code(payload)


# -- verify-intrinsic ------------------------------------------------------------------

_INTRINSIC_DEFAULTS = {
    "family": None,
    "n": None,
    "m": None,
    "rho": None,
    "points": 24,
    "seed": DEFAULT_SEED,
    "h": 1e-3,
    "perturb": 0.0,
    "richardson": False,
    "expect_not_einstein": None,
    "out": None,
    "tol_einstein": TOLERANCES["tol_einstein"],
    "tol_ricci_sym": TOLERANCES["tol_ricci_sym"],
}


def cmd_verify_intrinsic(args):
    cfg = _merge(args, _INTRINSIC_DEFAULTS)
    if cfg["family"] is None or cfg["n"] is None:
        raise ConfigError("verify-intrinsic needs --family and --n")
    chart, rho = geometry.chart_for_family(cfg["family"], int(cfg["n"]),
                                           **_member(cfg))
    rep = geometry.verify_einstein(
        chart, rho, n_points=int(cfg["points"]), h=float(cfg["h"]),
        tol=float(cfg["tol_einstein"]), seed=int(cfg["seed"]),
        richardson=bool(cfg["richardson"]),
    )
    if cfg["expect_not_einstein"] is not None:
        checks = [
            _check("einstein-defect-detected", rep.einstein_max,
                   float(cfg["expect_not_einstein"]), rep.provenance,
                   mode="min"),
        ]
    else:
        checks = [
            _check("einstein-residual", rep.einstein_max,
                   cfg["tol_einstein"], rep.provenance),
            _check("ricci-symmetry", rep.ricci_sym_max,
                   cfg["tol_ricci_sym"], rep.provenance),
        ]
        if cfg["richardson"]:
            checks.append(_check("richardson-stability", rep.richardson_max,
                                 1e-3, "step-halving"))
    payload = _report(rep.label, int(cfg["seed"]), checks,
                      {"curvature": rep.as_dict(), "rho": rho})
    _emit(payload, cfg["out"])
    return _exit_code(payload)


# -- build -------------------------------------------------------------------------------

_BUILD_DEFAULTS = {
    "family": None,
    "n": None,
    "m": None,
    "rho": None,
    "out": ".",
    "count": 512,
    "res": 32,
    "seed": DEFAULT_SEED,
}


def _immersion_spec(imm):
    meta = {}
    for key, val in imm.meta.items():
        if key == "fiber":
            meta[key] = {"dims": list(val.dims),
                         "radii": [float(r) for r in val.radii],
                         "offset": float(val.offset)}
        elif key == "warp":
            meta[key] = {
                "params": val.params.as_dict(),
                "t_min": val.t_min,
                "t_max": val.t_max,
                "step": val.step,
            }
        elif key == "profile":
            continue
        else:
            meta[key] = val
    return {
        "schema_version": SCHEMA_VERSION,
        "label": imm.label,
        "dim": imm.dim,
        "ambient_dim": imm.ambient_dim,
        "rho": imm.rho,
        "sample_box": imm.sample_box.tolist(),
        "meta": meta,
    }


def cmd_build(args):
    cfg = _merge(args, _BUILD_DEFAULTS)
    if cfg["family"] is None or cfg["n"] is None:
        raise ConfigError("build needs --family and --n")
    if min(int(cfg["count"]), int(cfg["res"])) < 1:
        raise ConfigError("--count and --res must be at least 1")
    imm = immersions.build_immersion(cfg["family"], int(cfg["n"]),
                                     **_member(cfg))
    # every file is rendered, and so checked, before the first is written
    files = {
        ".csv": immersions.points_csv(imm, count=int(cfg["count"]),
                                      seed=int(cfg["seed"])),
        ".obj": immersions.surface_obj(imm, res=int(cfg["res"])),
        ".json": serialize.to_json(_immersion_spec(imm)) + "\n",
    }
    base = os.path.join(cfg["out"], imm.label)
    for ext, text in files.items():
        serialize.write_text_atomic(base + ext, text)
    sys.stdout.write(serialize.to_json({
        "schema_version": SCHEMA_VERSION,
        "label": imm.label,
        "files": [base + ext for ext in files],
    }) + "\n")
    return 0


# -- verify-extrinsic -----------------------------------------------------------------------

_EXTRINSIC_DEFAULTS = {
    "family": None,
    "n": None,
    "m": None,
    "rho": None,
    "points": 6,
    "seed": DEFAULT_SEED,
    "perturb": 0.0,
    "expect_u_dim": None,
    "out": None,
    "tol_fnb": TOLERANCES["tol_fnb"],
    "tol_umbilical": TOLERANCES["tol_umbilical"],
    "tol_gauss": TOLERANCES["tol_gauss"],
    "tol_codazzi": TOLERANCES["tol_codazzi"],
    "tol_dupin": TOLERANCES["tol_dupin"],
    "tol_profile": TOLERANCES["tol_profile"],
}


def cmd_verify_extrinsic(args):
    cfg = _merge(args, _EXTRINSIC_DEFAULTS)
    if cfg["family"] is None or cfg["n"] is None:
        raise ConfigError("verify-extrinsic needs --family and --n")
    member = _member(cfg)
    imm = immersions.build_immersion(cfg["family"], int(cfg["n"]), **member)
    rep = extrinsic.extrinsic_scan(imm, n_points=int(cfg["points"]),
                                   seed=int(cfg["seed"]))
    checks = [
        _check("flat-normal-bundle", rep.flat_normal_max, cfg["tol_fnb"],
               "frame-algebra"),
        _check("gauss-equation", rep.gauss_max, cfg["tol_gauss"],
               "analytic-jet"),
        _check("codazzi", rep.codazzi_max, cfg["tol_codazzi"],
               "finite-difference"),
    ]
    # residuals and Dupin exist only where U has a 2-dimensional complement
    if rep.umbilical_points > 0:
        checks.append(_check("umbilical-residuals", rep.umbilical_residual_max,
                             cfg["tol_umbilical"], "frame-algebra"))
        checks.append(_check("dupin-leaf", rep.dupin_max, cfg["tol_dupin"],
                             "frame-algebra"))
    expect_u = cfg["expect_u_dim"]
    if expect_u is None and geometry.FAMILIES[cfg["family"]].u_dim_codim2 \
            and member["perturb"] == 0.0:
        expect_u = imm.dim - 2
    if expect_u is not None:
        match = 0.0 if rep.u_dim_mode == int(expect_u) else 1.0
        checks.append(_check("umbilical-dimension", match, 0.5,
                             "frame-algebra"))
    if imm.meta.get("kind") == "rotational":
        checks.append(_check("profile-normal-blocks", rep.profile_max,
                             cfg["tol_profile"], "frame-algebra"))
    payload = _report(rep.label, int(cfg["seed"]), checks,
                      {"scan": rep.as_dict()})
    _emit(payload, cfg["out"])
    return _exit_code(payload)


# -- classify-appendix -------------------------------------------------------------------------

_CLASSIFY_DEFAULTS = {
    "family": "schwarzschild",
    "n": 4,
    "m": None,
    "rho": None,
    "points": 12,
    "seed": DEFAULT_SEED,
    "solve": None,
    "out": None,
    "tol_form": TOLERANCES["tol_form"],
}


def cmd_classify_appendix(args):
    cfg = _merge(args, _CLASSIFY_DEFAULTS)
    imm = immersions.build_immersion(cfg["family"], int(cfg["n"]),
                                     **_member(cfg))
    pts = geometry.sample_points(imm, int(cfg["points"]),
                                 seed=int(cfg["seed"]))
    forms = extrinsic.classify_rows(imm, pts, tol=float(cfg["tol_form"]))
    kinds = [form.kind for form in forms]
    eps_vals = {form.eps for form in forms if form.kind == "epsilon"}
    worst = float(np.max([form.residual for form in forms]))
    uniform = 0.0 if (set(kinds) == {"epsilon"} and len(eps_vals) == 1) else 1.0
    checks = [
        _check("epsilon-form-everywhere", uniform, 0.5, "frame-algebra"),
        _check("normal-form-residual", worst, cfg["tol_form"],
               "frame-algebra"),
    ]
    extra = {
        "points": len(pts),
        "kinds": sorted(set(kinds)),
        "eps": sorted(eps_vals),
        "max_residual": worst,
    }
    if cfg["solve"] is not None:
        vals = [float(v) for v in cfg["solve"]]
        if len(vals) != 4:
            raise ConfigError("--solve takes four values")
        p, q, r = extrinsic.solve_normal_form_relations(*vals)
        prod = ((vals[0] * vals[3] - vals[1] * vals[2])
                * (vals[0] * vals[2] - vals[1] * vals[3])
                * (vals[0] * vals[1] - vals[2] * vals[3]))
        extra["solver"] = {"input": vals, "p": p, "q": q, "r": r,
                           "positivity": prod}
        checks.append(_check("solver-positivity", prod, 0.0,
                             "frozen-constant", mode="min"))
    payload = _report(imm.label, int(cfg["seed"]), checks, extra)
    _emit(payload, cfg["out"])
    return _exit_code(payload)


# -- report ---------------------------------------------------------------------------------------

_REPORT_DEFAULTS = {
    "seed": DEFAULT_SEED,
    "points": 20,
    "out": None,
}


def _suite_warp(checks):
    for n in (4, 5, 6, 7, 9):
        sol = warpfunc.integrate(warpfunc.schwarzschild_params(n), 5.0, 1e-3)
        checks.append(_check("drift-n%d" % n, sol.max_drift,
                             TOLERANCES["tol_drift"], "first-integral"))
        ident = warpfunc.schwarzschild_identity_residual(sol.params, sol)
        if n in (4, 5, 6):
            checks.append(_check("identity-n%d" % n, float(np.max(np.abs(ident))),
                                 TOLERANCES["tol_identity"], "closed-form-oracle"))
        if n == 5:
            sol5 = sol
    checks.append(_check("closed-form-n5", warpfunc.closed_form_n5_error(sol5),
                         TOLERANCES["tol_closed_form"], "closed-form-oracle"))


def _fiber_constant(checks, chart, pts, floor):
    """Smallest gap between the fiber's Ricci constant and the (n-3) eps the
    warp needs, over the chart's own sample from one samples_at call; it
    reads no curvature."""
    t = pts[:, 0]
    sample = warpfunc.WarpSample(t, *chart.warp.samples_at(t))
    gap = geometry.fiber_constant_residual(chart.warp.params, sample,
                                           chart.fiber)
    checks.append(_check("fiber-constant-%s" % chart.label,
                         float(np.min(np.abs(gap))), floor,
                         "structural-equation", mode="min"))


def _suite_intrinsic(checks, seed, points):
    # one sample and one exact pass per member, which every check reads
    for family, row in geometry.FAMILIES.items():
        for n, m, rho in row.report:
            chart, rho_val = geometry.chart_for_family(family, n, m=m, rho=rho)
            rep = geometry.verify_einstein(chart, rho_val, n_points=points,
                                           seed=seed, fd_gap=True)
            if row.defect_floor is not None:
                checks.append(_check("defect-%s" % rep.label, rep.einstein_max,
                                     row.defect_floor, rep.provenance,
                                     mode="min"))
                _fiber_constant(checks, chart, rep.points, row.defect_floor)
            else:
                checks.append(_check("einstein-%s" % rep.label,
                                     rep.einstein_max,
                                     TOLERANCES["tol_einstein"], rep.provenance))
                if row.spread is not None:
                    mode, bound = row.spread
                    checks.append(_check("spread-%s" % rep.label,
                                         rep.sectional_spread, bound,
                                         rep.provenance, mode=mode))
            checks.append(_check("fd-gap-%s" % rep.label, rep.fd_gap_max,
                                 TOLERANCES["tol_fd_gap"], "fd-vs-analytic"))
    pert, rho = geometry.chart_for_family("clifford", 5, rho=1.0, perturb=0.05)
    rep = geometry.verify_einstein(pert, rho, n_points=points, seed=seed,
                                   fd_gap=True)
    checks.append(_check("defect-%s" % pert.label, rep.einstein_max, 1e-3,
                         rep.provenance, mode="min"))
    checks.append(_check("fd-gap-%s" % rep.label, rep.fd_gap_max,
                         TOLERANCES["tol_fd_gap"], "fd-vs-analytic"))


def _suite_extrinsic(checks, seed):
    for n in (4, 5, 6):
        imm = immersions.schwarzschild_immersion(n)
        rep = extrinsic.extrinsic_scan(imm, n_points=4, seed=seed)
        tag = rep.label
        checks.append(_check("fnb-%s" % tag, rep.flat_normal_max,
                             TOLERANCES["tol_fnb"], "frame-algebra"))
        checks.append(_check("umbilical-%s" % tag, rep.umbilical_residual_max,
                             TOLERANCES["tol_umbilical"], "frame-algebra"))
        udim = 0.0 if rep.u_dim_mode == n - 2 else 1.0
        checks.append(_check("udim-%s" % tag, udim, 0.5, "frame-algebra"))
        checks.append(_check("gauss-%s" % tag, rep.gauss_max,
                             TOLERANCES["tol_gauss"], "analytic-jet"))
        checks.append(_check("codazzi-%s" % tag, rep.codazzi_max,
                             TOLERANCES["tol_codazzi"], "finite-difference"))
        checks.append(_check("dupin-%s" % tag, rep.dupin_max,
                             TOLERANCES["tol_dupin"], "frame-algebra"))
        checks.append(_check("profile-%s" % tag, rep.profile_max,
                             TOLERANCES["tol_profile"], "frame-algebra"))
    imm = immersions.clifford_immersion(5, 1.0)
    rep = extrinsic.extrinsic_scan(imm, n_points=4, seed=seed)
    checks.append(_check("umbilical-%s" % rep.label,
                         rep.umbilical_residual_max,
                         TOLERANCES["tol_umbilical"], "frame-algebra"))


def _suite_appendix(checks, seed):
    imm = immersions.schwarzschild_immersion(4)
    pts = geometry.sample_points(imm, 10, seed=seed)
    forms = extrinsic.classify_rows(imm, pts)
    ok = all(form.kind == "epsilon" and form.eps == 1 for form in forms)
    worst = float(np.max([form.residual for form in forms]))
    checks.append(_check("appendix-epsilon-form", 0.0 if ok else 1.0, 0.5,
                         "frame-algebra"))
    checks.append(_check("appendix-residual", worst, TOLERANCES["tol_form"],
                         "frame-algebra"))
    p, q, r = extrinsic.solve_normal_form_relations(2.0, 1.0, 1.0, 1.0)
    err = max(abs(p - 1.0), abs(q - 1.0), abs(r - 1.0))
    checks.append(_check("appendix-solver", err, 1e-12, "frozen-constant"))


def cmd_report(args):
    cfg = _merge(args, _REPORT_DEFAULTS)
    seed = int(cfg["seed"])
    points = int(cfg["points"])
    checks = []
    _suite_warp(checks)
    _suite_intrinsic(checks, seed, points)
    _suite_extrinsic(checks, seed)
    _suite_appendix(checks, seed)
    payload = _report("full-suite", seed, checks,
                      {"tolerances": dict(TOLERANCES)})
    _emit(payload, cfg["out"])
    return _exit_code(payload)


# -- argument parsing --------------------------------------------------------------------------------

def _add_common(p, defaults):
    p.add_argument("--config", default=None)
    for key in defaults:
        flag = "--" + key.replace("_", "-")
        if key in ("compare_closed_form", "richardson"):
            p.add_argument(flag, action="store_true", default=None)
        elif key == "solve":
            p.add_argument(flag, nargs=4, type=float, default=None)
        elif key in ("family", "out", "csv"):
            p.add_argument(flag, default=None)
        elif key in ("n", "m", "points", "seed", "count", "res",
                     "expect_u_dim"):
            p.add_argument(flag, type=int, default=None)
        else:
            p.add_argument(flag, type=float, default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="warpgeo",
        description="construct and verify warped-product geometries",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, defaults, fn in (
        ("warp", _WARP_DEFAULTS, cmd_warp),
        ("verify-intrinsic", _INTRINSIC_DEFAULTS, cmd_verify_intrinsic),
        ("build", _BUILD_DEFAULTS, cmd_build),
        ("verify-extrinsic", _EXTRINSIC_DEFAULTS, cmd_verify_extrinsic),
        ("classify-appendix", _CLASSIFY_DEFAULTS, cmd_classify_appendix),
        ("report", _REPORT_DEFAULTS, cmd_report),
    ):
        p = sub.add_parser(name)
        _add_common(p, defaults)
        p.set_defaults(func=fn, defaults=defaults)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        sys.stderr.write("config error: %s\n" % exc)
        return 3
    except WarpgeoError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
