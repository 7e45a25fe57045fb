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

# the one table of tolerances, which every command reads and no option
# changes; report echoes it
TOLERANCES = {
    "tol_drift": 1e-8,
    "tol_closed_form": 1e-9,
    "tol_identity": 1e-9,
    "tol_einstein": 5e-5,
    # the closed form meets the exact pass within 1.4e-14 over report's
    # seeds 0-29; a flipped core term or a jet 1% off misses it by 1e-2
    "tol_oracle": 1e-10,
    "tol_perturbed_defect": 1e-3,
    "tol_ricci_sym": 1e-6,
    "tol_spread_flat": geometry.TOL_SPREAD_FLAT,
    "tol_fnb": 1e-6,
    "tol_umbilical": 1e-6,
    "tol_gauss": 1e-4,
    "tol_codazzi": 1e-6,
    "tol_dupin": 1e-4,
    "tol_profile": 1e-6,
    "tol_form": extrinsic.TOL_FORM,
    "tol_solver": 1e-12,
    "tol_pullback_analytic": 1e-8,
    "tol_pullback_quadrature": 1e-6,
}

# an output path that cannot be written is a configuration error too
_CONFIG_ERRORS = (ConfigError, BadRange, BadDimension, InconsistentParams,
                  WrongFamily, OSError)


# -- config plumbing ---------------------------------------------------------------

# the type of every option, which argparse and config files both read: a
# bool is a switch, a tuple a fixed number of values; a config file may
# give an int where a float is wanted, and null where the default is None
_TYPES = {
    **dict.fromkeys(("family", "out", "csv"), str),
    **dict.fromkeys(("n", "m", "points", "seed", "count", "res",
                     "expect_u_dim"), int),
    **dict.fromkeys(("eps", "rho", "c", "phi0", "dphi0", "t0", "t_end",
                     "step", "perturb"), float),
    "compare_closed_form": bool,
    "solve": (float,) * 4,
}


def _typed(typ, val):
    """val as a value of typ, or None when the JSON value has another type."""
    if isinstance(typ, tuple):
        ok = isinstance(val, list) and len(val) == len(typ)
        vals = [_typed(t, v) for t, v in zip(typ, val)] if ok else [None]
        return None if None in vals else vals
    if isinstance(val, bool) != (typ is bool):
        return None
    if typ is float and isinstance(val, int):
        return float(val)
    return val if isinstance(val, typ) else None


def _load_config(path, allowed):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    if data.pop("schema_version", None) != SCHEMA_VERSION:
        raise ConfigError("config needs schema_version %d" % SCHEMA_VERSION)
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError("unknown config keys: %s" % ", ".join(unknown))
    out = {key: _typed(_TYPES[key], val) for key, val in data.items()}
    for key, val in data.items():
        if out[key] is None and not (val is None and allowed[key] is None):
            raise ConfigError("config key %s: %r is not a value of type %s"
                              % (key, val, _TYPES[key]))
    return out


def _merge(args):
    """Hard defaults, then config file values, then explicit flags."""
    merged = dict(args.defaults)
    if args.config:
        merged.update(_load_config(args.config, args.defaults))
    for key in args.defaults:
        val = getattr(args, key)
        if val is not None:
            merged[key] = val
    return merged


def _check(name, value, tol, provenance, mode="max"):
    ok = np.isfinite(value) and (value <= tol if mode == "max"
                                 else value >= tol)
    return {
        "name": name,
        "status": "pass" if ok else "fail",
        "value": float(value),
        "tolerance": float(tol),
        "comparison": mode,
        "provenance": provenance,
    }


def _builder(label):
    """An empty check list and add(full, short, value, tol, provenance,
    mode) that appends to it: a subcommand (label None) names a check in
    full, report by its short prefix and the member's label."""
    checks = []

    def add(full, short, value, tol, provenance, mode="max"):
        name = full if label is None else "%s-%s" % (short, label)
        checks.append(_check(name, value, tol, provenance, mode))

    return checks, add


def _emit(label, seed, checks, extra, out_path):
    """Write the report to out_path if given, then print it; return its
    exit code. An unwritable out_path raises before anything is printed."""
    overall = "pass" if all(c["status"] == "pass" for c in checks) else "fail"
    text = serialize.to_json(dict(extra, schema_version=SCHEMA_VERSION,
                                  label=label, seed=seed, checks=checks,
                                  overall=overall))
    if out_path:
        serialize.write_text_atomic(out_path, text + "\n")
    sys.stdout.write(text + "\n")
    return 0 if overall == "pass" else 1


def _member(cfg):
    """The family member cfg selects, as keyword arguments of
    geometry.chart_for_family and immersions.build_immersion."""
    if cfg["family"] is None or cfg["n"] is None:
        raise ConfigError("--family and --n are required")
    return {key: cfg[key]
            for key in ("family", "n", "m", "rho", "perturb") if key in cfg}


# -- warp ---------------------------------------------------------------------------

# the warp's parameters and initial state when no --family sets them;
# their options default to None, so one given beside --family shows
_WARP_STATE = dict(eps=1.0, rho=0.0, c=None, phi0=1.0, dphi0=0.0, t0=0.0)

_WARP_DEFAULTS = {
    "family": None,
    "n": None,
    **dict.fromkeys(_WARP_STATE),
    "t_end": 5.0,
    "step": 1e-3,
    "out": None,
    "csv": None,
    "compare_closed_form": False,
}


def _warp(cfg):
    """The family row cfg selects (None without --family) and its warp,
    integrated under the drift gate."""
    family, row = cfg["family"], None
    if family is None:
        if cfg["n"] is None:
            raise ConfigError("warp needs --family or --n")
        params = warpfunc.WarpParams(n=cfg["n"], **{
            key: val if cfg[key] is None else cfg[key]
            for key, val in _WARP_STATE.items()})
    else:
        given = [key for key in _WARP_STATE if cfg[key] is not None]
        if given:
            raise ConfigError("--family sets the warp's state; %s cannot be "
                              "given with it" % ", ".join(given))
        row = geometry.FAMILIES.get(family)
        if row is None or row.warp is None:
            warps = [k for k, r in geometry.FAMILIES.items() if r.warp]
            raise ConfigError("unknown warp family %r; families with a warp: "
                              "%s" % (family, ", ".join(warps)))
        if cfg["n"] is None:
            raise ConfigError("family %r needs --n" % family)
        params = row.warp(cfg["n"])
    return row, warpfunc.integrate(params, cfg["t_end"], cfg["step"],
                                   tol_drift=TOLERANCES["tol_drift"])


def _warp_checks(sol, row, closed_form, label=None):
    """The checks of one warp: the first-integral drift on the scale
    integrate gates on (the raw residual inflates near a positivity floor);
    the identity on a Schwarzschild row, chosen by the row since its guard
    admits a c where it misses its bound; and the n = 5 closed form if
    closed_form asks, as a floor-truncated run misses it near the floor."""
    checks, add = _builder(label)
    params = sol.params
    add("first-integral-drift", "drift",
        float(np.max(warpfunc.relative_drift(params, sol.phi, sol.dphi,
                                             sol.drift))),
        TOLERANCES["tol_drift"], "first-integral")
    if row is not None and row.warp is warpfunc.schwarzschild_params:
        ident = warpfunc.schwarzschild_identity_residual(params, sol)
        add("schwarzschild-identity", "identity", float(np.max(np.abs(ident))),
            TOLERANCES["tol_identity"], "closed-form-oracle")
    if closed_form:
        add("closed-form-error", "closed-form",
            warpfunc.closed_form_n5_error(sol), TOLERANCES["tol_closed_form"],
            "closed-form-oracle")
    return checks


def cmd_warp(cfg):
    row, sol = _warp(cfg)
    checks = _warp_checks(sol, row, cfg["compare_closed_form"])
    extra = {
        "params": sol.params.as_dict(),
        "t_min": sol.t_min,
        "t_max": sol.t_max,
        "samples": len(sol.t),
        "truncated": sol.truncated,
        "max_drift": sol.max_drift,
        "constant_curvature": warpfunc.constant_curvature_value(sol.params),
    }
    if cfg["csv"]:
        warpfunc.write_solution_csv(sol, cfg["csv"])
        extra["csv"] = cfg["csv"]
    if cfg["out"]:
        warpfunc.write_solution_json(sol, cfg["out"])
    return _emit("warp", DEFAULT_SEED, checks, extra, None)


# -- verify-intrinsic ------------------------------------------------------------------

_INTRINSIC_DEFAULTS = {
    "family": None,
    "n": None,
    "m": None,
    "rho": None,
    "points": 24,
    "seed": DEFAULT_SEED,
    "perturb": 0.0,
    "out": None,
}


def _intrinsic_checks(rep, row, chart, floor=None, label=None):
    """The checks of one intrinsic pass, chosen by its family row and not
    by what the pass found, as _extrinsic_checks chooses. A defect row, or
    a member report expects to miss by floor, asks the Einstein residual
    to reach that floor, and a defect row adds the gap between the
    fiber's Ricci constant and the (n-3) eps the warp needs, read from the
    warp's parameters alone; any other member bounds the residual
    and, where the row says, the sectional spread. Every member adds
    Ricci's symmetry and the gap to the chart's closed-form Ricci, which
    fails on a chart without one."""
    checks, add = _builder(label)
    if floor is None:
        floor = row.defect_floor
    if floor is not None:
        add("einstein-defect", "defect", rep.einstein_max, floor,
            rep.provenance, "min")
    else:
        add("einstein-residual", "einstein", rep.einstein_max,
            TOLERANCES["tol_einstein"], rep.provenance)
        if row.spread is not None:
            mode, bound = row.spread
            add("sectional-spread", "spread", rep.sectional_spread, bound,
                rep.provenance, mode)
    if row.defect_floor is not None:
        gap = geometry.fiber_constant_residual(chart.warp.params, chart.fiber)
        add("fiber-constant", "fiber-constant", abs(gap),
            row.defect_floor, "structural-equation", "min")
    add("ricci-symmetry", "ricci-sym", rep.ricci_sym_max,
        TOLERANCES["tol_ricci_sym"], rep.provenance)
    add("oracle", "oracle", rep.oracle_max, TOLERANCES["tol_oracle"],
        "closed-form-oracle")
    return checks


def cmd_verify_intrinsic(cfg):
    chart, rho = geometry.chart_for_family(**_member(cfg))
    rep = geometry.verify_einstein(chart, rho, n_points=cfg["points"],
                                   seed=cfg["seed"])
    # chart_for_family has rejected an unknown family by now
    checks = _intrinsic_checks(rep, geometry.FAMILIES[cfg["family"]], chart)
    return _emit(rep.label, cfg["seed"], checks,
                 {"curvature": rep.as_dict(), "rho": rho}, cfg["out"])


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
    """The build record, derived from the immersion's chart and base."""
    fiber = imm.chart.fiber
    meta = {"kind": imm.base,
            "fiber": {"dims": list(fiber.dims),
                      "radii": [float(r) for r in fiber.radii],
                      "offset": float(fiber.offset)}}
    if imm.base == "rotational":
        sol = imm.chart.warp
        meta["warp"] = {"params": sol.params.as_dict(), "t_min": sol.t_min,
                        "t_max": sol.t_max, "step": sol.step}
    elif imm.base != "product":
        # s is the inverse fiber radius _warped_product calibrates with
        meta.update(kind="composite", base=imm.base,
                    s=1.0 / fiber.ambient_radius(),
                    base_curvature=warpfunc.constant_curvature_value(
                        imm.chart.warp.params))
    return {
        "schema_version": SCHEMA_VERSION,
        "label": imm.label,
        "dim": imm.dim,
        "ambient_dim": imm.ambient_dim,
        "rho": imm.rho,
        "sample_box": imm.sample_box.tolist(),
        "meta": meta,
    }


def cmd_build(cfg):
    member = _member(cfg)
    if min(cfg["count"], cfg["res"]) < 1:
        raise ConfigError("--count and --res must be at least 1")
    imm = immersions.build_immersion(**member)
    # every file is rendered, and so checked, before the first is written
    files = {
        ".csv": immersions.points_csv(imm, count=cfg["count"],
                                      seed=cfg["seed"]),
        ".obj": immersions.surface_obj(imm, res=cfg["res"]),
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
}


def _extrinsic_checks(rep, row, expect_u=None, label=None):
    """The checks of one extrinsic scan, chosen by its family row and not
    by what the scan found, so an expected check without evidence fails
    on its NaN. Every row gets the flat normal bundle, Gauss, realization
    (bounded like a pullback: analytic without a warp, quadrature with
    one) and Codazzi; u_dim_codim2 adds the umbilical residuals, U's
    dimension (n-2 unless expect_u says otherwise) and Dupin; a rotational
    base adds the profile."""
    checks, add = _builder(label)
    if expect_u is None and row.u_dim_codim2:
        expect_u = rep.dim - 2
    add("flat-normal-bundle", "fnb", rep.flat_normal_max,
        TOLERANCES["tol_fnb"], "frame-algebra")
    if row.u_dim_codim2:
        add("umbilical-residuals", "umbilical", rep.umbilical_residual_max,
            TOLERANCES["tol_umbilical"], "frame-algebra")
    if expect_u is not None:
        add("umbilical-dimension", "udim",
            0.0 if rep.u_dim_mode == expect_u else 1.0, 0.5, "frame-algebra")
    add("gauss-equation", "gauss", rep.gauss_max, TOLERANCES["tol_gauss"],
        "closed-form-oracle")
    add("realization", "realization", rep.realization_max,
        TOLERANCES["tol_pullback_quadrature" if row.warp
                   else "tol_pullback_analytic"], "analytic-jet")
    add("codazzi", "codazzi", rep.codazzi_max, TOLERANCES["tol_codazzi"],
        "finite-difference")
    if row.u_dim_codim2:
        add("dupin-leaf", "dupin", rep.dupin_max, TOLERANCES["tol_dupin"],
            "frame-algebra")
    if row.base == "rotational":
        add("profile-normal-blocks", "profile", rep.profile_max,
            TOLERANCES["tol_profile"], "frame-algebra")
    return checks


def cmd_verify_extrinsic(cfg):
    imm = immersions.build_immersion(**_member(cfg))
    rep = extrinsic.extrinsic_scan(imm, n_points=cfg["points"],
                                   seed=cfg["seed"])
    # build_immersion has rejected an unknown family by now
    checks = _extrinsic_checks(rep, geometry.FAMILIES[cfg["family"]],
                               cfg["expect_u_dim"])
    return _emit(rep.label, cfg["seed"], checks, {"scan": rep.as_dict()},
                 cfg["out"])


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
}


def _appendix_checks(imm, points, seed, solve, label=None):
    """The checks and payload of the normal forms at imm's sample: every
    point in epsilon form with one common eps. solve = (a, b, c, d) adds the
    solver's (p, q, r) and how far it misses pq = ad - bc, pr = ac - bd and
    qr = ab - cd, over 1 + the largest right-hand side."""
    checks, add = _builder(label)
    pts = geometry.sample_points(imm, points, seed=seed)
    forms = extrinsic.classify_rows(imm, pts)
    kinds = sorted({form.kind for form in forms})
    eps = sorted({form.eps for form in forms if form.kind == "epsilon"})
    worst = float(np.max([form.residual for form in forms]))
    uniform = 0.0 if kinds == ["epsilon"] and len(eps) == 1 else 1.0
    add("epsilon-form-everywhere", "epsilon-form", uniform, 0.5,
        "frame-algebra")
    add("normal-form-residual", "normal-form", worst, TOLERANCES["tol_form"],
        "frame-algebra")
    payload = {"points": len(pts), "kinds": kinds, "eps": eps,
               "max_residual": worst}
    if solve is not None:
        p, q, r = extrinsic.solve_normal_form_relations(*solve)
        rhs = extrinsic.normal_form_factors(*solve)
        miss = max(abs(p * q - rhs[0]), abs(p * r - rhs[1]),
                   abs(q * r - rhs[2])) / (1.0 + max(map(abs, rhs)))
        payload["solver"] = {"input": list(solve), "p": p, "q": q, "r": r}
        add("solver-relations", "solver", miss, TOLERANCES["tol_solver"],
            "frame-algebra")
    return checks, payload


def cmd_classify_appendix(cfg):
    imm = immersions.build_immersion(**_member(cfg))
    checks, extra = _appendix_checks(imm, cfg["points"], cfg["seed"],
                                     cfg["solve"])
    return _emit(imm.label, cfg["seed"], checks, extra, cfg["out"])


# -- report ---------------------------------------------------------------------------------------

_REPORT_DEFAULTS = {
    "seed": DEFAULT_SEED,
    "points": 20,
    "out": None,
}


def _suite_intrinsic(checks, seed, points):
    # one sample and one exact pass per member, which every check reads;
    # the Clifford member with one radius 5% too large must show its defect
    members = [(family, n, m, rho, 0.0, None)
               for family, row in geometry.FAMILIES.items()
               for n, m, rho in row.report]
    members.append(("clifford", 5, None, 1.0, 0.05,
                    TOLERANCES["tol_perturbed_defect"]))
    for family, n, m, rho, perturb, floor in members:
        chart, rho_val = geometry.chart_for_family(family, n, m=m, rho=rho,
                                                   perturb=perturb)
        rep = geometry.verify_einstein(chart, rho_val, n_points=points,
                                       seed=seed)
        checks.extend(_intrinsic_checks(rep, geometry.FAMILIES[family], chart,
                                        floor, label=rep.label))


def cmd_report(cfg):
    """The four subcommands' checks, each from its subcommand's builder,
    on fixed members named by prefix and label."""
    checks = []
    for n in (4, 5, 6, 7, 9):
        row, sol = _warp(dict(_WARP_DEFAULTS, family="schwarzschild", n=n))
        checks += _warp_checks(sol, row, n == 5, label="schwarzschild-n%d" % n)
    _suite_intrinsic(checks, cfg["seed"], cfg["points"])
    for family, row in geometry.FAMILIES.items():
        for n, m, rho in row.scan:
            imm = immersions.build_immersion(family, n, m=m, rho=rho)
            rep = extrinsic.extrinsic_scan(imm, n_points=4, seed=cfg["seed"])
            checks += _extrinsic_checks(rep, row, label=rep.label)
    imm = immersions.build_immersion(**_member(_CLASSIFY_DEFAULTS))
    checks += _appendix_checks(imm, _CLASSIFY_DEFAULTS["points"], cfg["seed"],
                               (2.0, 1.0, 1.0, 1.0), label=imm.label)[0]
    return _emit("full-suite", cfg["seed"], checks,
                 {"tolerances": dict(TOLERANCES)}, cfg["out"])


# -- argument parsing --------------------------------------------------------------------------------

def _config_error(message):
    """argparse's error hook: a malformed flag is a configuration error
    (exit 3), not argparse's exit 2."""
    raise ConfigError(message)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="warpgeo",
        description="construct and verify warped-product geometries",
    )
    parser.error = _config_error
    sub = parser.add_subparsers(dest="command", required=True)
    for name, defaults, fn in (
        ("warp", _WARP_DEFAULTS, cmd_warp),
        ("verify-intrinsic", _INTRINSIC_DEFAULTS, cmd_verify_intrinsic),
        ("build", _BUILD_DEFAULTS, cmd_build),
        ("verify-extrinsic", _EXTRINSIC_DEFAULTS, cmd_verify_extrinsic),
        ("classify-appendix", _CLASSIFY_DEFAULTS, cmd_classify_appendix),
        ("report", _REPORT_DEFAULTS, cmd_report),
    ):
        # no abbreviations: a removed flag such as --h must not become --help
        p = sub.add_parser(name, allow_abbrev=False)
        p.error = _config_error
        p.add_argument("--config", default=None)
        for key in defaults:
            flag, typ = "--" + key.replace("_", "-"), _TYPES[key]
            if typ is bool:
                p.add_argument(flag, action="store_true", default=None)
            elif isinstance(typ, tuple):
                p.add_argument(flag, nargs=len(typ), type=typ[0], default=None)
            else:
                p.add_argument(flag, type=typ, default=None)
        p.set_defaults(func=fn, defaults=defaults)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(_merge(args))
    except _CONFIG_ERRORS as exc:
        sys.stderr.write("config error: %s\n" % exc)
        return 3
    except WarpgeoError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
