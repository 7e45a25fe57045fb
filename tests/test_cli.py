import dataclasses
import json
import math
import os
from collections import Counter

import pytest

from warpgeo import (cli, extrinsic, geometry, immersions, sampling,
                     serialize, warpfunc)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


class TestWarp:
    def test_family_drift_summary(self, capsys, tmp_path):
        csv = str(tmp_path / "s5.csv")
        code, doc = run(capsys, "warp", "--family", "schwarzschild",
                        "--n", "5", "--t-end", "5", "--csv", csv)
        assert code == 0
        assert doc["overall"] == "pass"
        drift = doc["checks"][0]
        assert drift["name"] == "first-integral-drift"
        assert drift["value"] <= 1e-8
        assert os.path.exists(csv)
        with open(csv) as fh:
            assert fh.readline().startswith("t,phi,dphi")

    def test_closed_form_comparison(self, capsys):
        code, doc = run(capsys, "warp", "--n", "5", "--c", "-1",
                        "--compare-closed-form")
        assert code == 0
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name["closed-form-error"]["value"] <= 1e-9
        assert by_name["closed-form-error"]["provenance"] == "closed-form-oracle"

    @pytest.mark.parametrize("state", [
        ("--phi0", "1", "--dphi0", "0.5"),  # a = -0.5
        ("--t0", "0.7", "--c", "-1"),       # a = 0.7
        ("--family", "schwarzschild"),      # a = 0
    ])
    def test_closed_form_follows_the_translation(self, capsys, state):
        # phi^2 = (t - a)^2 - c with a = t0 - phi0 phi0' from the state;
        # against sqrt(t^2 - c) the first state reads 0.5
        code, doc = run(capsys, "warp", "--n", "5", *state,
                        "--compare-closed-form")
        assert code == 0
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name["closed-form-error"]["value"] <= 1e-13

    @pytest.mark.parametrize("family,identity", [("schwarzschild", True),
                                                 ("extra-codim", False)])
    def test_identity_is_chosen_by_the_row(self, capsys, family, identity):
        code, doc = run(capsys, "warp", "--family", family, "--n", "7")
        assert code == 0
        names = [c["name"] for c in doc["checks"]]
        assert ("schwarzschild-identity" in names) == identity
        # phi0 9e-10 off Schwarzschild n5: the identity's guard admits this
        # c, yet the identity reads 1.8e-9, above tol_identity, so a check
        # chosen by c would fail a correct run; without a row there is none
        params = warpfunc.WarpParams(n=5, eps=1.0, rho=0.0, t0=0.0,
                                     phi0=1.0000000009, dphi0=0.0)
        sol = warpfunc.integrate(params, 5.0)
        ident = warpfunc.schwarzschild_identity_residual(params, sol)
        assert abs(ident).max() > cli.TOLERANCES["tol_identity"]
        code, doc = run(capsys, "warp", "--n", "5", "--phi0", "1.0000000009")
        assert code == 0
        assert [c["name"] for c in doc["checks"]] == ["first-integral-drift"]

    def test_constant_curvature_reported(self, capsys):
        code, doc = run(capsys, "warp", "--c", "0", "--rho", "4",
                        "--n", "5", "--eps", "1")
        assert code == 0
        assert doc["constant_curvature"] == 1.0

    def test_solution_json_roundtrip(self, capsys, tmp_path):
        out = str(tmp_path / "sol.json")
        code, _ = run(capsys, "warp", "--family", "schwarzschild",
                      "--n", "4", "--out", out)
        assert code == 0
        with open(out) as fh:
            doc = json.load(fh)
        assert doc["kind"] == "warp_solution"

    def test_inconsistent_c_is_config_error(self, capsys):
        code, _ = run(capsys, "warp", "--n", "5", "--c", "7")
        assert code == 3

    def test_non_finite_c_is_config_error(self, capsys):
        # phi0^6 overflows, so the derived c is NaN
        assert cli.main(["warp", "--n", "9", "--phi0", "1e200",
                         "--dphi0", "1"]) == 3
        assert "config error: c derived" in capsys.readouterr().err

    def test_coarse_step_is_computation_error(self, capsys):
        code, _ = run(capsys, "warp", "--family", "schwarzschild",
                      "--n", "4", "--t-end", "20", "--step", "0.5")
        assert code == 2

    def test_missing_selector_is_config_error(self, capsys):
        code, _ = run(capsys, "warp")
        assert code == 3

    @pytest.mark.parametrize("key", ["eps", "rho", "c", "phi0", "dphi0", "t0"])
    def test_family_rejects_a_given_state(self, capsys, tmp_path, key):
        # the family row sets the warp's parameters and initial state; one
        # given beside it, as a flag or a config key, would be dropped
        code, _ = run(capsys, "warp", "--family", "round", "--n", "5",
                      "--" + key, "1")
        assert code == 3
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, key: 1.0}))
        assert cli.main(["warp", "--family", "round", "--n", "5",
                         "--config", str(cfg)]) == 3
        assert "config error: " in capsys.readouterr().err

    def test_family_takes_end_and_step(self, capsys):
        code, doc = run(capsys, "warp", "--family", "round", "--n", "5",
                        "--t-end", "1.2", "--step", "0.002")
        assert code == 0
        assert doc["params"] == warpfunc.sin_params(5, t0=0.15).as_dict()
        assert doc["t_max"] == pytest.approx(1.2)
        assert doc["samples"] == round((1.2 - 0.15) / 0.002) + 1


class TestVerifyIntrinsic:
    def test_clifford_passes(self, capsys):
        code, doc = run(capsys, "verify-intrinsic", "--family", "clifford",
                        "--n", "5", "--rho", "1", "--points", "8")
        assert code == 0
        assert doc["overall"] == "pass"
        assert doc["curvature"]["provenance"] == "analytic-jet"
        assert doc["curvature"]["chart_rows"] == 8   # one jet row a point

    def test_perturbed_clifford_fails(self, capsys):
        code, doc = run(capsys, "verify-intrinsic", "--family", "clifford",
                        "--n", "5", "--rho", "1", "--points", "8",
                        "--perturb", "0.05")
        assert code == 1
        assert doc["checks"][0]["value"] > 1e-3

    def test_defect_expectation_passes_on_mismatched_fiber(self, capsys):
        # the row's defect floor, not a flag, says the residual must reach 0.2
        code, doc = run(capsys, "verify-intrinsic", "--family",
                        "round-torus-composite", "--n", "7", "--m", "2",
                        "--points", "6")
        assert code == 0
        defect, fiber, sym, gap = doc["checks"]
        assert (defect["name"], defect["comparison"]) == ("einstein-defect",
                                                          "min")
        assert defect["tolerance"] == fiber["tolerance"] == 0.2
        assert fiber["name"] == "fiber-constant"
        assert (sym["name"], gap["name"]) == ("ricci-symmetry", "oracle")

    def test_unknown_family_is_config_error(self, capsys):
        code, _ = run(capsys, "verify-intrinsic", "--family", "nope", "--n", "5")
        assert code == 3

    def test_report_deterministic(self, capsys, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        for path in (a, b):
            code, _ = run(capsys, "verify-intrinsic", "--family",
                          "schwarzschild", "--n", "5", "--points", "6",
                          "--out", path)
            assert code == 0
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()


@pytest.mark.parametrize("argv", [
    ["warp", "--n", "5", "--step", "0"],
    ["warp", "--n", "5", "--step", "nan"],
    ["verify-intrinsic", "--family", "round", "--n", "5", "--points", "0"],
    ["verify-extrinsic", "--family", "schwarzschild", "--n", "5",
     "--points", "0"],
    ["classify-appendix", "--points", "0"],
    ["report", "--points", "0"],
    ["warp", "--n", "5", "--eps", "nan"],
    ["warp", "--n", "5", "--c", "nan"],
    ["warp", "--n", "5", "--t0", "nan"],
    ["warp", "--n", "5", "--phi0", "inf"],
    ["warp", "--n", "5", "--t-end", "nan"],
    ["warp", "--n", "5", "--rho", "inf"],
    ["warp", "--n", "5", "--dphi0", "nan"],
    ["verify-intrinsic", "--family", "clifford", "--n", "5", "--rho", "1",
     "--perturb", "nan"],
    ["verify-intrinsic", "--family", "clifford", "--n", "5", "--rho", "1",
     "--perturb", "inf"],
    ["verify-extrinsic", "--family", "clifford", "--n", "5", "--rho", "1",
     "--perturb", "nan"],
    ["verify-extrinsic", "--family", "clifford", "--n", "5", "--rho", "1",
     "--perturb", "inf"],
    ["warp", "--n", "5", "--step", "inf"],
])
def test_no_evidence_is_config_error(capsys, argv):
    # a zero or NaN step gives NaN residuals and an infinite one a single
    # step over the whole span, zero points give no residuals, a
    # non-finite warp parameter gives a NaN or collapsing trajectory, a
    # non-finite --perturb a non-finite fiber radius
    code, _ = run(capsys, *argv)
    assert code == 3


_OWN_RHO = [k for k, row in geometry.FAMILIES.items()
            if row.warp is not None or row.rho is not None]


@pytest.mark.parametrize("command", ["verify-intrinsic", "verify-extrinsic",
                                     "build"])
@pytest.mark.parametrize("family", _OWN_RHO)
def test_rho_for_a_row_that_sets_its_own_is_config_error(capsys, tmp_path,
                                                         command, family):
    # every warped row takes rho from its warp and sphere from n; a --rho
    # beside them would be dropped without a word
    argv = [command, "--family", family, "--n", "7", "--rho", "3"]
    if geometry.FAMILIES[family].needs_m:
        argv += ["--m", "2"]
    if command == "build":
        argv += ["--out", str(tmp_path)]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: %s sets its own rho" % family)
    assert os.listdir(str(tmp_path)) == []


@pytest.mark.parametrize("argv,config", [
    (["verify-intrinsic", "--family", "round", "--n", "abc"], None),
    (["verify-intrinsic", "--family", "round", "--n", "5", "--bogus", "1"],
     None),
    (["verify-extrinsic", "--family", "schwarzschild", "--n", "5",
      "--tol-gauss", "1"], None),
    (["verify-intrinsic", "--family", "round"], {"n": "five"}),
    (["verify-intrinsic", "--family", "round", "--n", "5"],
     {"points": "six"}),
    (["verify-intrinsic", "--family", "round", "--n", "5"], {"points": 6.5}),
    (["warp", "--n", "5"], {"compare_closed_form": 1}),
    (["classify-appendix"], {"solve": [2, 1, "1", 1]}),
    (["classify-appendix", "--solve", "inf", "1", "1", "1"], None),
    (["classify-appendix", "--solve", "1", "nan", "1", "1"], None),
    (["verify-extrinsic", "--family", "schwarzschild", "--n", "5"],
     {"tol_gauss": 1.0}),
    # warp reads no fiber dimension, so it takes no --m
    (["warp", "--n", "5", "--m", "3"], None),
    (["warp", "--n", "5"], {"m": 3}),
    # removed flags; --h must not be read as an abbreviation of --help
    (["verify-intrinsic", "--family", "round", "--n", "5", "--richardson"],
     None),
    (["verify-intrinsic", "--family", "round", "--n", "5", "--h", "1e-3"],
     None),
    (["verify-intrinsic", "--family", "round-torus-composite", "--n", "7",
      "--m", "2", "--expect-not-einstein", "0.2"], None),
    (["verify-intrinsic", "--family", "round", "--n", "5"],
     {"richardson": True}),
    (["verify-intrinsic", "--family", "round", "--n", "5"], {"h": 1e-3}),
    (["verify-intrinsic", "--family", "round-torus-composite", "--n", "7",
      "--m", "2"], {"expect_not_einstein": 0.2}),
    # sampling takes no negative seed and at most 15 dimensions
    (["report", "--seed", "-1"], None),
    (["verify-intrinsic", "--family", "round", "--n", "16"], None),
], ids=["flag-type", "unknown-flag", "tolerance-flag", "config-n",
        "config-points", "config-float-for-int", "config-int-for-bool",
        "config-solve", "solve-inf", "solve-nan", "config-tolerance", "warp-m-flag", "warp-m-config",
        "richardson-flag", "h-flag", "expect-not-einstein-flag",
        "richardson-config", "h-config", "expect-not-einstein-config",
        "negative-seed", "sample-dimension"])
def test_malformed_input_is_config_error(capsys, tmp_path, argv, config):
    # a malformed flag or config value exits 3 with a config error, neither
    # argparse's 2 (a computation error) nor a traceback's 1 (a failed check)
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(config, schema_version=1)))
        argv = argv + ["--config", str(path)]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("argv", [
    ["verify-intrinsic", "--family", "round", "--n", "5", "--points", "4",
     "--out"],
    ["warp", "--n", "5", "--t-end", "1", "--csv"],
    ["build", "--family", "schwarzschild", "--n", "5", "--count", "4",
     "--res", "4", "--out"],
], ids=["verify-intrinsic-out", "warp-csv", "build-out"])
def test_unwritable_output_is_config_error(capsys, tmp_path, argv):
    # a path under a regular file cannot be written, not even by root; that
    # is a config error, not a traceback's 1, and nothing is printed; the
    # message names the path asked for, not a temp file beside it
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert cli.main(argv + [str(blocker / "x")]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert str(blocker / "x") in captured.err
    assert captured.out == ""


def test_every_typed_option_is_an_option():
    # a removed option must not leave its type behind
    tables = (cli._WARP_DEFAULTS, cli._INTRINSIC_DEFAULTS, cli._BUILD_DEFAULTS,
              cli._EXTRINSIC_DEFAULTS, cli._CLASSIFY_DEFAULTS,
              cli._REPORT_DEFAULTS)
    assert set(cli._TYPES) == set().union(*tables)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", "--help"])
    assert exc.value.code == 0
    assert "--points" in capsys.readouterr().out


class TestConfigFile:
    def test_config_supplies_values(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(serialize.to_json({
            "schema_version": 1, "family": "clifford", "n": 5,
            "rho": 1.0, "points": 6,
        }))
        code, doc = run(capsys, "verify-intrinsic", "--config", str(cfg))
        assert code == 0
        assert doc["label"].startswith("clifford")

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(serialize.to_json({
            "schema_version": 1, "family": "clifford", "n": 5,
            "rho": 1.0, "points": 6,
        }))
        code, doc = run(capsys, "verify-intrinsic", "--config", str(cfg),
                        "--n", "6", "--rho", "2")
        assert code == 0
        assert doc["label"] == "clifford-n6"
        assert doc["rho"] == 2.0

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(serialize.to_json({
            "schema_version": 1, "family": "clifford", "n": 5,
            "rho": 1.0, "bogus_knob": 3,
        }))
        code, _ = run(capsys, "verify-intrinsic", "--config", str(cfg))
        assert code == 3

    def test_values_are_typed_by_the_option(self, capsys, tmp_path):
        # an int stands for a float, a list for --solve's four values
        cfg = tmp_path / "run.json"
        cfg.write_text(serialize.to_json({
            "schema_version": 1, "points": 10, "solve": [2, 1, 1.0, 1],
        }))
        code, doc = run(capsys, "classify-appendix", "--config", str(cfg))
        assert code == 0
        assert doc["solver"]["input"] == [2.0, 1.0, 1.0, 1.0]
        assert doc["solver"]["p"] == pytest.approx(1.0)

    def test_missing_schema_version_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(serialize.to_json({"family": "clifford", "n": 5}))
        code, _ = run(capsys, "verify-intrinsic", "--config", str(cfg))
        assert code == 3


class TestBuild:
    def test_rotational_mesh_and_spec(self, capsys, tmp_path):
        out = str(tmp_path)
        code, doc = run(capsys, "build", "--family", "schwarzschild",
                        "--n", "5", "--out", out, "--count", "32",
                        "--res", "8")
        assert code == 0
        base = os.path.join(out, "schwarzschild-n5")
        for ext in (".csv", ".obj", ".json"):
            assert os.path.exists(base + ext)
        with open(base + ".json") as fh:
            spec = json.load(fh)
        assert spec["meta"]["kind"] == "rotational"
        assert spec["ambient_dim"] == 7

    @pytest.mark.parametrize("family", [
        k for k, row in geometry.FAMILIES.items() if row.base is not None])
    def test_spec_is_derived_from_chart_and_base(self, capsys, tmp_path,
                                                 family):
        # the record holds the fiber for every base; a rotational base adds
        # the chart's warp, a composite base its name, the s that makes
        # s R = 1 and the base curvature its warp's parameters give
        row = geometry.FAMILIES[family]
        member = {"m": 2 if row.needs_m else None,
                  "rho": 2.0 if row.warp is None and row.rho is None
                  else None}
        argv = ["build", "--family", family, "--n", "7", "--out",
                str(tmp_path), "--count", "4", "--res", "3"]
        argv += ["--m", "2"] if member["m"] else []
        argv += ["--rho", "2"] if member["rho"] else []
        code, _ = run(capsys, *argv)
        assert code == 0
        imm = immersions.build_immersion(family, 7, **member)
        with open(os.path.join(str(tmp_path), imm.label + ".json")) as fh:
            meta = json.load(fh)["meta"]
        fiber = imm.chart.fiber
        assert meta.pop("fiber") == {"dims": list(fiber.dims),
                                     "radii": list(fiber.radii),
                                     "offset": fiber.offset}
        if row.base == "product":
            assert meta == {"kind": "product"}
        elif row.base == "rotational":
            sol = imm.chart.warp
            assert meta == {"kind": "rotational", "warp": {
                "params": sol.params.as_dict(), "t_min": sol.t_min,
                "t_max": sol.t_max, "step": sol.step}}
        else:
            assert (meta["kind"], meta["base"]) == ("composite", row.base)
            assert meta["s"] * fiber.ambient_radius() == pytest.approx(
                1.0, abs=1e-14)
            assert meta["base_curvature"] == warpfunc.constant_curvature_value(
                imm.chart.warp.params)
            assert set(meta) == {"kind", "base", "s", "base_curvature"}

    def test_clifford_product_csv(self, capsys, tmp_path):
        code, _ = run(capsys, "build", "--family", "clifford", "--n", "5",
                      "--rho", "1", "--out", str(tmp_path),
                      "--count", "16", "--res", "6")
        assert code == 0
        assert os.path.exists(os.path.join(str(tmp_path), "clifford-n5.csv"))


    def test_failed_check_writes_nothing(self, capsys, tmp_path):
        # the circle has no third ambient axis for the mesh; that check
        # must fail before the CSV, the first file, is written
        code, _ = run(capsys, "build", "--family", "sphere", "--n", "1",
                      "--out", str(tmp_path), "--count", "8", "--res", "4")
        assert code == 3
        assert os.listdir(str(tmp_path)) == []

    @pytest.mark.parametrize("flag,value", [("--count", "0"), ("--res", "0"),
                                            ("--count", "-1"), ("--res", "-3")])
    def test_count_and_res_below_one_are_config_errors(self, capsys, tmp_path,
                                                       flag, value):
        code, _ = run(capsys, "build", "--family", "schwarzschild", "--n", "5",
                      "--out", str(tmp_path), flag, value)
        assert code == 3
        assert os.listdir(str(tmp_path)) == []


class TestVerifyExtrinsic:
    def test_rotational_passes(self, capsys):
        code, doc = run(capsys, "verify-extrinsic", "--family",
                        "schwarzschild", "--n", "5", "--points", "3")
        assert code == 0
        names = {c["name"] for c in doc["checks"]}
        assert {"flat-normal-bundle", "gauss-equation", "realization",
                "codazzi", "umbilical-residuals", "dupin-leaf",
                "umbilical-dimension", "profile-normal-blocks"} <= names
        # own rows and 1 Codazzi block, whose derivative Dupin reads; Gauss
        # reads the chart, not the immersion
        assert (doc["scan"]["jet_calls"], doc["scan"]["jet_rows"]) == (2, 33)

    def test_ricci_flat_composite_passes_gauss(self, capsys):
        # finite-difference Ricci read 1.05e-4 here against the 1e-4 bound
        code, doc = run(capsys, "verify-extrinsic", "--family",
                        "flat-torus-composite", "--n", "7", "--m", "2",
                        "--points", "12", "--seed", "21")
        assert code == 0
        gauss = {c["name"]: c for c in doc["checks"]}["gauss-equation"]
        assert gauss["provenance"] == "closed-form-oracle"
        assert gauss["value"] <= 1e-10

    def test_perturbed_clifford_fails_umbilical(self, capsys):
        code, doc = run(capsys, "verify-extrinsic", "--family", "clifford",
                        "--n", "5", "--rho", "1", "--points", "3",
                        "--perturb", "0.05")
        assert code == 1
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name["umbilical-residuals"]["status"] == "fail"
        assert by_name["flat-normal-bundle"]["status"] == "pass"

    def test_no_umbilical_pass_without_evidence(self, capsys):
        code, doc = run(capsys, "verify-extrinsic", "--family",
                        "flat-torus-composite", "--n", "7", "--m", "2",
                        "--points", "4")
        names = {c["name"] for c in doc["checks"]}
        assert not {"umbilical-residuals", "dupin-leaf"} & names
        assert doc["scan"]["umbilical_points"] == 0
        assert math.isnan(doc["scan"]["umbilical_residual_max"])
        assert math.isnan(doc["scan"]["dupin_max"])

    def test_expected_checks_fail_without_evidence(self, capsys,
                                                   monkeypatch):
        # the row expects an umbilical group of dimension n-2; a scan that
        # found no split point has no residuals, and their NaN must fail
        scan = extrinsic.extrinsic_scan

        def no_split(*args, **kwargs):
            return dataclasses.replace(
                scan(*args, **kwargs), umbilical_points=0,
                umbilical_residual_max=math.nan, dupin_max=math.nan)

        monkeypatch.setattr(extrinsic, "extrinsic_scan", no_split)
        code, doc = run(capsys, "verify-extrinsic", "--family",
                        "schwarzschild", "--n", "5", "--points", "3")
        assert code == 1
        status = {c["name"]: c["status"] for c in doc["checks"]}
        assert status["umbilical-residuals"] == "fail"
        assert status["dupin-leaf"] == "fail"
        assert status["gauss-equation"] == "pass"

    def test_chart_with_rescaled_factor_fails_realization(self, capsys,
                                                         monkeypatch):
        # Ricci cannot see a round factor's radius; the metric can
        imm = dataclasses.replace(
            immersions.build_immersion("clifford", 5, rho=1.0),
            chart=geometry.chart_for_family("clifford", 5, rho=1.0,
                                            perturb=0.05)[0])
        monkeypatch.setattr(immersions, "build_immersion",
                            lambda *args, **kwargs: imm)
        code, doc = run(capsys, "verify-extrinsic", "--family", "clifford",
                        "--n", "5", "--rho", "1", "--points", "4")
        assert code == 1
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name["gauss-equation"]["status"] == "pass"
        assert by_name["realization"]["status"] == "fail"
        assert by_name["realization"]["tolerance"] == 1e-8

    def test_composite_with_expected_split(self, capsys):
        code, doc = run(capsys, "verify-extrinsic", "--family",
                        "flat-torus-composite", "--n", "7", "--m", "2",
                        "--points", "3", "--expect-u-dim", "3")
        assert code == 0


class TestClassifyAppendix:
    def test_epsilon_form_with_solver(self, capsys):
        code, doc = run(capsys, "classify-appendix", "--points", "10",
                        "--solve", "2", "1", "1", "1")
        assert code == 0
        assert doc["eps"] == [1]
        assert doc["kinds"] == ["epsilon"]
        assert doc["max_residual"] <= 1e-6
        assert doc["solver"]["p"] == pytest.approx(1.0)
        relations = {c["name"]: c for c in doc["checks"]}["solver-relations"]
        assert relations["status"] == "pass"
        assert relations["value"] <= cli.TOLERANCES["tol_solver"]

    @pytest.mark.parametrize("solve,want", [
        (("1e200", "1", "1", "1"), 2),      # r1 r2 overflows: p = inf
        (("1", "1", "1", "1e160"), 2),      # p = inf, q and r finite
        (("1", "1", "1e100", "1e300"), 2),  # r3 = -inf: p, q, r all inf
        (("0", "0", "1e100", "1e300"), 2),  # the product is NaN, p = -0
        (("1e110", "1", "1", "1"), 0),      # only r1 r2 r3 overflows
        (("2", "1", "1", "1"), 0),
    ])
    def test_solver_passes_only_finite_values(self, capsys, solve, want):
        # a solver that overflows or underflows is a computation error; a
        # pass always carries a finite p, q and r that meet the relations,
        # even where the product of their right-hand sides overflows
        code, doc = run(capsys, "classify-appendix", "--points", "2",
                        "--solve", *solve)
        assert code == want
        if code == 0:
            assert all(math.isfinite(doc["solver"][k]) for k in "pqr")
            check = [c for c in doc["checks"]
                     if c["name"] == "solver-relations"]
            assert check[0]["value"] <= cli.TOLERANCES["tol_solver"]

    def test_solver_relations_catch_a_swapped_solver(self, capsys,
                                                     monkeypatch):
        # (p, r, q) for (p, q, r): every factor positive, so a positivity
        # check reads 1, while pq and pr miss ad - bc and ac - bd by 4
        solve = extrinsic.solve_normal_form_relations

        def swapped(*abcd):
            p, q, r = solve(*abcd)
            return p, r, q

        monkeypatch.setattr(extrinsic, "solve_normal_form_relations", swapped)
        code, doc = run(capsys, "classify-appendix", "--points", "2",
                        "--solve", "3", "1", "1", "2")
        assert code == 1
        check = {c["name"]: c for c in doc["checks"]}["solver-relations"]
        assert check["status"] == "fail"
        assert check["value"] == pytest.approx(4.0 / 6.0)

    @pytest.mark.parametrize("value,mode", [(math.inf, "min"),
                                            (-math.inf, "max")])
    def test_a_check_fails_on_a_value_that_is_not_finite(self, value, mode):
        # the infinities that a bare comparison would pass
        assert cli._check("c", value, 0.0, "p", mode)["status"] == "fail"

    def test_dimension_guard(self, capsys):
        code, _ = run(capsys, "classify-appendix", "--n", "5")
        assert code == 3


class TestReport:
    def test_full_suite_deterministic(self, capsys, tmp_path):
        a, b = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        for path in (a, b):
            code, _ = run(capsys, "report", "--out", path)
            assert code == 0
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()
        with open(a) as fh:
            doc = json.load(fh)
        assert doc["overall"] == "pass"
        assert doc["tolerances"]["tol_einstein"] == 5e-5
        names = [c["name"] for c in doc["checks"]]
        assert "defect-round-torus-composite-n7-m2" in names
        # report opens with its five warps: drift and identity on each, and
        # the closed form at n = 5
        warps = ["%s-schwarzschild-n%d" % (prefix, n)
                 for n in (4, 5, 6, 7, 9)
                 for prefix in ("drift", "identity", "closed-form")[
                     :2 + (n == 5)]]
        assert names[:len(warps)] == warps
        assert "udim-schwarzschild-n4" in names
        checks = {c["name"]: c for c in doc["checks"]}
        # fiber constant n-4 against the (n-3) eps the warp needs: a gap of 1
        for label in ("round-torus-composite-n7-m2",
                      "cylinder-torus-composite-n7-m2"):
            fiber = checks["fiber-constant-" + label]
            assert fiber["comparison"] == "min"
            assert abs(fiber["value"] - 1.0) < 1e-9
            assert fiber["tolerance"] == checks["defect-" + label]["tolerance"]
        for n in (4, 5, 6):
            codazzi = checks["codazzi-schwarzschild-n%d" % n]
            assert codazzi["tolerance"] == 1e-6
            assert 0.0 < codazzi["value"] <= 1e-6
            realization = checks["realization-schwarzschild-n%d" % n]
            assert realization["tolerance"] == 1e-6
        # the Clifford member scans its full umbilical check set, with a
        # realization bound of a chart without a warp, and no profile
        for prefix in ("fnb", "umbilical", "udim", "gauss", "realization",
                       "codazzi", "dupin"):
            assert checks[prefix + "-clifford-n5"]["status"] == "pass"
        assert checks["realization-clifford-n5"]["tolerance"] == 1e-8
        assert "profile-clifford-n5" not in checks
        # every bound a check applies is echoed
        tols = doc["tolerances"]
        assert (checks["defect-clifford-n5-perturbed"]["tolerance"]
                == tols["tol_perturbed_defect"])
        assert (checks["solver-schwarzschild-n4"]["tolerance"]
                == tols["tol_solver"])
        assert (checks["ricci-sym-clifford-n5"]["tolerance"]
                == tols["tol_ricci_sym"])
        assert "tol_richardson" not in tols

    def test_verify_intrinsic_judges_a_member_as_report_does(self, capsys):
        # one builder: at report's seed and sample size, verify-intrinsic
        # gives each member report's checks in order, with their statuses
        # and value bytes
        code, doc = run(capsys, "report", "--seed", "3")
        assert code == 0
        prefixes = ("einstein", "spread", "defect", "fiber-constant",
                    "ricci-sym", "oracle")

        def judged(checks):
            return [(c["status"], repr(c["value"])) for c in checks]

        def member(label):
            names = {"%s-%s" % (p, label) for p in prefixes}
            return [c for c in doc["checks"] if c["name"] in names]

        members = 0
        for family, row in geometry.FAMILIES.items():
            for n, m, rho in row.report:
                argv = ["verify-intrinsic", "--family", family, "--n", str(n),
                        "--points", "20", "--seed", "3"]
                argv += ["--m", str(m)] if m is not None else []
                argv += ["--rho", repr(rho)] if rho is not None else []
                code, single = run(capsys, *argv)
                assert code == 0, family
                assert judged(member(single["label"])) == judged(
                    single["checks"]), family
                members += 1
        # the perturbed Clifford member: the same values, where report
        # asks its residual to reach tol_perturbed_defect and
        # verify-intrinsic, reading the Einstein row, fails it
        code, single = run(capsys, "verify-intrinsic", "--family", "clifford",
                           "--n", "5", "--rho", "1.0", "--perturb", "0.05",
                           "--points", "20", "--seed", "3")
        assert code == 1
        pert = member("clifford-n5-perturbed")
        assert [repr(c["value"]) for c in pert] == [
            repr(c["value"]) for c in single["checks"]]
        assert [c["status"] for c in pert] == ["pass"] * 3
        assert [c["status"] for c in single["checks"]] == ["fail", "pass",
                                                           "pass"]
        assert members + 1 == 11

    @staticmethod
    def _judged(checks):
        # a check as report and a subcommand judge it, name aside
        return [(c["status"], repr(c["value"]), c["tolerance"],
                 c["comparison"], c["provenance"]) for c in checks]

    @classmethod
    def _member(cls, doc, prefixes, label):
        names = {"%s-%s" % (p, label) for p in prefixes}
        return cls._judged([c for c in doc["checks"] if c["name"] in names])

    def test_warp_judges_a_member_as_report_does(self, capsys):
        # one builder: warp --family schwarzschild at its defaults gives
        # each of report's five warps its checks in order, with their
        # statuses and value bytes; report asks for the closed form at n = 5
        code, doc = run(capsys, "report", "--seed", "3")
        assert code == 0
        for n in (4, 5, 6, 7, 9):
            argv = ["warp", "--family", "schwarzschild", "--n", str(n)]
            argv += ["--compare-closed-form"] if n == 5 else []
            code, single = run(capsys, *argv)
            assert code == 0
            report = self._member(doc, ("drift", "identity", "closed-form"),
                                  "schwarzschild-n%d" % n)
            assert report == self._judged(single["checks"])
            assert len(report) == (3 if n == 5 else 2)

    @pytest.mark.parametrize("seed", range(5))
    def test_classify_appendix_judges_as_report_does(self, capsys, seed):
        # one builder: classify-appendix at its defaults with --solve 2 1 1 1
        # gives report's appendix checks; the sample takes eps = 1, the
        # Schwarzschild immersion's sign, at every point
        code, doc = run(capsys, "report", "--seed", str(seed))
        assert code == 0
        code, single = run(capsys, "classify-appendix", "--seed", str(seed),
                           "--solve", "2", "1", "1", "1")
        assert code == 0
        report = self._member(doc, ("epsilon-form", "normal-form", "solver"),
                              "schwarzschild-n4")
        assert report == self._judged(single["checks"])
        assert len(report) == 3
        assert (single["kinds"], single["eps"]) == (["epsilon"], [1])
        assert single["points"] == 12

    def test_one_sample_and_one_exact_pass_per_member(self, capsys,
                                                      monkeypatch):
        # every intrinsic member draws its sample once and evaluates its
        # exact jet once a point; Gauss reads 4 rows of each scanned
        # immersion's chart; each scan and the appendix make one
        # extrinsics_at call
        rows, calls = Counter(), Counter()

        def count(owner, name):
            fn = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                if name == "metric_jet":
                    rows[args[0].label] += len(args[1])
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(geometry.WarpedChart, "metric_jet")
        count(geometry.ProductChart, "metric_jet")
        count(sampling, "box")
        count(extrinsic, "extrinsics_at")
        count(warpfunc.WarpSolution, "samples_at")
        sampled, suite = [], cli._suite_intrinsic

        def intrinsic(*args):
            before = calls["samples_at"]
            suite(*args)
            sampled.append(calls["samples_at"] - before)

        monkeypatch.setattr(cli, "_suite_intrinsic", intrinsic)
        code, doc = run(capsys, "report", "--seed", "0")
        assert code == 0
        members = [c["name"][len("oracle-"):] for c in doc["checks"]
                   if c["name"].startswith("oracle-")]
        want = Counter({label: 20 for label in members})
        want.update({label: 4 for label in ("schwarzschild-n4",
                                            "schwarzschild-n5",
                                            "schwarzschild-n6", "clifford-n5")})
        assert len(members) == 11
        assert rows == want and sum(rows.values()) == 236
        assert (calls["box"], calls["extrinsics_at"]) == (16, 5)
        # the warp is sampled once a block, one block a warped member at 20
        # points (8); the oracle reads the block's own sample, and each
        # defect row's fiber-constant check the warp's parameters
        assert sampled == [8]

    def test_spread_reads_every_plane(self, capsys):
        # at seed 4 the widest of the dim-6 chart's 15 coordinate planes
        # set the spread; any 10 of them may read a third of it
        code, doc = run(capsys, "report", "--seed", "4")
        assert code == 0
        spread = {c["name"]: c for c in doc["checks"]}[
            "spread-schwarzschild-n6"]
        assert spread["value"] >= 2.5

    @pytest.mark.parametrize("seed", [4, 8, 9, 10, 13, 25])
    def test_passes_at_seeds_the_stencils_failed(self, capsys, seed):
        code, doc = run(capsys, "report", "--seed", str(seed))
        assert code == 0
        oracles = [c for c in doc["checks"] if c["name"].startswith("oracle-")]
        assert len(oracles) == 11
        assert all(c["provenance"] == "closed-form-oracle" for c in oracles)
        # the closed form's gap is measured, not absent
        assert all(0.0 < c["value"] <= c["tolerance"] for c in oracles)
