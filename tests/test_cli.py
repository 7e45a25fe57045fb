import json
import math
import os

import pytest

from warpgeo import cli, serialize


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

    def test_coarse_step_is_computation_error(self, capsys):
        code, _ = run(capsys, "warp", "--family", "schwarzschild",
                      "--n", "4", "--t-end", "20", "--step", "0.5")
        assert code == 2

    def test_missing_selector_is_config_error(self, capsys):
        code, _ = run(capsys, "warp")
        assert code == 3


class TestVerifyIntrinsic:
    def test_clifford_passes(self, capsys):
        code, doc = run(capsys, "verify-intrinsic", "--family", "clifford",
                        "--n", "5", "--rho", "1", "--points", "8")
        assert code == 0
        assert doc["overall"] == "pass"
        assert doc["curvature"]["provenance"] == "finite-difference"

    def test_perturbed_clifford_fails(self, capsys):
        code, doc = run(capsys, "verify-intrinsic", "--family", "clifford",
                        "--n", "5", "--rho", "1", "--points", "8",
                        "--perturb", "0.05")
        assert code == 1
        assert doc["checks"][0]["value"] > 1e-3

    def test_defect_expectation_passes_on_mismatched_fiber(self, capsys):
        code, doc = run(capsys, "verify-intrinsic", "--family",
                        "round-torus-composite", "--n", "7", "--m", "2",
                        "--points", "6", "--expect-not-einstein", "0.2")
        assert code == 0
        assert doc["checks"][0]["comparison"] == "min"

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
    ["verify-intrinsic", "--family", "clifford", "--n", "5", "--rho", "1",
     "--h", "0"],
    ["verify-intrinsic", "--family", "round", "--n", "5", "--h", "nan"],
    ["verify-intrinsic", "--family", "round", "--n", "5", "--points", "0"],
    ["verify-extrinsic", "--family", "schwarzschild", "--n", "5", "--h", "0"],
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
])
def test_no_evidence_is_config_error(capsys, argv):
    # a zero or NaN step gives NaN residuals, zero points give no residuals,
    # a non-finite warp parameter gives a NaN or collapsing trajectory, a
    # non-finite --perturb a non-finite fiber radius
    code, _ = run(capsys, *argv)
    assert code == 3


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
                        "--family", "schwarzschild")
        assert code == 0
        assert doc["label"].startswith("schwarzschild")

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(serialize.to_json({
            "schema_version": 1, "family": "clifford", "n": 5,
            "rho": 1.0, "bogus_knob": 3,
        }))
        code, _ = run(capsys, "verify-intrinsic", "--config", str(cfg))
        assert code == 3

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

    def test_composite_records_calibration(self, capsys, tmp_path):
        code, _ = run(capsys, "build", "--family", "round-torus-composite",
                      "--n", "7", "--m", "2", "--out", str(tmp_path),
                      "--count", "16", "--res", "6")
        assert code == 0
        with open(os.path.join(str(tmp_path),
                               "round-torus-composite-n7-m2.json")) as fh:
            spec = json.load(fh)
        assert spec["meta"]["s"] == 1.0
        assert spec["meta"]["base_curvature"] == 1.0

    def test_clifford_product_csv(self, capsys, tmp_path):
        code, _ = run(capsys, "build", "--family", "clifford", "--n", "5",
                      "--rho", "1", "--out", str(tmp_path),
                      "--count", "16", "--res", "6")
        assert code == 0
        assert os.path.exists(os.path.join(str(tmp_path), "clifford-n5.csv"))


class TestVerifyExtrinsic:
    def test_rotational_passes(self, capsys):
        code, doc = run(capsys, "verify-extrinsic", "--family",
                        "schwarzschild", "--n", "5", "--points", "3")
        assert code == 0
        names = {c["name"] for c in doc["checks"]}
        assert {"flat-normal-bundle", "gauss-equation", "codazzi",
                "umbilical-residuals", "dupin-leaf", "umbilical-dimension",
                "profile-normal-blocks"} <= names

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
        assert doc["solver"]["positivity"] > 0

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
        assert "udim-schwarzschild-n4" in names
