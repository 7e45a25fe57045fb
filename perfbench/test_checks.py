"""The output checks must reject wrong answers.

Run from the root of the repository:

    python3 -m pytest -q perfbench

Each test makes a wrong answer here, from the program's public functions or
by editing a correct output, and requires the workload's check to report it.
"""

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from warpgeo import cli, extrinsic, geometry, immersions  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def warp_grid():
    return workloads.WarpGrid(seed=3, out_dir=None)


def _warp_summary(wl, index):
    return wl.summarize(index, [step() for step in wl.ops()[index]])


def test_warp_grid_accepts_correct_outputs(warp_grid):
    for index in range(len(warp_grid.cases)):
        assert warp_grid.check(index, _warp_summary(warp_grid, index)) == []


def test_warp_grid_rejects_scaled_phi(warp_grid):
    # the closed-form case n = 5, eps = 1, rho = 0 and the first case
    closed = next(i for i, c in enumerate(warp_grid.cases)
                  if (c["n"], c["eps"], c["rho"]) == (5, 1.0, 0.0))
    for index in (closed, 0):
        summary = _warp_summary(warp_grid, index)
        summary["phi_q"] = summary["phi_q"] * (1.0 + 1e-7)
        assert warp_grid.check(index, summary)


def test_warp_grid_rejects_wrong_halt(warp_grid):
    index = next(i for i in range(len(warp_grid.cases))
                 if _warp_summary(warp_grid, i)["truncated"])
    summary = _warp_summary(warp_grid, index)
    summary["truncated"] = False
    summary["halt_reason"] = "t_end"
    assert any("reference collapses" in p
               for p in warp_grid.check(index, summary))


def test_warp_grid_rejects_drift(warp_grid):
    summary = _warp_summary(warp_grid, 1)
    summary["dphi"] = summary["dphi"].copy()
    summary["dphi"][-1] *= 1.0 + 1e-6
    assert any("drift" in p for p in warp_grid.check(1, summary))


def _clifford_spec():
    return {"kind": "einstein", "family": "clifford", "n": 5, "m": None, "rho": 1.0}


def test_intrinsic_accepts_clifford():
    chart, rho = geometry.chart_for_family("clifford", 5, rho=1.0)
    rep = geometry.verify_einstein(chart, rho, n_points=10, seed=5).as_dict()
    assert checks.check_chart(_clifford_spec(), rep, 10) == []


def test_intrinsic_rejects_clifford_with_wrong_radius():
    r1, r2 = geometry.clifford_radii(5, 1.0)
    fiber = geometry.FiberSpec(dims=(2, 3), radii=(r1, r2 * 1.01))
    chart = geometry.ProductChart(fiber, label="clifford-n5")
    rep = geometry.verify_einstein(chart, 1.0, n_points=10, seed=5).as_dict()
    assert checks.check_chart(_clifford_spec(), rep, 10)


def test_intrinsic_rejects_wrong_sectionals_and_defects():
    chart, rho = geometry.chart_for_family("round", 5)
    rep = geometry.verify_einstein(chart, rho, n_points=10, seed=5).as_dict()
    spec = {"kind": "einstein", "family": "round", "n": 5, "m": None, "rho": None}
    assert checks.check_chart(spec, rep, 10) == []
    assert checks.check_chart(spec, dict(rep, sectional_max=1.01), 10)
    assert checks.check_chart(spec, dict(rep, n_points=0), 10)
    defect = {"kind": "defect", "family": "round-torus-composite", "n": 7,
              "m": 2, "rho": None}
    assert checks.check_chart(defect, dict(rep, einstein_max=0.3333), 10) == []
    assert checks.check_chart(defect, dict(rep, einstein_max=0.25), 10)
    assert checks.check_chart(defect, dict(rep, einstein_max=float("nan")), 10)


def test_extrinsic_rejects_non_einstein_clifford():
    spec = {"family": "clifford", "n": 5, "m": None, "rho": 1.0,
            "rotational": False, "umbilical": True}
    good = extrinsic.extrinsic_scan(immersions.clifford_immersion(5, 1.0),
                                    n_points=4, seed=5).as_dict()
    assert checks.check_scan(spec, good, 4) == []
    r1, r2 = geometry.clifford_radii(5, 1.0)
    fiber = geometry.FiberSpec(dims=(2, 3), radii=(r1, r2 * 1.01))
    imm = immersions.immersion_from_fiber(fiber, "clifford-n5", 1.0)
    bad = extrinsic.extrinsic_scan(imm, n_points=4, seed=5).as_dict()
    assert checks.check_scan(spec, bad, 4)
    assert checks.check_scan(spec, dict(good, u_dim_mode=2), 4)
    assert checks.check_scan(spec, dict(good, gauss_max=float("nan")), 4)


def test_extrinsic_rejects_wrong_normal_form():
    assert checks.check_forms([("epsilon", 1, 1e-15)] * 3, 3) == []
    assert checks.check_forms([("epsilon", -1, 1e-15)] * 3, 3)
    assert checks.check_forms([("generic", None, 1e-15)] * 3, 3)
    assert checks.check_forms([("epsilon", 1, 1e-3)] * 3, 3)


def test_report_rejects_failed_and_wrong_reports(tmp_path):
    path = str(tmp_path / "r.json")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["report", "--seed", "0", "--out", path])
    with open(path, "rb") as fh:
        text = fh.read()
    assert checks.check_report(code, text) == []
    assert checks.check_report(1, text)
    payload = json.loads(text)
    assert checks.check_report(0, json.dumps(dict(payload, overall="fail")))
    for c in payload["checks"]:
        if c["name"] == "defect-round-torus-composite-n7-m2":
            c["value"] = 0.2
    assert checks.check_report(0, json.dumps(payload))


def test_tracer_names_a_missing_target(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS",
                        (("warpfunc", "no_such_function", "warpfunc.integrate", None),))
    with pytest.raises(tracing.MissingTarget, match="no_such_function"):
        tracing.Tracer().install()
