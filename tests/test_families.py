"""The family table: one row is the whole of a family.

Every chart, immersion, warp preset and command-line check of a family
comes from its row in geometry.FAMILIES, so each row must build what it
declares under the label `<family>-n<n>[-m<m>]`, and a copy of a row under
a new name must work on the command line with no other edit.
"""

import dataclasses
import json
import os

import pytest

from warpgeo import cli, geometry, immersions
from warpgeo.errors import BadRange

N, M, RHO = 7, 2, 2.0


def _member(row):
    return {"m": M if row.needs_m else None,
            "rho": RHO if row.rho is None else None}


@pytest.mark.parametrize("family", list(geometry.FAMILIES))
def test_row_is_the_whole_family(family, monkeypatch, capsys, tmp_path):
    row = geometry.FAMILIES[family]
    member = _member(row)
    label = "%s-n%d" % (family, N) + ("-m%d" % M if row.needs_m else "")
    rho = RHO if row.rho is None else row.rho(N)

    chart, chart_rho = geometry.chart_for_family(family, N, **member)
    assert (chart.label, chart_rho) == (label, rho)
    if row.base is None:
        with pytest.raises(BadRange):
            immersions.build_immersion(family, N, **member)
    else:
        imm = immersions.build_immersion(family, N, **member)
        assert (imm.label, imm.rho, imm.dim) == (label, rho, chart.dim)
        if row.base == "rotational":
            assert chart.warp is imm.meta["warp"]

    # the same row under a new name needs no edit anywhere else
    copy = family + "-copy"
    monkeypatch.setitem(geometry.FAMILIES, copy, dataclasses.replace(row))
    argv = ["--family", copy, "--n", str(N)]
    if member["m"] is not None:
        argv += ["--m", str(M)]
    if member["rho"] is not None:
        argv += ["--rho", str(RHO)]
    code = cli.main(["verify-intrinsic", "--points", "3"] + argv)
    doc = json.loads(capsys.readouterr().out)
    assert code == (0 if row.defect_floor is None else 1)
    assert doc["label"] == copy + label[len(family):]
    code = cli.main(["build", "--out", str(tmp_path), "--count", "4",
                     "--res", "3"] + argv)
    capsys.readouterr()
    assert code == (3 if row.base is None else 0)
    if row.base is not None:
        base = os.path.join(str(tmp_path), copy + label[len(family):])
        for ext in (".csv", ".obj", ".json"):
            assert os.path.exists(base + ext)


def test_shared_warp_is_read_only():
    chart, _ = geometry.chart_for_family("schwarzschild", 5)
    assert chart.warp is immersions.schwarzschild_immersion(5).meta["warp"]
    with pytest.raises(ValueError):
        chart.warp.phi[0] = 1.0


def test_unknown_family_names_the_table(capsys):
    assert cli.main(["verify-intrinsic", "--family", "nope", "--n", "5"]) == 3
    err = capsys.readouterr().err
    assert all(name in err for name in geometry.FAMILIES)
    assert cli.main(["warp", "--family", "sin", "--n", "5"]) == 3
    err = capsys.readouterr().err
    assert "round" in err and "sphere" not in err
