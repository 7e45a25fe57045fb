"""The gate's command list and its compare listing."""

import json
import math

import pytest

import gate
from warpgeo import cli, geometry

_CONFIG_ERRORS = {"verify-intrinsic --family clifford --n 4 --seed 42 --rho 1",
                  "verify-extrinsic --family clifford --n 4 --seed 42 --rho 1"}
_CONFIG_ERRORS |= {"verify-extrinsic --family %s --n %d --seed 42" % (f, n)
                   for f in ("round", "flat") for n in range(4, 10)}


def test_domain_passes_at_one_seed(tmp_path):
    # verify-intrinsic and verify-extrinsic on every family at n = 4-9 and
    # every m: each exits 0 with every check passing, or 3 where the family
    # has no such member (Clifford n4; round and flat have no immersion)
    domain = [c for c in gate.commands(cli, geometry)
              if c[1][0].startswith("verify-")]
    assert len(domain) == 140
    for cid, argv, files in domain:
        entry = gate.run_one(cli, argv, files, str(tmp_path))
        if cid in _CONFIG_ERRORS:
            assert entry["exit"] == 3 and not entry["checks"], cid
        else:
            assert entry["exit"] == 0, cid
            assert entry["checks"], cid
            assert all(c["status"] == "pass" for c in entry["checks"]), cid


def test_run_records_written_files(tmp_path):
    cid, argv, files = next(c for c in gate.commands(cli, geometry)
                            if c[0] == "warp --family round --n 9 --out")
    entry = gate.run_one(cli, argv, files, str(tmp_path))
    assert entry["exit"] == 0 and entry["facts"]["samples"] == 2892
    written = (tmp_path / "warp-round-n9.json").read_text(encoding="utf-8")
    assert entry["sha256"]["warp-round-n9.json"] == gate._sha(written)
    assert json.loads(written)["halt_reason"] == "phi_floor"


def _manifest(value, status="pass", exit_code=0, samples=10):
    check = {"name": "drift", "status": status, "value": value,
             "tolerance": 1e-8, "comparison": "max"}
    return {"commands": {"warp": {
        "exit": exit_code, "stderr": "", "sha256": {"stdout": str(value)},
        "checks": [check], "facts": {"samples": samples}}}}


def test_compare_lists_moved_values_with_change_and_headroom():
    lines, moved = gate.compare(_manifest(1e-10), _manifest(2e-10, samples=9))
    assert not moved
    assert "  warp: samples 10 -> 9" in lines
    row = next(line for line in lines if line.startswith("  warp | drift"))
    assert row == "  warp | drift | 1e-10 | 2e-10 | +1 | 100 -> 50"
    assert lines[-2:] == ["outputs whose bytes differ: 1 of 1",
                          "  warp: stdout"]
    lines, moved = gate.compare(_manifest(1e-10), _manifest(1e-10))
    assert not moved and lines[-1] == "outputs whose bytes differ: 0 of 1"
    assert "check values moved: 0" in lines


def test_compare_flags_moved_exit_codes_and_statuses():
    assert gate.compare(_manifest(1e-10), _manifest(1e-10, exit_code=1))[1]
    assert gate.compare(_manifest(1e-10), _manifest(2e-8, status="fail"))[1]


def test_headroom_reads_both_comparisons():
    assert gate.headroom({"value": 1e-9, "tolerance": 1e-6,
                          "comparison": "max"}) == pytest.approx(1e3)
    assert gate.headroom({"value": 0.4, "tolerance": 0.2,
                          "comparison": "min"}) == 2.0
    assert gate.headroom({"value": 0.0, "tolerance": 1e-6,
                          "comparison": "max"}) == math.inf


def test_run_records_built_files(tmp_path):
    # each file a build writes is hashed, and its stdout, which lists their
    # paths, hashes alike whatever the output directory
    cid, argv, files = next(c for c in gate.commands(cli, geometry)
                            if c[0] == "build --family sphere --n 7 --out")
    a, b = (gate.run_one(cli, argv, files, str(tmp_path / d))
            for d in ("a", "longer"))
    assert a["exit"] == 0 and a == b
    assert sorted(a["sha256"]) == ["build-sphere-n7/sphere-n7.%s" % ext
                                   for ext in ("csv", "json", "obj")] + [
        "stdout"]
    written = (tmp_path / "a" / "build-sphere-n7" / "sphere-n7.obj").read_text(
        encoding="utf-8")
    assert a["sha256"]["build-sphere-n7/sphere-n7.obj"] == gate._sha(written)
