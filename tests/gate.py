"""The output gate: run a fixed list of warpgeo commands in process and
record what they emit, or list what moved between two such records.

    python tests/gate.py run OUT_DIR [--src SRC]
    python tests/gate.py compare OLD_DIR NEW_DIR

`run` imports warpgeo from SRC (default: the src/ beside this directory),
runs every command of ``commands()`` through ``cli.main`` and writes
OUT_DIR/manifest.json. For each command it records the exit code, the
sha256 of its stdout and of each file it writes, each check's name,
status, value, tolerance and comparison, and the payload's top-level
scalars (a warp's node count, its truncation, ...). Files a command writes
go to OUT_DIR under names that no output contains; a name ending in "/"
is a directory, made empty before the command, whose files are each
hashed. OUT_DIR reads as "OUT_DIR" in the stdout hashed, so `build`'s list
of written paths hashes alike wherever the gate runs.

`compare` prints, for two manifests, every moved exit code, check status,
payload scalar and check value. A moved value is listed with its relative
change and its headroom on both sides: how many times over the value fits
under a max bound, or over a min floor. Last come the count of outputs
whose bytes differ and, per command, which. It exits 1 when an exit code
or a status moved, else 0.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPORT_SEEDS = range(30)
WARP_NS = range(4, 10)
VERIFY_SEED = 42
# a one-ulp move of the round warp's t0 = 0.15 (an ulp there is 2**-55)
KNIFE_KS = range(-4, 5)
# n = 5 states under the closed form: the README's; the translation states
# a = t0 - phi0 phi0' = -0.5, 0.7 and 0; two collapsing runs (c > 0); and
# one whose drift passes while its nodes miss the closed form
N5_STATES = (
    ("--c", "-1"),
    ("--phi0", "1", "--dphi0", "0.5"),
    ("--t0", "0.7", "--c", "-1"),
    ("--family", "schwarzschild"),
    ("--phi0", "0.5", "--dphi0", "-1.5"),
    ("--phi0", "1", "--dphi0", "-1.2"),
    ("--phi0", "0.09875652480916083", "--dphi0", "2.5061619136021793",
     "--t0", "0.8255111545554434", "--t-end", "5.8255111545554434"),
)
BUILD_N = 7
APPENDIX_SEEDS = range(10)


def commands(cli, geometry):
    """(id, argv, files) for every command of the gate. argv names each
    written file by its key in files; run() substitutes the path."""
    out = [("report --seed %d" % s, ["report", "--seed", str(s)], {})
           for s in REPORT_SEEDS]
    warps = [f for f, row in geometry.FAMILIES.items() if row.warp]
    for family in warps:
        for n in WARP_NS:
            name = "warp-%s-n%d.json" % (family, n)
            argv = ["warp", "--family", family, "--n", str(n), "--out", name]
            out.append((" ".join(argv[:5]) + " --out", argv, {name: None}))
    # the round warp's state at t0 = 0.15 + k ulp, spelled out as
    # warpfunc.sin_params builds it, since --family fixes t0
    for n in WARP_NS:
        for k in KNIFE_KS:
            t0 = 0.15 + k * 2.0 ** -55
            argv = ["warp", "--n", str(n), "--eps", "1", "--rho", str(n - 1),
                    "--t0", repr(t0), "--phi0", repr(math.sin(t0)),
                    "--dphi0", repr(math.cos(t0))]
            out.append(("warp round-state --n %d k=%+d" % (n, k), argv, {}))
    for state in N5_STATES:
        argv = ["warp", "--n", "5", *state]
        out.append((" ".join(argv), argv, {}))
    for family, row in geometry.FAMILIES.items():
        if row.base is None:
            continue
        name = "build-%s-n%d/" % (family, BUILD_N)
        argv = ["build", "--family", family, "--n", str(BUILD_N)]
        argv += ["--m", "2"] if row.needs_m else []
        argv += ["--rho", "1"] if family == "clifford" else []
        out.append((" ".join(argv) + " --out", argv + ["--out", name],
                    {name: None}))
    for seed in APPENDIX_SEEDS:
        argv = ["classify-appendix", "--solve", "2", "1", "1", "1",
                "--seed", str(seed)]
        out.append((" ".join(argv), argv, {}))
    for cmd in ("verify-intrinsic", "verify-extrinsic"):
        for family, row in geometry.FAMILIES.items():
            for n in WARP_NS:
                ms = range(2, n - 3) if row.needs_m else [None]
                for m in ms:
                    argv = [cmd, "--family", family, "--n", str(n),
                            "--seed", str(VERIFY_SEED)]
                    if m is not None:
                        argv += ["--m", str(m)]
                    if family == "clifford":
                        argv += ["--rho", "1"]
                    out.append((" ".join(argv), argv, {}))
    return out


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_one(cli, argv, files, out_dir):
    """Run one command; return its manifest entry."""
    paths = {name: os.path.join(out_dir, name) for name in files}
    for name, path in paths.items():
        if name.endswith("/"):
            shutil.rmtree(path, ignore_errors=True)
            os.makedirs(path)
        elif os.path.exists(path):
            os.remove(path)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([paths.get(a, a) for a in argv])
    entry = {"exit": code, "stderr": stderr.getvalue().strip(),
             "sha256": {"stdout": _sha(stdout.getvalue().replace(
                 out_dir, "OUT_DIR"))},
             "checks": [], "facts": {}}
    written = []
    for name, path in paths.items():
        if name.endswith("/"):
            written += [name + f for f in sorted(os.listdir(path))]
        elif os.path.exists(path):
            written.append(name)
    for name in written:
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            entry["sha256"][name] = _sha(fh.read())
    text = stdout.getvalue().strip()
    if text:
        payload = json.loads(text)
        entry["checks"] = [{key: c[key] for key in ("name", "status", "value",
                                                     "tolerance", "comparison")}
                           for c in payload.pop("checks", [])]
        entry["facts"] = {k: v for k, v in payload.items()
                          if not isinstance(v, (dict, list))}
    return entry


def run(out_dir, src):
    sys.path.insert(0, src)
    from warpgeo import cli, geometry

    out_dir = os.path.abspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    manifest = {"src": os.path.abspath(src), "commands": {}}
    for cid, argv, files in commands(cli, geometry):
        manifest["commands"][cid] = run_one(cli, argv, files, out_dir)
    with open(os.path.join(out_dir, "manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return manifest


def headroom(check):
    """How many times over the value fits its bound: tolerance / value for
    a max bound, value / tolerance for a min floor; inf at a zero value
    under a max bound, nan for a NaN value."""
    value, tol = check["value"], check["tolerance"]
    if check["comparison"] == "min":
        return value / tol
    return tol / value if value else math.inf


def rel_change(old, new):
    if old == new:
        return 0.0
    return (new - old) / abs(old) if old else math.inf


def compare(old, new):
    """The lines of the listing and whether an exit code or status moved."""
    a, b = old["commands"], new["commands"]
    both = [cid for cid in a if cid in b]
    lines = ["commands: %d in both, %d only in the old, %d only in the new"
             % (len(both), len(set(a) - set(b)), len(set(b) - set(a)))]
    lines += ["  only in the old: " + cid for cid in a if cid not in b]
    lines += ["  only in the new: " + cid for cid in b if cid not in a]
    exits, statuses, facts, values, differ = [], [], [], [], []
    outputs = differing = 0
    for cid in both:
        x, y = a[cid], b[cid]
        if x["exit"] != y["exit"]:
            exits.append("  %s: %d -> %d %s" % (cid, x["exit"], y["exit"],
                                               y["stderr"]))
        for key in sorted(set(x["facts"]) | set(y["facts"])):
            fx, fy = x["facts"].get(key), y["facts"].get(key)
            if fx != fy:
                facts.append("  %s: %s %r -> %r" % (cid, key, fx, fy))
        cx = {c["name"]: c for c in x["checks"]}
        cy = {c["name"]: c for c in y["checks"]}
        for name in cx.keys() - cy.keys():
            statuses.append("  %s: %s %s -> absent" % (cid, name,
                                                        cx[name]["status"]))
        for name in cy.keys() - cx.keys():
            statuses.append("  %s: %s absent -> %s" % (cid, name,
                                                        cy[name]["status"]))
        for name in [name for name in cx if name in cy]:
            p, q = cx[name], cy[name]
            if p["status"] != q["status"]:
                statuses.append("  %s: %s %s -> %s" % (cid, name, p["status"],
                                                       q["status"]))
            if p["value"] != q["value"] or p["tolerance"] != q["tolerance"]:
                values.append((cid, name, p, q))
        keys = sorted(x["sha256"].keys() | y["sha256"].keys())
        outputs += len(keys)
        moved = [k for k in keys if x["sha256"].get(k) != y["sha256"].get(k)]
        differing += len(moved)
        if moved:
            differ.append("  %s: %s" % (cid, ", ".join(moved)))
    lines.append("exit codes moved: %d" % len(exits))
    lines += exits
    lines.append("check statuses moved: %d" % len(statuses))
    lines += sorted(statuses)
    lines.append("payload scalars moved: %d" % len(facts))
    lines += facts
    lines.append("check values moved: %d" % len(values))
    if values:
        lines.append("  command | check | old | new | relative change | "
                     "headroom old -> new")
    for cid, name, p, q in values:
        tol = "" if p["tolerance"] == q["tolerance"] else \
            " (tolerance %.3g -> %.3g)" % (p["tolerance"], q["tolerance"])
        lines.append("  %s | %s | %.6g | %.6g | %+.3g | %.3g -> %.3g%s"
                     % (cid, name, p["value"], q["value"],
                        rel_change(p["value"], q["value"]), headroom(p),
                        headroom(q), tol))
    lines.append("outputs whose bytes differ: %d of %d"
                 % (differing, outputs))
    lines += differ
    return lines, bool(exits or statuses)


def _load(out_dir):
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="gate.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("run")
    p.add_argument("out_dir")
    p.add_argument("--src", default=os.path.join(os.path.dirname(HERE), "src"))
    p = sub.add_parser("compare")
    p.add_argument("old_dir")
    p.add_argument("new_dir")
    args = parser.parse_args(argv)
    if args.mode == "run":
        manifest = run(args.out_dir, args.src)
        codes = [e["exit"] for e in manifest["commands"].values()]
        print("%d commands; exit codes %s" % (
            len(codes), {c: codes.count(c) for c in sorted(set(codes))}))
        return 0
    lines, moved = compare(_load(args.old_dir), _load(args.new_dir))
    print("\n".join(lines))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
