"""Run one workload of the warpgeo benchmark and print its metrics.

    python3 perfbench/run.py --workload report --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the program is imported from ./src. The
workloads are report, intrinsic-dense, extrinsic-dense and warp-grid (see
README.md). A run sets the workload up, then times whole passes over its
fixed list of operations until the timed part reaches --seconds, then checks
every operation's output. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are ops_per_s, op_p50_s, setup_s and peak_rss_mb; with --trace 1
they are the per-layer metrics of tracing.py, and the spans are written to
perfbench/out/.
"""

import os

# One BLAS/OpenMP thread: set before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("report", "intrinsic-dense", "extrinsic-dense", "warp-grid")
# set-up is timed in this process and in this many fresh interpreters
SETUP_PROBES = 8
# The machine's speed drifts by up to 70% within minutes (a fixed operation
# took 33 ms and 55 ms within one 90 s loop), so every time is rescaled to a
# reference speed: the calibration kernel below takes CAL_REF_S seconds at
# that speed. Calibration runs after every timed step, for about CAL_SHARE of
# the timed time, and after each set-up.
CAL_REF_S = 5e-3
CAL_SHARE = 0.2
CAL_AFTER_SETUP = 10
# a step's time is rescaled by the kernels run within this many seconds of
# its start or end
CAL_REACH_S = 1.0


def calibration_kernel():
    """Fixed work in the mix the program runs, calling nothing of it: a
    scalar float loop like the RK4 and Hermite loops, then numpy calls on
    the dim-7 metric, Christoffel and curvature shapes of the curvature code."""
    import numpy as np

    x = 0.5
    acc = 0.0
    for _ in range(20000):
        x = x * 0.999999 + 1e-7
        acc += x * x / (1.0 + x)
    g = np.eye(7)
    t = np.full((7, 7, 7, 7), 0.01)
    for _ in range(60):
        t = 0.5 * t + 0.01 * np.einsum("ae,ebcd->abcd", g, t)
    dg = np.full((7, 7, 7), 0.01)
    for _ in range(40):
        gi = np.linalg.inv(g + 0.01)
        br = np.transpose(dg, (2, 0, 1)) + np.transpose(dg, (2, 1, 0)) - dg
        acc += float(np.einsum("kl,lij->kij", gi, br).sum()
                     + np.einsum("mkl,lij->mkij", dg, br).sum())
    return acc + float(t[0, 0, 0, 0])


def calibrate():
    """Seconds one calibration kernel takes now."""
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


def speed_after_setup():
    """Slowdown against the reference speed, measured right after set-up."""
    return statistics.mean(calibrate() for _ in range(CAL_AFTER_SETUP)) / CAL_REF_S


def rescale(steps, cal_starts, cal):
    """Step times at the reference speed, each divided by the median
    slowdown of the kernels run near it."""
    out = []
    for t0, d, _ in steps:
        lo = bisect.bisect_left(cal_starts, t0 - CAL_REACH_S)
        hi = bisect.bisect_right(cal_starts, t0 + d + CAL_REACH_S)
        near = cal[lo:hi] if hi - lo >= 3 else cal
        out.append(d * CAL_REF_S / statistics.median(near))
    return out


def set_up(name, seed, tracer=None):
    """Import the program and build the workload; returns it and the seconds."""
    start = time.perf_counter()
    import warpgeo
    if os.path.dirname(os.path.abspath(warpgeo.__file__)) != os.path.join(SRC, "warpgeo"):
        raise SystemExit("perfbench: imported warpgeo from %s, not from %s"
                         % (warpgeo.__file__, SRC))
    if tracer is not None:
        tracer.install()
    import workloads
    wl = workloads.WORKLOADS[name](seed, OUT)
    return wl, time.perf_counter() - start


def probe_setup(name, seed):
    """Set-up seconds of the workload in a fresh interpreter, at reference speed."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe-setup",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        raise SystemExit("perfbench: set-up probe failed:\n" + proc.stderr)
    return float(proc.stdout.split()[-1])


def _digest(summary):
    return hashlib.blake2b(pickle.dumps(summary, protocol=4)).digest()


def measure(wl, seconds, tracer=None):
    """Time whole passes of the workload's operations, then check outputs.

    An operation's time is the sum of its steps' times; calibration kernels
    run after every step, outside the timed region. The outputs of the first
    pass are checked; every later output must be identical to the first
    pass's output of the same operation.
    """
    ops = wl.ops()
    durations = []                # time of each operation
    steps = []                    # (start, time, operation number) per step
    cal = []
    cal_starts = []
    cal_total = 0.0
    timed = 0.0
    failed = 0
    problems = []
    wrong = False
    first = [None] * len(ops)     # digest of each operation's first output
    repeats = [0] * len(ops)      # outputs identical to the first
    passes = 0
    with tempfile.TemporaryFile(dir=OUT) as spool:
        while passes == 0 or timed < seconds:
            for i, op in enumerate(ops):
                outs = []
                durations.append(0.0)
                try:
                    for step in op:
                        if tracer is not None:
                            tracer.phase = tracing.OPS
                        t0 = time.perf_counter()
                        try:
                            outs.append(step())
                        finally:
                            dt = time.perf_counter() - t0
                            if tracer is not None:
                                tracer.phase = tracing.OFF
                            steps.append((t0, dt, len(durations) - 1))
                            durations[-1] += dt
                            timed += dt
                            while cal_total < CAL_SHARE * timed:
                                cal_starts.append(time.perf_counter())
                                cal.append(calibrate())
                                cal_total += cal[-1]
                except Exception as exc:  # noqa: BLE001 - a failed operation
                    failed += 1
                    problems.append("op %d raised %r" % (i, exc))
                    continue
                summary = wl.summarize(i, outs)
                digest = _digest(summary)
                if passes == 0:
                    first[i] = digest
                    pickle.dump((i, summary), spool, protocol=4)
                if digest == first[i]:
                    repeats[i] += 1
                else:
                    failed += 1
                    wrong = True
                    problems.append("op %d: output differs from its first pass" % i)
            passes += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        spool.seek(0)
        for _ in range(sum(d is not None for d in first)):
            i, summary = pickle.load(spool)
            found = wl.check(i, summary)
            if found:
                failed += repeats[i]
                wrong = True
                problems += ["op %d: %s" % (i, p) for p in found]
    scaled = [0.0] * len(durations)   # operation times at the reference speed
    for (_, _, k), at_ref in zip(steps, rescale(steps, cal_starts, cal)):
        scaled[k] += at_ref
    return {
        "durations": durations, "scaled": scaled, "timed": timed,
        "passes": passes, "failed": failed, "problems": problems,
        "correct": not wrong, "peak_rss_mb": peak_rss_mb,
        "speed": statistics.mean(cal) / CAL_REF_S,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "warpgeo", "__init__.py")):
        raise SystemExit("perfbench: no warpgeo source under %s" % SRC)
    sys.path.insert(0, SRC)

    if args.probe_setup:
        _, seconds = set_up(args.workload, args.seed)
        print(repr(seconds / speed_after_setup()))
        return 0

    os.makedirs(OUT, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    try:
        wl, setup_s = set_up(args.workload, args.seed, tracer)
    except ImportError as exc:
        raise SystemExit("perfbench: cannot import the program: %s" % exc)
    setup_s /= speed_after_setup()
    run = measure(wl, args.seconds, tracer)
    attempted = len(run["durations"])
    op_p50 = statistics.median(run["durations"])
    scaled_p50 = statistics.median(run["scaled"])
    speed = run["speed"]
    print("# %s seed %d: %d operations in %d passes, %.3f s timed, op_p50 %.6f s,"
          " slowdown %.4f against the reference speed, op_p50 there %.6f s"
          % (args.workload, args.seed, attempted, run["passes"], run["timed"],
             op_p50, speed, scaled_p50))
    for p in run["problems"][:20]:
        print("# problem: " + p)

    if tracer is None:
        setups = [setup_s] + [probe_setup(args.workload, args.seed)
                              for _ in range(SETUP_PROBES)]
        print("# set-up at reference speed: " + " ".join("%.4f" % v for v in setups))
        metrics = {
            "ops_per_s": (attempted / run["timed"] * speed, "1/s"),
            "op_p50_s": (scaled_p50, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        }
    else:
        values = tracer.layer_metrics(run["passes"])
        metrics = {k: (values[k], unit) for k, (unit, _) in tracing.PER_LAYER.items()}
        tracer.write(os.path.join(OUT, "trace-%s-seed%d.csv.gz"
                                  % (args.workload, args.seed)))
    print(json.dumps({
        "correct": run["correct"],
        "attempted": attempted,
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
