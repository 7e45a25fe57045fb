"""The four workloads: their fixed input lists, set-up and operations.

Constructing a workload is its set-up: everything the operations reuse is
built there. ``ops()`` gives the operations of one pass. An operation is a
list of steps, each a call of the program with no arguments; its time is the
sum of its steps' times. ``summarize`` turns the list of step results into
plain data (outside the timed region) and ``check`` judges that against the
independent computations in checks.py. Only public names of the program are
called.
"""

import contextlib
import functools
import math
import os

import numpy as np

from warpgeo import cli, extrinsic, geometry, immersions, warpfunc

import checks


def sample_seeds(seed, count):
    """Sample seeds of one pass, drawn from the workload seed."""
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


class ReportFailed(Exception):
    """`warpgeo report` exited with a code other than 0."""


class Report:
    """`warpgeo report` at its default 20 points, one seed per operation.

    The seeds are fixed, not drawn from the workload seed: the report's
    round-n5 spread check fails at about a fifth of seeds, so a drawn list
    would fail a different share of operations on every workload seed. Seeds
    0 to 4 keep that fault in view at a fixed share: seed 4 exits 1, which
    counts as a failed operation.
    """

    SEEDS = (0, 1, 2, 3, 4)

    def __init__(self, seed, out_dir):
        self.paths = [os.path.join(out_dir, "report-seed%d.json" % s)
                      for s in self.SEEDS]

    def ops(self):
        return [[functools.partial(self._report, s, p)]
                for s, p in zip(self.SEEDS, self.paths)]

    @staticmethod
    def _report(seed, path):
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = cli.main(["report", "--seed", str(seed), "--out", path])
        if code != 0:
            raise ReportFailed("report --seed %d exited %d" % (seed, code))
        return code

    def summarize(self, index, outs):
        with open(self.paths[index], "rb") as fh:
            return outs[0], fh.read()

    def check(self, index, summary):
        code, text = summary
        return checks.check_report(code, text)


INTRINSIC_POINTS = 200

# kind, family, n, m, rho: the eleven charts `report` checks, then a pullback
INTRINSIC_CHARTS = (
    ("einstein", "clifford", 5, None, 1.0),
    ("einstein", "clifford", 6, None, 2.0),
    ("einstein", "schwarzschild", 5, None, None),
    ("einstein", "schwarzschild", 6, None, None),
    ("einstein", "round", 5, None, None),
    ("einstein", "flat", 5, None, None),
    ("einstein", "flat-torus-composite", 7, 2, None),
    ("einstein", "extra-codim", 7, 2, None),
    ("defect", "round-torus-composite", 7, 2, None),
    ("defect", "cylinder-torus-composite", 7, 2, None),
    ("perturbed", "clifford", 5, None, 1.0),
    ("einstein", "pullback-schwarzschild", 5, None, 0.0),
)


def _intrinsic_chart(kind, family, n, m, rho):
    if kind == "perturbed":
        r1, r2 = geometry.clifford_radii(n, rho)
        fiber = geometry.FiberSpec(dims=(2, n - 2), radii=(r1, r2 * 1.05))
        return geometry.ProductChart(fiber, label="clifford-n%d-perturbed" % n), rho
    if family == "pullback-schwarzschild":
        imm = immersions.schwarzschild_immersion(n)
        return geometry.PullbackChart(imm, label="pullback-" + imm.label), rho
    return geometry.chart_for_family(family, n, m=m, rho=rho)


class IntrinsicDense:
    """`verify_einstein` at 200 points on every chart of the list, one seed."""

    def __init__(self, seed, out_dir):
        self.specs = [dict(zip(("kind", "family", "n", "m", "rho"), row))
                      for row in INTRINSIC_CHARTS]
        self.charts = [_intrinsic_chart(*row) for row in INTRINSIC_CHARTS]
        self.seeds = sample_seeds(seed, 1)

    def ops(self):
        return [[functools.partial(geometry.verify_einstein, chart, rho,
                                   n_points=INTRINSIC_POINTS, seed=s)
                 for chart, rho in self.charts]
                for s in self.seeds]

    def summarize(self, index, reports):
        return [rep.as_dict() for rep in reports]

    def check(self, index, summary):
        problems = []
        for spec, rep in zip(self.specs, summary):
            problems += checks.check_chart(spec, rep, INTRINSIC_POINTS)
        return problems


EXTRINSIC_POINTS = 12

# family, n, m, rho, rotational, umbilical residuals evaluated
EXTRINSIC_IMMERSIONS = (
    ("schwarzschild", 4, None, None, True, True),
    ("schwarzschild", 5, None, None, True, True),
    ("schwarzschild", 6, None, None, True, True),
    ("clifford", 5, None, 1.0, False, True),
    ("flat-torus-composite", 7, 2, None, False, False),
    ("extra-codim", 7, 2, None, True, False),
)


class ExtrinsicDense:
    """`extrinsic_scan` on six immersions plus `classify_at` on Schwarzschild
    n = 4, a dozen points each with a fresh seed; two operations a pass."""

    OPS_PER_PASS = 2

    def __init__(self, seed, out_dir):
        self.specs = [dict(zip(("family", "n", "m", "rho", "rotational",
                                "umbilical"), row))
                      for row in EXTRINSIC_IMMERSIONS]
        self.imms = [immersions.build_immersion(s["family"], s["n"], m=s["m"],
                                                rho=s["rho"])
                     for s in self.specs]
        per_op = len(self.imms) + 1
        seeds = sample_seeds(seed, per_op * self.OPS_PER_PASS)
        self.seeds = [seeds[k * per_op:(k + 1) * per_op]
                      for k in range(self.OPS_PER_PASS)]

    def ops(self):
        return [[functools.partial(extrinsic.extrinsic_scan, imm,
                                   n_points=EXTRINSIC_POINTS, seed=s)
                 for imm, s in zip(self.imms, seeds)]
                + [functools.partial(self._classify, seeds[-1])]
                for seeds in self.seeds]

    def _classify(self, seed):
        schwarzschild4 = self.imms[0]
        chart = geometry.PullbackChart(schwarzschild4, label=schwarzschild4.label)
        pts = geometry.sample_points(chart, EXTRINSIC_POINTS, seed=seed)
        return [extrinsic.classify_at(schwarzschild4, x) for x in pts]

    def summarize(self, index, outs):
        reports, forms = outs[:-1], outs[-1]
        return ([rep.as_dict() for rep in reports],
                [(f.kind, getattr(f, "eps", None), float(f.residual))
                 for f in forms])

    def check(self, index, summary):
        reports, forms = summary
        problems = []
        for spec, rep in zip(self.specs, reports):
            problems += checks.check_scan(spec, rep, EXTRINSIC_POINTS)
        return problems + checks.check_forms(forms, EXTRINSIC_POINTS)


WARP_NS = (4, 5, 6, 7, 9)
# (eps, rho, sign of c) -> sign of phi0'. With these signs, whether a
# trajectory collapses before t = 5 depends on the cell only, not on the
# drawn phi0 and c, so every workload seed gives the same 15 collapsing
# trajectories out of 55 and the same work per pass.
WARP_CELLS = {
    (1.0, 0.0, -1): -1.0,   # falls to a neck and bounces
    (1.0, 0.0, 0): 1.0,
    (1.0, 0.0, 1): -1.0,    # collapses
    (1.0, 1.0, -1): 1.0,    # oscillates between two necks
    (1.0, 1.0, 0): -1.0,    # collapses: phi = sqrt(n-1) sin(...)
    (1.0, 1.0, 1): -1.0,    # collapses
    (-1.0, -1.0, -1): -1.0,  # bounces
    (-1.0, -1.0, 0): 1.0,
    (-1.0, -1.0, 1): 1.0,
    (0.0, 0.0, 0): 1.0,     # phi' = 0: a constant warp
    (0.0, 0.0, 1): 1.0,     # eps = rho = 0 has no state with c < 0
}


def warp_cases(seed):
    """Initial states at t = 0 for every n and cell; the seed draws phi0 and c."""
    rng = np.random.default_rng(seed)
    return [_warp_case(rng, n, eps, rho, sign, direction)
            for n in WARP_NS
            for (eps, rho, sign), direction in WARP_CELLS.items()]


def _warp_case(rng, n, eps, rho, sign, direction):
    if eps < 0.0:
        # eps - rho phi0^2/(n-1) > 0 needs phi0 > sqrt(n-1) when eps = rho = -1
        phi0 = math.sqrt(n - 1.0) * rng.uniform(1.2, 1.6)
    else:
        phi0 = rng.uniform(0.6, 1.4)
    base = eps - rho * phi0 * phi0 / (n - 1.0)   # phi0'^2 that gives c = 0
    if sign < 0:
        excess = -base * rng.uniform(0.2, 0.8)
    elif sign > 0:
        excess = rng.uniform(0.2, 1.0)
    else:
        excess = 0.0
    dphi0 = direction * math.sqrt(base + excess)
    return {"n": n, "eps": eps, "rho": rho, "phi0": float(phi0),
            "dphi0": float(dphi0)}


class WarpGrid:
    """`integrate` to t = 5 at step 1e-3, then `samples_at` every midpoint."""

    def __init__(self, seed, out_dir):
        self.cases = warp_cases(seed)
        self.params = [warpfunc.WarpParams(n=c["n"], eps=c["eps"], rho=c["rho"],
                                           t0=0.0, phi0=c["phi0"],
                                           dphi0=c["dphi0"])
                       for c in self.cases]

    def ops(self):
        return [[functools.partial(self._integrate, p)] for p in self.params]

    @staticmethod
    def _integrate(params):
        sol = warpfunc.integrate(params, checks.T_END, step=checks.STEP)
        tq = sol.t[:-1] + 0.5 * sol.step
        phi_q, dphi_q, _, _ = sol.samples_at(tq)
        return sol, tq, phi_q, dphi_q

    def summarize(self, index, outs):
        sol, tq, phi_q, dphi_q = outs[0]
        return {"t": sol.t, "phi": sol.phi, "dphi": sol.dphi,
                "truncated": sol.truncated, "halt_reason": sol.halt_reason,
                "tq": tq, "phi_q": phi_q, "dphi_q": dphi_q}

    def check(self, index, summary):
        case = self.cases[index]
        ref = checks.warp_reference(case["n"], case["eps"], case["rho"],
                                    case["phi0"], case["dphi0"])
        return ["%s: %s" % (case, p) for p in checks.check_warp(case, summary, ref)]


WORKLOADS = {
    "report": Report,
    "intrinsic-dense": IntrinsicDense,
    "extrinsic-dense": ExtrinsicDense,
    "warp-grid": WarpGrid,
}
