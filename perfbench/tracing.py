"""Spans around the program's public functions, for the per-layer metrics.

``Tracer.install`` replaces each function or method in TARGETS with a wrapper
that records one span per call: its name, start, end, parent span, the phase
of the run (set-up or operations) and the call's batch size. A call of a
traced name from inside a span of the same name (recursion, or a builder
that dispatches to another builder) joins the outer span. Spans stay in
memory until the run ends. Only public names are wrapped, so a refactor of
the program's private helpers leaves the benchmark working; a public name
that disappears stops the traced run with its name.
"""

import functools
import gzip
import importlib
import time
from array import array

SETUP, OPS, OFF = 0, 1, -1


def _rows(result):
    return result.shape[0]


def _first_rows(result):
    return result[0].shape[0]


def _n_points(result):
    return result.n_points


# module, attribute, span name, batch size of a call (from its result)
TARGETS = (
    ("warpfunc", "integrate", "warpfunc.integrate", lambda r: len(r.t) - 1),
    ("warpfunc", "WarpSolution.samples_at", "warpfunc.samples_at", _first_rows),
    ("geometry", "ProductChart.metric_batch", "geometry.metric_batch", _rows),
    ("geometry", "WarpedChart.metric_batch", "geometry.metric_batch", _rows),
    ("geometry", "PullbackChart.metric_batch", "geometry.metric_batch", _rows),
    ("geometry", "metric_jet_fd", "geometry.metric_jet_fd", None),
    ("geometry", "curvature_fd", "geometry.curvature_fd", lambda r: r.g.shape[0]),
    ("geometry", "PointCurvature.sectional", "geometry.PointCurvature.sectional", None),
    ("geometry", "verify_einstein", "geometry.verify_einstein", _n_points),
    # report calls the family builders directly; they count as building
    ("immersions", "build_immersion", "immersions.build_immersion", None),
    ("immersions", "schwarzschild_immersion", "immersions.build_immersion", None),
    ("immersions", "clifford_immersion", "immersions.build_immersion", None),
    ("immersions", "extra_codim_immersion", "immersions.build_immersion", None),
    ("immersions", "flat_base_composite", "immersions.build_immersion", None),
    ("immersions", "Immersion.jet", "immersions.Immersion.jet", _first_rows),
    ("extrinsic", "extrinsics_at", "extrinsic.extrinsics_at", None),
    ("extrinsic", "gauss_ricci_residual", "extrinsic.gauss_ricci_residual", None),
    ("extrinsic", "codazzi_residual", "extrinsic.codazzi_residual", None),
    ("extrinsic", "dupin_residual", "extrinsic.dupin_residual", None),
    ("extrinsic", "umbilical_structure", "extrinsic.umbilical_structure", None),
    ("extrinsic", "classify_at", "extrinsic.classify_at", None),
    ("extrinsic", "extrinsic_scan", "extrinsic.extrinsic_scan", _n_points),
    ("sampling", "box", "sampling.box", None),
    ("serialize", "to_json", "serialize.to_json", len),
    ("cli", "main", "cli.main", None),
)

SPAN_NAMES = tuple(dict.fromkeys(t[2] for t in TARGETS))

# per-layer metric name -> (unit, better); the values come from layer_metrics
PER_LAYER = {}


def _metric(name, unit, better):
    PER_LAYER[name] = (unit, better)


for _name in SPAN_NAMES:
    _metric(_name + ".calls", "count", "lower")
    _metric(_name + ".self_s", "s", "lower")
_metric("warpfunc.integrate.steps_per_s", "1/s", "higher")
_metric("warpfunc.samples_at.points", "count", "lower")
_metric("warpfunc.samples_at.points_per_call", "count", "higher")
_metric("warpfunc.samples_at.points_per_s", "1/s", "higher")
_metric("geometry.metric_batch.rows", "count", "lower")
for _dim in (5, 6, 7):
    _metric("geometry.curvature_fd.s_per_call.dim%d" % _dim, "s", "lower")
_metric("geometry.verify_einstein.points_per_s", "1/s", "higher")
_metric("immersions.Immersion.jet.rows", "count", "lower")
_metric("extrinsic.extrinsic_scan.points_per_s", "1/s", "higher")
_metric("serialize.to_json.bytes", "count", "lower")


class MissingTarget(Exception):
    """A traced public name no longer exists in the program."""


class Tracer:
    def __init__(self):
        self.phase = SETUP
        self.stack = []
        self.name = array("i")
        self.parent = array("i")
        self.phase_of = array("b")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")   # time covered by direct child spans
        self.batch = array("q")

    def install(self):
        code = {name: i for i, name in enumerate(SPAN_NAMES)}
        for module, attr, name, size in TARGETS:
            owner = importlib.import_module("warpgeo." + module)
            *path, last = attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, last)
            except AttributeError:
                raise MissingTarget("warpgeo.%s.%s" % (module, attr)) from None
            setattr(owner, last, self._wrap(code[name], original, size))

    def _wrap(self, code, fn, size):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if tracer.phase == OFF or (stack and tracer.name[stack[-1]] == code):
                return fn(*args, **kwargs)
            sid = len(tracer.name)
            tracer.name.append(code)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.phase_of.append(tracer.phase)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.child.append(0.0)
            tracer.batch.append(0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer.start[sid] = t0
                tracer.end[sid] = t1
                if stack:
                    tracer.child[stack[-1]] += t1 - t0
            if size is not None:
                tracer.batch[sid] = size(result)
            return result

        return wrapper

    def layer_metrics(self, passes):
        """Per-layer values for set-up plus one pass of the operations.

        Counts and times of the operations are divided by the number of
        passes, so they do not depend on the run length.
        """
        k = len(SPAN_NAMES)
        # sums[phase][name] = [calls, self time, duration, batch]; integers
        # stay exact, so the counts of a pass repeat exactly
        sums = {SETUP: [[0, 0.0, 0.0, 0] for _ in range(k)],
                OPS: [[0, 0.0, 0.0, 0] for _ in range(k)]}
        by_dim = {}
        curv = SPAN_NAMES.index("geometry.curvature_fd")
        for sid in range(len(self.name)):
            c = self.name[sid]
            dur = self.end[sid] - self.start[sid]
            acc = sums[self.phase_of[sid]][c]
            acc[0] += 1
            acc[1] += dur - self.child[sid]
            acc[2] += dur
            acc[3] += self.batch[sid]
            if c == curv:
                at_dim = by_dim.setdefault(self.batch[sid], [0.0, 0])
                at_dim[0] += dur
                at_dim[1] += 1
        calls, self_s, dur_s, batch = (
            [sums[SETUP][c][j] + sums[OPS][c][j] / passes for c in range(k)]
            for j in range(4))

        def ratio(a, b):
            return a / b if b > 0 else 0.0

        out = {}
        for c, name in enumerate(SPAN_NAMES):
            out[name + ".calls"] = calls[c]
            out[name + ".self_s"] = self_s[c]
        i = SPAN_NAMES.index
        c = i("warpfunc.integrate")
        out["warpfunc.integrate.steps_per_s"] = ratio(batch[c], self_s[c])
        c = i("warpfunc.samples_at")
        out["warpfunc.samples_at.points"] = batch[c]
        out["warpfunc.samples_at.points_per_call"] = ratio(batch[c], calls[c])
        out["warpfunc.samples_at.points_per_s"] = ratio(batch[c], self_s[c])
        out["geometry.metric_batch.rows"] = batch[i("geometry.metric_batch")]
        for dim in (5, 6, 7):
            total, count = by_dim.get(dim, (0.0, 0))
            out["geometry.curvature_fd.s_per_call.dim%d" % dim] = ratio(total, count)
        c = i("geometry.verify_einstein")
        out["geometry.verify_einstein.points_per_s"] = ratio(batch[c], dur_s[c])
        out["immersions.Immersion.jet.rows"] = batch[i("immersions.Immersion.jet")]
        c = i("extrinsic.extrinsic_scan")
        out["extrinsic.extrinsic_scan.points_per_s"] = ratio(batch[c], dur_s[c])
        out["serialize.to_json.bytes"] = batch[i("serialize.to_json")]
        return out

    def write(self, path):
        """All spans as gzip CSV: id, name, phase, parent, start, end, batch."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,phase,parent,start_s,end_s,batch\n")
            for sid in range(len(self.name)):
                fh.write("%d,%s,%d,%d,%.9f,%.9f,%d\n" % (
                    sid, SPAN_NAMES[self.name[sid]], self.phase_of[sid],
                    self.parent[sid], self.start[sid], self.end[sid],
                    self.batch[sid]))
