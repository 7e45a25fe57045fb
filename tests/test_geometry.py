"""Intrinsic verification tests.

The finite-difference engine is validated against closed-form Christoffel
symbols and the unit sphere before it is trusted on anything else; the
Einstein checks then cross-validate ODE-level predictions (base curvature,
fiber constants) against curvature computed purely from chart metrics.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from warpgeo import cli
from warpgeo import geometry as gm
from warpgeo import immersions
from warpgeo import warpfunc as wf
from warpgeo.errors import (
    BadDimension,
    BadRange,
    OutOfDomain,
    SingularChartPoint,
)
from warp_samples import base_curvature, sample_at

TOL_EINSTEIN = 5e-5


def family_chart(family, n, **member):
    return gm.chart_for_family(family, n, **member)[0]


class TestFiberSpec:
    def test_round_metric_diag(self):
        fib = gm.round_fiber(2)
        d = fib.metric_diag(np.array([[0.9, 2.0]]))[0]
        assert d[0] == 1.0
        assert d[1] == pytest.approx(math.sin(0.9) ** 2, abs=1e-15)

    def test_product_metric_diag_layout(self):
        fib = gm.FiberSpec(dims=(2, 3), radii=(2.0, 0.5))
        y = np.array([[0.7, 1.0, 1.1, 0.8, 2.0]])
        d = fib.metric_diag(y)[0]
        assert d[0] == 4.0
        assert d[1] == pytest.approx(4.0 * math.sin(0.7) ** 2)
        assert d[2] == 0.25
        assert d[3] == pytest.approx(0.25 * math.sin(1.1) ** 2)
        assert d[4] == pytest.approx(0.25 * math.sin(1.1) ** 2 * math.sin(0.8) ** 2)

    def test_pole_guard(self):
        fib = gm.round_fiber(3)
        with pytest.raises(SingularChartPoint):
            fib.metric_diag(np.array([[1e-4, 1.0, 1.0]]))
        # the final angle is an azimuth; zero is fine there
        fib.metric_diag(np.array([[1.0, 1.0, 0.0]]))

    def test_rejects_non_finite_radius_and_offset(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(BadRange):
                gm.FiberSpec(dims=(2, 3), radii=(1.0, bad))
            with pytest.raises(BadRange):
                gm.FiberSpec(dims=(2,), radii=(1.0,), offset=bad)

    def test_einstein_constant_round(self):
        # S^d(r) has Ricci constant (d-1)/r^2
        fib = gm.FiberSpec(dims=(4,), radii=(2.0,))
        assert fib.einstein_constant == pytest.approx(3.0 / 4.0)

    def test_einstein_constant_product(self):
        r1, r2 = gm.clifford_radii(6, 2.0)
        fib = gm.FiberSpec(dims=(2, 4), radii=(r1, r2))
        assert fib.einstein_constant == pytest.approx(2.0, abs=1e-14)
        lop = gm.FiberSpec(dims=(2, 4), radii=(r1, r2 * 1.1))
        assert lop.einstein_constant is None

    def test_clifford_radii_frozen(self):
        assert gm.clifford_radii(5, 1.0) == pytest.approx((1.0, math.sqrt(2.0)))
        assert gm.clifford_radii(6, 2.0) == pytest.approx(
            (math.sqrt(0.5), math.sqrt(1.5))
        )
        with pytest.raises(BadRange):
            gm.clifford_radii(5, -1.0)
        with pytest.raises(BadDimension):
            gm.clifford_radii(4, 1.0)

    def test_offset_torus_lands_on_unit_sphere(self):
        for n, m in ((6, 2), (7, 2), (8, 3), (9, 5)):
            fib = gm.offset_torus_fiber(n, m)
            assert fib.ambient_radius() == pytest.approx(1.0, abs=1e-14)
            assert fib.einstein_constant == pytest.approx(n - 3.0, abs=1e-12)
            # fits an n-dim warped product with eps = 1
            assert fib.dim == n - 2
            assert fib.einstein_constant / (n - 3.0) == pytest.approx(
                1.0, abs=1e-13)

    def test_unit_torus_constant_is_shifted(self):
        for n, m in ((6, 2), (7, 2), (8, 4)):
            fib = gm.unit_torus_fiber(n, m)
            assert fib.ambient_radius() == pytest.approx(1.0, abs=1e-14)
            assert fib.einstein_constant == pytest.approx(n - 4.0, abs=1e-12)
            assert fib.dim == n - 2
            assert fib.einstein_constant / (n - 3.0) == pytest.approx(
                (n - 4.0) / (n - 3.0), abs=1e-13
            )

    def test_torus_range_guards(self):
        with pytest.raises(BadRange):
            gm.offset_torus_fiber(7, 1)
        with pytest.raises(BadRange):
            gm.offset_torus_fiber(7, 4)
        with pytest.raises(BadDimension):
            gm.unit_torus_fiber(5, 2)

    def test_flat_torus_is_einstein_with_zero(self):
        fib = gm.FiberSpec(dims=(1, 1), radii=(1.0, 2.0))
        assert fib.einstein_constant == 0.0


class TestChristoffelOracle:
    def test_warped_chart_closed_form(self):
        # n=4 chart (t, theta, y1, y2), metric diag(1, phi'^2, phi^2, phi^2 sin^2 y1)
        family = family_chart("schwarzschild", 4)
        chart = gm.WarpedChart(warp=family.warp, fiber=family.fiber,
                               t_range=(0.4, 1.4))
        x = np.array([0.8, 1.3, 1.1, 2.0])
        gam = gm.curvature_fd(chart, x).gamma
        s = sample_at(chart.warp, 0.8)
        p, dp, d2p = s.phi, s.dphi, s.d2phi
        y1 = x[2]
        expected = {
            (0, 1, 1): -dp * d2p,
            (1, 0, 1): d2p / dp,
            (0, 2, 2): -p * dp,
            (2, 0, 2): dp / p,
            (0, 3, 3): -p * dp * math.sin(y1) ** 2,
            (3, 0, 3): dp / p,
            (2, 3, 3): -math.sin(y1) * math.cos(y1),
            (3, 2, 3): math.cos(y1) / math.sin(y1),
        }
        for (k, i, j), val in expected.items():
            assert gam[k, i, j] == pytest.approx(val, abs=3e-6), (k, i, j)
            assert gam[k, j, i] == pytest.approx(val, abs=3e-6)
        # entries with no lower-index pattern above must vanish
        assert gam[1, 2, 3] == pytest.approx(0.0, abs=1e-7)
        assert gam[0, 0, 0] == pytest.approx(0.0, abs=1e-7)

    def test_sphere_fiber_closed_form(self):
        chart = gm.ProductChart(gm.round_fiber(2), label="s2")
        x = np.array([0.9, 1.7])
        gam = gm.curvature_fd(chart, x).gamma
        assert gam[0, 1, 1] == pytest.approx(-math.sin(0.9) * math.cos(0.9), abs=1e-6)
        assert gam[1, 0, 1] == pytest.approx(math.cos(0.9) / math.sin(0.9), abs=1e-6)


def plane_sectional(pc, u, v):
    """Curvature of the plane spanned by arbitrary vectors u, v."""
    num = np.einsum("abcd,a,b,c,d->", pc.riemann_low, u, v, u, v)
    gu = pc.g @ u
    gv = pc.g @ v
    return float(num / ((u @ gu) * (v @ gv) - (u @ gv) ** 2))


class TestCurvatureEngine:
    def test_unit_sphere_sign_pin(self):
        chart = gm.ProductChart(gm.round_fiber(2), label="s2")
        pc = gm.curvature_fd(chart, np.array([1.1, 0.7]))
        assert pc.sectional(0, 1) == pytest.approx(1.0, abs=1e-5)
        assert np.max(np.abs(pc.ricci - pc.g)) < 1e-5

    def test_scaled_sphere(self):
        # S^3(2): sectional 1/4, Ricci (2/4) g
        chart = gm.ProductChart(gm.FiberSpec(dims=(3,), radii=(2.0,)),
                                label="s3")
        pc = gm.curvature_fd(chart, np.array([1.2, 0.9, 2.1]))
        assert pc.sectional(0, 1) == pytest.approx(0.25, abs=1e-5)
        assert pc.sectional(1, 2) == pytest.approx(0.25, abs=1e-5)
        assert np.max(np.abs(pc.ricci - 0.5 * pc.g)) < 2e-5
        scalar = np.einsum("ab,ab->", np.linalg.inv(pc.g), pc.ricci)
        assert scalar == pytest.approx(3.0 * 2.0 * 0.25, abs=1e-4)

    def test_plane_invariance_under_span_change(self, rng):
        chart = family_chart("schwarzschild", 5)
        pc = gm.curvature_fd(chart, np.array([0.9, 1.0, 1.2, 0.9, 2.2]))
        u = np.zeros(5)
        v = np.zeros(5)
        u[0], v[2] = 1.0, 1.0
        k0 = plane_sectional(pc, u, v)
        assert k0 == pytest.approx(pc.sectional(0, 2), rel=1e-10)
        # same plane, different spanning vectors
        a = 1.7 * u + 0.4 * v
        b = -0.3 * u + 2.2 * v
        assert plane_sectional(pc, a, b) == pytest.approx(k0, rel=1e-9)

    def test_ricci_symmetry_defect_small(self):
        chart = family_chart("round", 5)
        pc = gm.curvature_fd(chart, np.array([0.7, 1.0, 1.1, 0.9, 2.0]))
        assert pc.ricci_sym_defect < 1e-7

    def test_bad_point_shape(self):
        chart = gm.ProductChart(gm.round_fiber(2))
        with pytest.raises(BadDimension):
            gm.metric_jet_fd(chart, np.array([1.0, 2.0, 3.0]))


def pullback(family, n, m=None):
    return gm.PullbackChart(immersions.build_immersion(family, n, m=m))


class HiddenJet:
    """A chart's metric without its jet, so the stencils take its Ricci."""

    def __init__(self, chart):
        self.dim, self.sample_box = chart.dim, chart.sample_box
        self.metric_batch = chart.metric_batch


def every_family_chart():
    for family, row in gm.FAMILIES.items():
        for n, m, rho in row.report or ((4, None, None),):
            yield family_chart(family, n, m=m, rho=rho)


def dense(jet):
    """The dense (g, dg, d2g) of a diagonal jet (f, df, d2f)."""
    return tuple(gm._on_diagonal(a) for a in jet)


class TestMetricJet:
    def test_jet_is_the_metric_and_its_stencil_limit(self, monkeypatch):
        for chart in every_family_chart():
            X = gm.sample_points(chart, 6, seed=1)
            jet = chart.metric_jet(X)
            g, dg, d2g = dense(jet[:3])
            assert np.array_equal(g, chart.metric_batch(X)), chart.label
            # and the closed-form Ricci diagonal, one finite row a point
            assert jet[3].shape == (6, chart.dim), chart.label
            assert np.all(np.isfinite(jet[3])), chart.label
            gaps = []
            # the mixed entries (a != b) alone too, which the diagonal
            # corners give, so the axis entries cannot hide their error
            mixed = ~np.eye(chart.dim, dtype=bool)
            for h in (2e-3, 1e-3):
                monkeypatch.setattr(gm, "_FD_STEP", h)
                _, fdg, fd2g = gm.metric_jet_fd(chart, X)
                gaps.append((np.max(np.abs(fdg - dg)),
                             np.max(np.abs(fd2g - d2g)),
                             np.max(np.abs(fd2g - d2g)[:, mixed])))
            assert max(gaps[1]) <= 1e-5, chart.label
            # the stencils' O(h^2) truncation error; below h = 1e-3 the
            # warped charts' second differences reach the dense output's
            # rounding floor instead
            for coarse, fine in zip(*gaps):
                assert 3.5 < coarse / fine < 4.5, chart.label

    def test_blocks_match_row_by_row(self):
        # point counts that are not multiples of the block (204 points at
        # dim 5 and 92 at dim 7 exact, 16 at dim 5 by finite differences);
        # rho is off by one so the residual is O(1) and a relative bound
        # means something
        cases = ((family_chart("round", 5), 5.0, 250),
                 (family_chart("extra-codim", 7, m=2), 1.0, 120),
                 (pullback("schwarzschild", 5), 1.0, 18))
        for chart, rho, n in cases:
            rep = gm.verify_einstein(chart, rho, n_points=n, seed=3)
            assert rep.n_points == n
            d = chart.dim
            I, J = np.triu_indices(d, 1)
            jet = getattr(chart, "metric_jet", None)
            resids, syms, secs = [], [], []
            for x in gm.sample_points(chart, n, seed=3):
                if jet:
                    f, df, d2f, _ = jet(x[None])
                    ric, sym, sec = gm.diagonal_curvature(f, df, d2f, I, J)
                    g = gm._on_diagonal(f)
                else:
                    g, dg, d2g = gm.metric_jet_fd(chart, x[None])
                    gamma, ric, sym = gm.curvature_from_jet(g, dg, d2g)
                    sec = (gm.riemann_entries(dg, d2g, gamma, I, J, I, J)
                           / (g[:, I, I] * g[:, J, J] - g[:, I, J] ** 2))
                g, ric = g[0], ric[0]
                resids.append(np.max(np.abs(ric - rho * g))
                              / (1.0 + np.max(np.abs(g))))
                syms.append(sym[0])
                secs.extend(sec[0])
            assert rep.einstein_max == pytest.approx(max(resids), rel=1e-12)
            assert rep.sectional_min == pytest.approx(min(secs), rel=1e-12)
            assert rep.sectional_max == pytest.approx(max(secs), rel=1e-12)
            assert rep.ricci_sym_max == pytest.approx(max(syms), abs=1e-14)

    @pytest.mark.parametrize("chart,n", [
        # exact blocks of 204 and 92 points, so two blocks each
        (family_chart("round", 5), 250),
        (family_chart("extra-codim", 7, m=2), 120),
        (pullback("schwarzschild", 5), 20),
        (HiddenJet(family_chart("extra-codim", 7, m=2)), 13),
        # a pullback's jet peaks by its own parts: the sphere's recursion,
        # Schwarzschild n4's profile samples, extra-codim's wide J; blocks
        # of 38, 17, 5, 37 and 4 points
        (pullback("sphere", 4), 45),
        (pullback("sphere", 5), 20),
        (pullback("sphere", 7), 7),
        (pullback("schwarzschild", 4), 45),
        (pullback("extra-codim", 7, m=2), 7),
    ], ids=["exact-dim5", "exact-dim7", "pullback-dim5", "hidden-jet-dim7",
            "pullback-sphere-n4", "pullback-sphere-n5", "pullback-sphere-n7",
            "pullback-schwarzschild-n4", "pullback-extra-codim-n7-m2"])
    def test_blocks_stay_within_budget(self, monkeypatch, chart, n):
        # every block-sized array alive at a block's peak counts against the
        # budget, so no call's memory peak outgrows it; a chart with a jet
        # runs the exact pass alone and any other the stencils alone, each
        # over several blocks that cover every point once. A first call's
        # lazy imports are no block's memory, so one point goes first
        gm.verify_einstein(chart, 1.0, n_points=1, seed=3)
        calls = {"exact": [], "fd": []}
        exact, fd = gm.diagonal_curvature, gm.curvature_from_jet

        def sized_exact(f, *rest):
            calls["exact"].append(len(f))
            return exact(f, *rest)

        def sized_fd(g, dg, d2g):
            calls["fd"].append(len(g))
            return fd(g, dg, d2g)

        monkeypatch.setattr(gm, "diagonal_curvature", sized_exact)
        monkeypatch.setattr(gm, "curvature_from_jet", sized_fd)
        tracemalloc.start()
        try:
            rep = gm.verify_einstein(chart, 1.0, n_points=n, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * gm._BLOCK_ELEMENTS
        # and an overestimated count per point cannot quietly shrink blocks
        assert peak >= 4 * gm._BLOCK_ELEMENTS
        has_jet = hasattr(chart, "metric_jet")
        sizes = calls["exact" if has_jet else "fd"]
        assert not calls["fd" if has_jet else "exact"]
        assert sum(sizes) == n == rep.n_points
        assert len(sizes) >= 2
        # the charts with a jet have a closed form to meet; the others none
        assert math.isnan(rep.oracle_max) != has_jet

    @pytest.mark.parametrize("family,n,m,blocks", [
        ("round", 5, None, 1), ("extra-codim", 7, 2, 3)])
    def test_exact_pass_takes_few_blocks(self, monkeypatch, family, n, m,
                                         blocks):
        # each block pays a whole metric_jet call, so the exact count a
        # point sets the pass's cost: 200 points, the dense benchmark's
        # sample, take one block at dim 5 and three at dim 7 (three and
        # seven at 8 d**3 a point)
        chart = family_chart(family, n, m=m)
        sizes, core = [], gm.diagonal_curvature

        def counted(f, *rest):
            sizes.append(len(f))
            return core(f, *rest)

        monkeypatch.setattr(gm, "diagonal_curvature", counted)
        assert gm.verify_einstein(chart, 1.0, n_points=200).n_points == 200
        assert sum(sizes) == 200
        assert len(sizes) <= blocks

    @pytest.mark.parametrize("family,n,m,blocks", [
        ("round", 5, None, 1), ("extra-codim", 7, 2, 3),
        ("flat-torus-composite", 7, 2, 3)])
    def test_warp_is_sampled_once_a_block(self, monkeypatch, family, n, m,
                                          blocks):
        # the block's jet returns the closed form from its own warp
        # sample, so the oracle samples the warp no second time, and the
        # pass meets the jet's closed form over the whole sample to the bit
        chart, rho = gm.chart_for_family(family, n, m=m)
        calls, sample = [], wf.WarpSolution.samples_at

        def counted(self, ts):
            calls.append(len(ts))
            return sample(self, ts)

        monkeypatch.setattr(wf.WarpSolution, "samples_at", counted)
        rep = gm.verify_einstein(chart, rho, n_points=200)
        assert len(gm._blocks(chart, 200)) == len(calls) == blocks
        assert sum(calls) == 200
        f, df, d2f, closed = chart.metric_jet(rep.points)
        ric = gm.diagonal_curvature(f, df, d2f, [], [])[0]
        idx = np.arange(chart.dim)
        ric[:, idx, idx] -= closed
        scale = 1.0 + np.max(np.abs(f), axis=1)
        want = np.max(np.max(np.abs(ric), axis=(1, 2)) / scale)
        assert rep.oracle_max == want
        assert len(calls) == blocks + 1

    @pytest.mark.parametrize("family,n,m,count", [
        ("schwarzschild", 5, None, 40), ("extra-codim", 7, 2, 12)])
    def test_pullback_report_does_not_depend_on_blocks(
            self, monkeypatch, family, n, m, count):
        # the pullback's blocks are sized for speed within the budget; what
        # it reports must be the same to the byte at any block size
        chart = pullback(family, n, m=m)

        def report():
            rep = gm.verify_einstein(chart, 0.0, n_points=count, seed=1)
            return len(gm._blocks(chart, count)), json.dumps(rep.as_dict())

        blocks, want = report()
        base = gm._BLOCK_ELEMENTS
        for scale in (0.25, 4):
            monkeypatch.setattr(gm, "_BLOCK_ELEMENTS", int(scale * base))
            got_blocks, got = report()
            assert got_blocks != blocks
            assert (got_blocks > blocks) == (scale < 1)
            assert got == want

    @pytest.mark.parametrize("chart,per_point", [
        (family_chart("extra-codim", 7, m=2), 1),
        (gm.PullbackChart(immersions.schwarzschild_immersion(5)), 31),
        (HiddenJet(family_chart("extra-codim", 7, m=2)), 57),
    ], ids=["exact-dim7", "pullback-dim5", "hidden-jet-dim7"])
    def test_chart_rows_counts_the_rows_asked(self, monkeypatch, chart,
                                              per_point):
        # the exact pass asks metric_jet for each point once, the stencils
        # ask metric_batch for d**2 + d + 1 rows a point
        name = "metric_jet" if hasattr(chart, "metric_jet") else "metric_batch"
        method, asked = getattr(chart, name), []

        def counted(X):
            asked.append(len(X))
            return method(X)

        monkeypatch.setattr(chart, name, counted)
        rep = gm.verify_einstein(chart, 1.0, n_points=9, seed=3)
        assert sum(asked) == rep.chart_rows == per_point * 9
        assert rep.as_dict()["chart_rows"] == rep.chart_rows

    def test_stencil_is_built_once_and_read_only(self):
        E, A, B = gm._stencil(5, gm._FD_STEP)
        assert E.shape == (31, 5) and len(A) == len(B) == 10
        assert gm._stencil(5, gm._FD_STEP)[0] is E
        for a in (E, A, B):
            with pytest.raises(ValueError):
                a[0] = 1

    def test_stencil_ricci_error_is_second_order(self, monkeypatch):
        # the stencils and their own contraction, where a chart without a jet
        # takes its Ricci, meet the exact pass to O(h^2)
        chart, rho = gm.chart_for_family("round", 5)
        rep = gm.verify_einstein(chart, rho, n_points=8, seed=2)
        pts = gm.sample_points(chart, 8, seed=2)
        assert np.array_equal(rep.points, pts)
        f, df, d2f, _ = chart.metric_jet(pts)
        exact = gm.diagonal_curvature(f, df, d2f, [], [])[0]
        scale = 1.0 + np.max(np.abs(f), axis=1)

        def gap(h):
            monkeypatch.setattr(gm, "_FD_STEP", h)
            fd = gm.curvature_from_jet(*gm.metric_jet_fd(chart, pts))[1]
            return float(np.max(np.max(np.abs(fd - exact), axis=(1, 2)) / scale))

        assert 0.0 < gap(1e-3) < 1e-3
        # second-order stencils: doubling the step quadruples the error
        assert gap(2e-3) == pytest.approx(4.0 * gap(1e-3), rel=0.1)

    def test_oracle_fails_without_a_closed_form(self):
        # a pullback has no closed-form Ricci, so its oracle reads NaN, and
        # the check that expects one fails rather than pass on no evidence
        pull = gm.PullbackChart(immersions.schwarzschild_immersion(5))
        rep = gm.verify_einstein(pull, 0.0, n_points=2)
        assert math.isnan(rep.oracle_max)
        checks = cli._intrinsic_checks(rep, gm.FAMILIES["schwarzschild"], pull)
        assert [c["status"] for c in checks if c["name"] == "oracle"] == ["fail"]

    def test_oracle_catches_a_wrong_exact_core(self, capsys, monkeypatch):
        # the closed form reads neither the jet nor the core, so a diagonal
        # core with Q2's sign flipped fails every oracle check of `report`
        core = gm.diagonal_curvature

        def q2_flipped(f, df, d2f, I, J):
            ric, defect, secs = core(f, df, d2f, I, J)
            low = gm._lowered(gm._on_diagonal(df))
            v = np.einsum("npaa,na->np", low, 1.0 / f) / f
            q2 = np.einsum("npbd,np->nbd", low, v)
            return ric + 2.0 * q2, defect, secs

        monkeypatch.setattr(gm, "diagonal_curvature", q2_flipped)
        assert_report_fails_every_oracle(capsys)

    def test_oracle_catches_a_wrong_jet(self, capsys, monkeypatch):
        # every second derivative along the first coordinate 1% off, in the
        # jets of both chart kinds, with the metric itself unchanged
        for cls in (gm.ProductChart, gm.WarpedChart):
            def scaled(self, X, *args, jet=cls.metric_jet):
                out = jet(self, X, *args)
                if len(out) == 4:   # Gauss's order-1 jet has no d2f
                    out[2][:, 0, 0] *= 1.01
                return out

            monkeypatch.setattr(cls, "metric_jet", scaled)
        assert_report_fails_every_oracle(capsys)

    def test_wrong_closed_form_fails_gauss_and_every_oracle(self, capsys,
                                                            monkeypatch):
        # the fiber factors' Ricci constants 1% too large in the closed form
        # alone: ric itself on a product chart, the share mu_i f_i of fiber
        # entry i on a warped one (whose Ricci-flat members have fiber
        # entries of zero, which scaling would leave as they are). Gauss
        # reads the closed form, so every member report scans fails it
        for cls, k in ((gm.ProductChart, 0), (gm.WarpedChart, 2)):
            def wrong(self, X, *args, jet=cls.metric_jet, k=k):
                *rest, ric = jet(self, X, *args)
                mu = np.repeat(self.fiber.factor_constants, self.fiber.dims)
                fiber = self.fiber.metric_diag(np.atleast_2d(X)[:, k:])
                ric[:, k:] += 0.01 * mu * fiber
                return (*rest, ric)

            monkeypatch.setattr(cls, "metric_jet", wrong)
        code = cli.main(["report", "--seed", "0"])
        doc = json.loads(capsys.readouterr().out)
        status = {c["name"]: c["status"] for c in doc["checks"]}
        gauss = [name for name in status if name.startswith("gauss-")]
        oracles = [name for name in status if name.startswith("oracle-")]
        scanned = sum(len(row.scan) for row in gm.FAMILIES.values())
        assert code == 1 and len(gauss) == scanned == 4 and len(oracles) == 11
        assert all(status[name] == "fail" for name in gauss + oracles)


def assert_report_fails_every_oracle(capsys):
    code = cli.main(["report", "--seed", "0"])
    doc = json.loads(capsys.readouterr().out)
    oracles = [c for c in doc["checks"] if c["name"].startswith("oracle-")]
    assert len(oracles) == 11 and code == 1
    assert all(c["status"] == "fail" for c in oracles)


def curvature_reference(g, dg, d2g):
    """Lowered Riemann tensor and Ricci the long way: the full d**4 tensor
    from transposed copies of d2g, then g^ac R_abcd by einsum."""
    n, d = g.shape[:2]
    ginv = np.linalg.inv(g)
    low = 0.5 * (dg.transpose(0, 2, 1, 3) + dg.transpose(0, 2, 3, 1) - dg)
    flat = low.reshape(n, d, d * d)
    gamma = ginv @ flat
    # quad[:, b, c, a, e] = Gamma_{p,bc} Gamma^p_ae
    quad = (flat.transpose(0, 2, 1) @ gamma).reshape(n, d, d, d, d)
    half = 0.5 * (d2g.transpose(0, 3, 1, 2, 4) + d2g.transpose(0, 1, 3, 4, 2))
    half += quad.transpose(0, 3, 1, 2, 4)
    riem = half - half.transpose(0, 1, 2, 4, 3)
    ric = np.einsum("nac,nabcd->nbd", ginv, riem)
    ric_t = ric.transpose(0, 2, 1)
    defect = np.max(np.abs(ric - ric_t), axis=(1, 2))
    return riem, 0.5 * (ric + ric_t), defect


def member_jets():
    """The diagonal jet of every `report` member at 9 points."""
    for family, row in gm.FAMILIES.items():
        for n, m, rho in row.report:
            chart = family_chart(family, n, m=m, rho=rho)
            X = gm.sample_points(chart, 9, seed=4)
            yield pytest.param(chart.metric_jet(X)[:3], id=chart.label)


def reference_jets():
    for param in member_jets():
        yield pytest.param(dense(param.values[0]), id=param.id)
    pull = gm.PullbackChart(immersions.schwarzschild_immersion(5))
    X = gm.sample_points(pull, 3, seed=4)
    yield pytest.param(gm.metric_jet_fd(pull, X), id="pullback")
    # no symmetry at all, in dg's pair or in either pair of d2g
    rng = np.random.default_rng(4)
    a = rng.normal(size=(5, 6, 6))
    yield pytest.param((a @ np.swapaxes(a, 1, 2) + 6.0 * np.eye(6),
                        rng.normal(size=(5, 6, 6, 6)),
                        rng.normal(size=(5, 6, 6, 6, 6))), id="random")


@pytest.mark.parametrize("jet", reference_jets())
def test_curvature_matches_reference(jet):
    # Ricci by contraction against the full tensor; the two reorder the
    # same sums
    d = jet[0].shape[1]
    riem, ric, defect = curvature_reference(*jet)
    gamma, got_ric, got_defect = gm.curvature_from_jet(*jet)
    got_riem = gm.riemann_entries(jet[1], jet[2], gamma,
                                  *np.ix_(*[range(d)] * 4))
    for got, want in ((got_ric, ric), (got_defect, defect), (got_riem, riem)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))


def diagonal_jets():
    yield from member_jets()
    # d2f[:, a, b, i] != d2f[:, b, a, i]: T2 is not T1's transpose
    rng = np.random.default_rng(5)
    yield pytest.param((rng.uniform(0.5, 2.0, size=(5, 6)),
                        rng.normal(size=(5, 6, 6)),
                        rng.normal(size=(5, 6, 6, 6))), id="random-diagonal")


def dense_gaps(jet):
    """The diagonal core against the dense one on the expanded jet: Ricci,
    its symmetry defect, and the sectionals of every coordinate plane, each
    gap relative to 1 + the dense one's largest entry."""
    I, J = np.triu_indices(jet[0].shape[1], 1)
    g, dg, d2g = dense(jet)
    gamma, ric, defect = gm.curvature_from_jet(g, dg, d2g)
    secs = (gm.riemann_entries(dg, d2g, gamma, I, J, I, J)
            / (g[:, I, I] * g[:, J, J]))
    gaps = []
    for got, want in zip(gm.diagonal_curvature(*jet, I, J), (ric, defect, secs)):
        assert got.shape == want.shape
        gaps.append(np.max(np.abs(got - want)) / (1.0 + np.max(np.abs(want))))
    return gaps


@pytest.mark.parametrize("jet", diagonal_jets())
def test_diagonal_core_matches_dense(jet):
    assert max(dense_gaps(jet)) <= 1e-12


def _ww_share(w, df):
    """Q1's -2 w_b w_d D_db D_bd / 4, as Ricci carries it."""
    return -0.5 * np.einsum("nb,nd,ndb,nbd->nbd", w, w, df, df)


def _q1_delta_share(w, df):
    """Q1's 2 delta_bd w_b sum_a w_a D_ab^2 / 4."""
    diag = 0.5 * w * np.einsum("na,nab->nb", w, df * df)
    return diag[..., None] * np.eye(w.shape[1])


def _q2_delta_share(w, df):
    """-Q2's delta_bd sum_p D_pb v_p / 2."""
    v = w * (w * np.einsum("npp->np", df)
             - 0.5 * np.einsum("na,npa->np", w, df))
    return 0.5 * np.einsum("npb,np->nb", df, v)[..., None] * np.eye(w.shape[1])


@pytest.mark.parametrize("share", [_ww_share, _q1_delta_share, _q2_delta_share],
                         ids=["q1-ww", "q1-delta", "q2-delta"])
def test_each_quadratic_term_is_checked(capsys, monkeypatch, share):
    # a core without one of the d x d terms of its Q1 or Q2 fails the dense
    # comparison on the random jet, and the oracle of each `report` member
    # whose jet has that term nonzero; q1-ww vanishes on every member's
    # jet, whose f_b never varies along a coordinate d whose f_d varies
    # along b, so only the random jet can show it
    core, verify = gm.diagonal_curvature, gm.verify_einstein
    nonzero = {}

    def dropped(f, df, d2f, I, J):
        ric, defect, secs = core(f, df, d2f, I, J)
        return ric - share(1.0 / f, df), defect, secs

    def recorded(chart, rho, **kw):
        rep = verify(chart, rho, **kw)
        f, df, _, _ = chart.metric_jet(rep.points)
        nonzero[rep.label] = bool(np.any(share(1.0 / f, df)))
        return rep

    monkeypatch.setattr(gm, "diagonal_curvature", dropped)
    (random_jet,) = [p.values[0] for p in diagonal_jets()
                     if p.id == "random-diagonal"]
    assert dense_gaps(random_jet)[0] > 1e-3
    monkeypatch.setattr(gm, "verify_einstein", recorded)
    cli.main(["report", "--seed", "0"])
    doc = json.loads(capsys.readouterr().out)
    status = {c["name"]: c["status"] for c in doc["checks"]}
    assert len(nonzero) == 11
    for label, shows in nonzero.items():
        assert status["oracle-" + label] == ("fail" if shows else "pass")
    assert any(nonzero.values()) == (share is not _ww_share)


class SkewedJet:
    """The round n5 chart with d_0 d_1 f_0 and d_0 d_1 f_2 raised by eps
    and their d_1 d_0 partners left alone. The first skew reaches Ricci
    through T2 and T3 alone and cancels there, but not where T2 is taken as
    T1's transpose; the second reaches T3 alone, so Ric_01 - Ric_10 is
    eps / (2 f_2)."""

    def __init__(self, eps):
        self.base, self.rho = gm.chart_for_family("round", 5)
        self.dim, self.sample_box = self.base.dim, self.base.sample_box
        self.eps = eps

    def metric_batch(self, X):
        return self.base.metric_batch(X)

    def metric_jet(self, X):
        jet = self.base.metric_jet(X)
        jet[2][:, 0, 1, 0] += self.eps
        jet[2][:, 0, 1, 2] += self.eps
        return jet


def test_asymmetric_derivative_pair_fails_closed():
    chart = SkewedJet(1e-3)
    rep = gm.verify_einstein(chart, chart.rho, n_points=6)
    assert rep.ricci_sym_max > cli.TOLERANCES["tol_ricci_sym"]
    f = chart.metric_jet(rep.points)[0]
    assert rep.ricci_sym_max == pytest.approx(
        np.max(0.5 * chart.eps / f[:, 2]), rel=1e-9)


class TestSpaceFormCharts:
    def test_round_chart_is_einstein(self):
        for n in (5, 6):
            rep = gm.verify_einstein(family_chart("round", n),
                                     rho=float(n - 1), n_points=10)
            assert rep.einstein_max < TOL_EINSTEIN
            assert rep.sectional_min > 1.0 - 1e-3
            assert rep.sectional_max < 1.0 + 1e-3

    def test_flat_chart_is_ricci_flat_and_flat(self):
        rep = gm.verify_einstein(family_chart("flat", 6), rho=0.0, n_points=10)
        assert rep.einstein_max < TOL_EINSTEIN
        assert abs(rep.sectional_min) < 1e-4
        assert abs(rep.sectional_max) < 1e-4


class TestEinsteinCharts:
    def test_clifford_products(self):
        for n, rho in ((5, 1.0), (6, 2.0)):
            rep = gm.verify_einstein(family_chart("clifford", n, rho=rho),
                                     rho=rho, n_points=10)
            assert rep.einstein_max < TOL_EINSTEIN
            # Einstein but nowhere near constant curvature: mixed planes are flat
            assert rep.sectional_spread > 0.3

    def test_schwarzschild_charts(self):
        for n in (5, 6):
            rep = gm.verify_einstein(family_chart("schwarzschild", n), rho=0.0,
                                     n_points=10)
            assert rep.einstein_max < TOL_EINSTEIN
            assert rep.sectional_spread > 1e-2

    def test_schwarzschild_sectional_cross_check(self):
        # FD plane curvatures against ODE-level closed forms:
        # base plane -(n-2)(n-3)c/(2 phi^{n-1}), mixed (n-3)c/(2 phi^{n-1}),
        # fiber-fiber -c/phi^{n-1}
        n = 5
        chart = family_chart("schwarzschild", n)
        x = np.array([0.9, 1.0, 1.2, 0.9, 2.2])
        pc = gm.curvature_fd(chart, x)
        phi = sample_at(chart.warp, x[0]).phi
        c = chart.warp.params.c
        base = -(n - 2.0) * (n - 3.0) * c / (2.0 * phi ** (n - 1.0))
        mixed = (n - 3.0) * c / (2.0 * phi ** (n - 1.0))
        fib = -c / phi ** (n - 1.0)
        assert pc.sectional(0, 1) == pytest.approx(base, rel=1e-4)
        assert pc.sectional(0, 2) == pytest.approx(mixed, rel=1e-4)
        assert pc.sectional(1, 3) == pytest.approx(mixed, rel=1e-4)
        assert pc.sectional(2, 4) == pytest.approx(fib, rel=1e-4)
        # Ricci-flatness is the weighted sum of these three values
        assert base + (n - 2.0) * mixed == pytest.approx(0.0, abs=1e-12)

    def test_base_plane_matches_ode_curvature(self):
        chart = family_chart("schwarzschild", 6)
        x = np.array([1.1, 0.8, 1.3, 1.0, 0.8, 2.0])
        pc = gm.curvature_fd(chart, x)
        k_ode = base_curvature(sample_at(chart.warp, x[0]))
        assert pc.sectional(0, 1) == pytest.approx(k_ode, rel=1e-4)

    @pytest.mark.parametrize("family, n, m", [("schwarzschild", 6, None),
                                              ("extra-codim", 7, 2)])
    def test_sectional_range_covers_every_plane(self, family, n, m):
        # 15 and 21 coordinate planes: the reported range is that of all
        # of them, as diagonal_curvature gives it over the whole sample
        chart = family_chart(family, n, m=m)
        I, J = np.triu_indices(chart.dim, 1)
        for seed in range(10):
            rep = gm.verify_einstein(chart, 0.0, n_points=200, seed=seed)
            f, df, d2f, _ = chart.metric_jet(rep.points)
            secs = gm.diagonal_curvature(f, df, d2f, I, J)[2]
            assert rep.sectional_min == np.min(secs)
            assert rep.sectional_max == np.max(secs)

    def test_flat_torus_composite_is_einstein_not_flat(self):
        rep = gm.verify_einstein(
            family_chart("flat-torus-composite", 7, m=2), rho=0.0, n_points=8)
        assert rep.einstein_max < TOL_EINSTEIN
        assert rep.sectional_spread > 1e-2

    def test_extra_codim_charts_are_einstein(self):
        for n, m in ((7, 2), (8, 3)):
            rep = gm.verify_einstein(family_chart("extra-codim", n, m=m),
                                     rho=0.0, n_points=8)
            assert rep.einstein_max < TOL_EINSTEIN
            assert rep.sectional_spread > 1e-2

    def test_extra_codim_params_structure(self):
        p = wf.extra_codim_params(7)
        assert p.eps == pytest.approx(3.0 / 4.0)
        assert p.phi0 == 1.5
        # smooth pole: phi''(0) = 1 exactly
        assert wf.rhs_second_order(p.n, p.eps, p.rho, p.phi0, p.dphi0) == 1.0
        assert p.c == pytest.approx(-p.eps * p.phi0 ** 4)
        with pytest.raises(BadDimension):
            wf.extra_codim_params(5)


class TestMismatchedFiberCharts:
    def test_round_torus_composite_fails_einstein(self):
        rep = gm.verify_einstein(family_chart("round-torus-composite", 7, m=2),
                                 rho=6.0, n_points=8)
        # fiber defect is -g_F per fiber direction; normalized residual
        # peaks at max(r1^2, r2^2)/2 = 1/3 for n=7, m=2
        assert rep.einstein_max > 0.2
        assert rep.einstein_max < 1.0 / 3.0 + 1e-3

    def test_cylinder_torus_composite_fails_einstein(self):
        rep = gm.verify_einstein(
            family_chart("cylinder-torus-composite", 7, m=2), rho=0.0,
            n_points=8)
        assert rep.einstein_max > 0.05

    def test_fiber_constant_residual_is_exactly_one(self):
        # the obstruction is fiber constant n-4 against required n-3
        n = 7
        p = wf.WarpParams(n=n, eps=1.0, rho=float(n - 1), t0=0.15,
                          phi0=math.sin(0.15), dphi0=math.cos(0.15))
        fib = gm.unit_torus_fiber(n, 2)
        r = gm.fiber_constant_residual(p, fib)
        assert r == pytest.approx(1.0, abs=1e-9)
        # the need it reads from the parameters is the sampled one: the
        # structural equation makes rho phi^2 + 2 phi phi'' + (n-3) phi'^2
        # equal (n-3) eps at every state
        sol = wf.integrate(p, 1.5, step=1e-3)
        for t in (0.4, 0.8, 1.2):
            s = sample_at(sol, t)
            need = p.rho * s.phi ** 2 + gm._fiber_need(n, s)
            assert need - fib.einstein_constant == pytest.approx(r, abs=1e-9)

    def test_matched_fibers_have_zero_residual(self):
        n = 7
        lin = wf.linear_params(n, t0=0.3)
        fib = gm.offset_torus_fiber(n, 2)
        assert gm.fiber_constant_residual(lin, fib) == pytest.approx(
            0.0, abs=1e-10
        )
        pex = wf.extra_codim_params(n)
        fibu = gm.unit_torus_fiber(n, 2)
        assert gm.fiber_constant_residual(pex, fibu) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_not_einstein_fiber_rejected(self):
        n = 7
        lin = wf.linear_params(n, t0=0.3)
        lop = gm.FiberSpec(dims=(2, 3), radii=(1.0, 1.3))
        with pytest.raises(BadRange):
            gm.fiber_constant_residual(lin, lop)

    def test_perturbed_clifford_detected(self):
        r1, r2 = gm.clifford_radii(5, 1.0)
        bad = gm.ProductChart(
            gm.FiberSpec(dims=(2, 3), radii=(r1, r2 * 1.05)), label="perturbed"
        )
        rep = gm.verify_einstein(bad, rho=1.0, n_points=8)
        assert rep.einstein_max > 1e-3


class TestChartGuards:
    def test_warped_chart_turning_point(self):
        chart = family_chart("schwarzschild", 5)
        with pytest.raises(SingularChartPoint):
            chart.metric_batch(np.array([[1e-7, 1.0, 1.2, 0.9, 2.0]]))

    def test_sample_box_margin_collapse(self):
        family = family_chart("schwarzschild", 5)
        chart = gm.WarpedChart(warp=family.warp, fiber=family.fiber,
                               t_range=(0.5, 0.501))
        with pytest.raises(OutOfDomain):
            gm.sample_points(chart, 4)

    def test_nan_metric_fails_closed(self):
        # a NaN metric from the fiber, which the exact jet reads directly
        class NaNFiber(gm.FiberSpec):
            def metric_diag(self, Y):
                return np.full_like(super().metric_diag(Y), np.nan)

        def NaNChart(fiber):
            return gm.ProductChart(NaNFiber(fiber.dims, fiber.radii))

        class NaNJetChart(gm.ProductChart):
            def metric_jet(self, X):
                return tuple(np.full_like(a, np.nan)
                             for a in super().metric_jet(X))

        class NaNNoJetChart:
            # the finite-difference path: a chart with no metric_jet
            dim = 2
            label = "nan-no-jet"
            sample_box = gm.ProductChart(gm.round_fiber(2)).sample_box

            def metric_batch(self, X):
                return np.full((np.atleast_2d(X).shape[0], 2, 2), np.nan)

        for chart, provenance in (
                (NaNChart(gm.round_fiber(2)), "analytic-jet"),
                (NaNJetChart(gm.round_fiber(2)), "analytic-jet"),
                (NaNNoJetChart(), "finite-difference")):
            rep = gm.verify_einstein(chart, rho=1.0, n_points=3)
            assert rep.provenance == provenance
            assert math.isnan(rep.einstein_max)
            assert math.isnan(rep.sectional_spread)
            # the builder's check fails on the NaN, whichever path ran
            checks = cli._intrinsic_checks(rep, gm.FAMILIES["sphere"], chart)
            assert checks[0]["name"] == "einstein-residual"
            assert checks[0]["status"] == "fail"

    def test_chart_for_family_dispatch(self):
        chart, rho = gm.chart_for_family("clifford", 5, rho=1.0)
        assert rho == 1.0
        assert chart.dim == 5
        chart, rho = gm.chart_for_family("extra-codim", 7, m=2)
        assert rho == 0.0
        assert chart.dim == 7
        with pytest.raises(BadRange):
            gm.chart_for_family("moebius", 5)
        with pytest.raises(BadRange):
            gm.chart_for_family("clifford", 5)
