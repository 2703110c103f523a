"""Tests for the quasigeodesic residual check and the two convergence
experiments.

Oracles: the boundary arc of the disk satisfies the comparison inequality
with slack (its residual is strictly negative), a reflected corner curve
satisfies it with equality up to O(dt), and an interior corner bending away
from a reference point violates it at the 1/dt scale.
"""

import numpy as np
import pytest

from foldbilliards import ambient as am
from foldbilliards import analysis as an
from foldbilliards import dynamics as dy
from foldbilliards import table as tb
from foldbilliards.dynamics import SampledCurve
from foldbilliards.errors import InvalidInputError, PreconditionError
from foldbilliards.fold import Fold

DT = 1e-3
MODELS2 = [am.euclidean(2), am.hyperbolic(2), am.spherical(2)]


@pytest.fixture(scope="module")
def disk():
    return tb.disk_table()


@pytest.fixture(scope="module")
def m2():
    return am.euclidean(2)


def arc_curve():
    ts = np.arange(0, np.pi + DT / 2, DT)
    return SampledCurve(times=ts, points=np.stack([np.cos(ts), np.sin(ts)], 1))


def tent_curve():
    # unit-speed corner at (0, 1): straight in, reflected straight out
    ts = np.arange(-1, 1 + DT / 2, DT)
    pts = np.stack([ts / np.sqrt(2), 1 - np.abs(ts) / np.sqrt(2)], 1)
    return SampledCurve(times=ts, points=pts)


def convex_kink_curve():
    # interior corner that bends toward the reference side; not a billiard
    ts = np.arange(-1, 1 + DT / 2, DT)
    pts = np.where(ts[:, None] < 0,
                   np.stack([ts, np.zeros_like(ts)], 1),
                   np.stack([np.zeros_like(ts), ts], 1))
    return SampledCurve(times=ts, points=pts)


REFS = np.array([[0.3, 0.2], [-0.5, 0.1], [0.0, 0.0], [0.6, -0.6]])


class TestQuasigeodesicResidual:
    def test_boundary_arc_passes(self, disk, m2):
        rep = an.quasigeodesic_residual(arc_curve(), m2, disk, 0.0, REFS)
        assert rep.passed
        assert rep.verdict == "pass"
        assert rep.max_residual < 0
        assert rep.n_used == len(REFS)

    def test_reflected_corner_passes(self, disk, m2):
        rep = an.quasigeodesic_residual(tent_curve(), m2, disk, 0.0, REFS)
        assert rep.passed
        assert rep.max_residual <= 10 * DT

    def test_interior_corner_fails_at_grid_scale(self, m2):
        rep = an.quasigeodesic_residual(convex_kink_curve(), m2, None, 0.0,
                                        np.array([[2.0, 1.0]]))
        assert not rep.passed
        assert rep.max_residual >= 0.5 / DT

    def test_time_reversal_invariance(self, disk, m2):
        c = arc_curve()
        c_rev = SampledCurve(times=c.times, points=c.points[::-1])
        a = an.quasigeodesic_residual(c, m2, disk, 0.0, REFS)
        b = an.quasigeodesic_residual(c_rev, m2, disk, 0.0, REFS)
        assert abs(a.max_residual - b.max_residual) < 1e-10

    def test_report_dict_has_worst_point(self, disk, m2):
        rep = an.quasigeodesic_residual(arc_curve(), m2, disk, 0.0, REFS)
        d = rep.to_dict()
        assert d["verdict"] == "pass"
        assert len(d["worst_point"]) == 2
        assert len(d["residual_per_point"]) == rep.n_used

    def test_euclidean_billiard_is_quasigeodesic(self, disk, m2):
        x0 = np.array([0.3, -0.2])
        v0 = np.array([np.cos(0.7), np.sin(0.7)])
        bil = dy.billiard_trajectory(disk, m2, x0, v0, 3.0, DT)
        refs = an.reference_points_for_table(disk, am.euclidean(3))
        rep = an.quasigeodesic_residual(bil.base, m2, disk, 0.0, refs)
        assert rep.passed

    def test_hyperbolic_billiard_is_quasigeodesic(self, disk):
        mh = am.hyperbolic(2)
        x0 = np.array([0.3, -0.2])
        v0 = am.normalize(mh, x0, np.array([np.cos(0.7), np.sin(0.7)]))
        bil = dy.billiard_trajectory(disk, am.hyperbolic(3), x0, v0, 3.0, DT)
        refs = an.reference_points_for_table(disk, am.hyperbolic(3))
        rep = an.quasigeodesic_residual(bil.base, mh, disk, -1.0, refs)
        assert rep.passed

    @pytest.mark.parametrize("table", [tb.disk_table(), tb.parabola_table(),
                                       tb.half_space_table(3), tb.spherical_halfspace_table()],
                             ids=lambda t: f"{t.name}-{t.n}")
    @pytest.mark.parametrize("kind", ["euclidean", "hyperbolic"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_reference_points_equal_the_draw_loop(self, table, kind, seed):
        # oracle: the fan direction by direction and step by step, then one
        # random draw at a time until enough points qualify
        model = am.AmbientModel(kind, table.n + 1)
        anchor = tb._interior_anchor(table, model)

        def admissible(x):
            return bool(table.region.contains(x)) and table.f(x) >= an.REFERENCE_MARGIN_F

        dirs = [s * np.eye(table.n)[i] for i in range(table.n) for s in (1.0, -1.0)]
        dirs += [s * np.ones(table.n) / np.sqrt(table.n) for s in (1.0, -1.0)]
        points = []
        for d in dirs:
            for step in (0.5, 0.25, 0.1, 0.04):
                if len(points) < an.N_FAN_REFERENCES and admissible(anchor + step * d):
                    points.append(anchor + step * d)
                    break
        total = an.N_FAN_REFERENCES + an.N_RANDOM_REFERENCES
        if table.f(anchor) >= an.REFERENCE_MARGIN_F:
            points.append(anchor)
        rng = np.random.default_rng(seed)
        center = np.asarray(table.region.center, dtype=float)
        for _ in range(4000):
            x = center + table.region.radius * rng.uniform(-1, 1, size=table.n)
            if len(points) < total and admissible(x):
                points.append(x)
        refs = an.reference_points_for_table(table, model, seed=seed)
        assert refs.tobytes() == np.array(points).tobytes()

    def test_on_curve_reference_is_rejected(self, disk, m2):
        c = arc_curve()
        with pytest.raises(PreconditionError, match="no admissible reference points"):
            an.quasigeodesic_residual(c, m2, disk, 0.0, c.points[[100]])

    def test_invisible_reference_is_rejected(self, m2):
        # two arms of the nonconvex table; the connecting geodesic crosses
        # the notch, so the reference on the far arm is not admissible
        parab = tb.parabola_table()
        ts = np.arange(0, 0.1 + DT / 2, DT)
        pts = np.stack([-0.6 + ts, np.full_like(ts, 0.2)], 1)
        c = SampledCurve(times=ts, points=pts)
        with pytest.raises(PreconditionError, match="no admissible reference points"):
            an.quasigeodesic_residual(c, m2, parab, 0.0, np.array([[0.6, 0.2]]))
        rep = an.quasigeodesic_residual(
            c, m2, parab, 0.0, np.array([[0.6, 0.2], [-0.8, 0.3]]))
        assert rep.visibility_failures == 1
        assert rep.n_used == 1

    @pytest.mark.parametrize("model", MODELS2, ids=lambda m: m.kind)
    def test_visibility_equals_the_chain_loop(self, model):
        # a curve up the far side of the parabola's notch: from a reference
        # on the near side the first sight lines pass below the notch, later
        # ones may cross it
        parab = tb.parabola_table()
        pts = np.stack([np.full(51, -0.6), np.linspace(-0.3, 0.2, 51)], 1)
        refs = np.stack(np.meshgrid(np.linspace(0.3, 0.7, 5),
                                    np.linspace(-0.4, 0.2, 7)), -1).reshape(-1, 2)
        loop = [all(parab.f(am.geodesic_between(model, p, x, num=11)[1:-1]).min()
                    >= -an.VISIBILITY_F_TOL for x in pts) for p in refs]
        assert an._visible(model, parab, refs, pts).tolist() == loop
        first = [parab.f(am.geodesic_between(model, p, pts[0], 11)).min()
                 >= -an.VISIBILITY_F_TOL for p in refs]
        # blocked and clear references, and blocked ones whose first line is clear
        assert {True, False} <= set(loop)
        assert (False, True) in set(zip(loop, first))

    @pytest.mark.parametrize("model", MODELS2, ids=lambda m: m.kind)
    def test_batch_equals_one_reference_at_a_time(self, model, monkeypatch):
        # a convex curve up the axis of the parabola below its vertex, with
        # references that are clear, blocked by an arm, beyond the table or
        # on the curve; the lowest ones are a mirrored pair, whose profiles
        # agree bit for bit (the models and the table are symmetric in x_1),
        # so the first of them must be reported as the worst point
        parab = tb.parabola_table()
        ts = np.linspace(0.0, 0.5, 51)
        curve = SampledCurve(times=ts, points=np.stack([np.zeros(51), ts * ts - 0.5], 1))
        refs = np.array([[0.3, -0.2], [0.7, 0.47], [-0.3, -0.9], [-0.75, 0.55],
                         [0.3, -0.9], [0.0, 0.5], curve.points[20], [-0.7, 0.47]])
        kappa = an.DEFAULT_KAPPA[model.kind]

        def one_at_a_time():
            used, rejected, blocked = [], 0, 0
            for p in refs:
                try:
                    an.quasigeodesic_residual(curve, model, None, kappa, p[None])
                except PreconditionError:
                    rejected += 1
                    continue
                try:
                    rep = an.quasigeodesic_residual(curve, model, parab, kappa, p[None])
                except PreconditionError:
                    blocked += 1
                    continue
                used.append(rep)
            return used, rejected, blocked

        used, rejected, blocked = one_at_a_time()
        assert rejected >= 1 and blocked >= 1
        residual = {tuple(r.worst_point): r.max_residual for r in used}
        assert residual[-0.3, -0.9] == residual[0.3, -0.9]
        best = max(range(len(used)), key=lambda i: (used[i].max_residual, -i))
        rep = an.quasigeodesic_residual(curve, model, parab, kappa, refs)
        assert rep.residual_per_point == [r.max_residual for r in used]
        assert rep.max_residual == used[best].max_residual
        assert rep.worst_point == used[best].worst_point == [-0.3, -0.9]
        assert rep.worst_time == used[best].worst_time
        assert (rep.rejected_points, rep.visibility_failures) == (rejected, blocked)
        assert rep.n_used == len(used)
        # three references per distance grid, and blocks smaller than one
        # profile, which hold one reference each
        for block_bytes in (8 * 3 * len(ts), 8):
            monkeypatch.setattr(am, "BLOCK_BYTES", block_bytes)
            assert an.quasigeodesic_residual(curve, model, parab, kappa, refs) == rep

    def test_nonuniform_grid_rejected(self, disk, m2):
        c = SampledCurve(times=np.array([0.0, 1e-3, 3e-3]),
                         points=np.zeros((3, 2)))
        with pytest.raises(InvalidInputError):
            an.quasigeodesic_residual(c, m2, disk, 0.0, REFS)


class TestSupDistance:
    def test_shifted_diameter_orbit(self, disk, m2):
        tr = dy.billiard_trajectory(disk, m2, np.array([1.0, 0.0]),
                                    np.array([-1.0, 0.0]), 2.0, DT)
        n = len(tr.base.times)
        a = SampledCurve(times=tr.base.times[:n - 1], points=tr.base.points[:n - 1])
        b = SampledCurve(times=tr.base.times[:n - 1], points=tr.base.points[1:])
        assert an.sup_distance(a, b, m2) == pytest.approx(DT, abs=1e-9)

    def test_identical_curves_have_zero_distance(self, m2):
        c = arc_curve()
        assert an.sup_distance(c, c, m2) == 0.0

    def test_mismatched_grids_rejected(self, m2):
        c = arc_curve()
        short = SampledCurve(times=c.times[:-1], points=c.points[:-1])
        with pytest.raises(InvalidInputError, match="identical time grids"):
            an.sup_distance(c, short, m2)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def segment_project(p, a, b):
    ab = b - a
    den = ab @ ab
    if den < 1e-300:
        return a
    s = np.clip((p - a) @ ab / den, 0.0, 1.0)
    return a + s * ab


def reference_curve_to_set_sup(model, P, R):
    """Oracle: the per-point loop over one dense distance matrix, each
    point's nearest vertex and its two adjacent segments."""
    sup = 0.0
    for p, j in zip(P, am.distance_cross(model, P, R).argmin(axis=1)):
        best = am.distance(model, p, R[j])
        for jj in (j - 1, j):
            if 0 <= jj < len(R) - 1:
                best = min(best, am.distance(model, p, segment_project(p, R[jj], R[jj + 1])))
        sup = max(sup, best)
    return sup


class TestCurveToSetSup:
    @pytest.mark.parametrize("model", MODELS2, ids=lambda m: m.kind)
    def test_row_blocks_do_not_change_the_sup(self, model, monkeypatch):
        ref = arc_curve().points
        ts = np.linspace(0.0, np.pi, 701)
        pts = 1.1 * np.stack([np.cos(ts), np.sin(ts)], 1)
        whole = an.curve_to_set_sup(model, pts, ref)
        # the unit circle is a geodesic sphere about the origin in every model
        radial = am.distance(model, [1.1, 0.0], [1.0, 0.0])
        assert whole == pytest.approx(radial, abs=1e-6)
        # at most 20 pairs a call: one point against its candidate vertices
        monkeypatch.setattr(am, "BLOCK_BYTES", 8 * 20)
        assert an.curve_to_set_sup(model, pts, ref) == whole

    @pytest.mark.parametrize("model", MODELS2, ids=lambda m: m.kind)
    def test_batch_equals_the_reference_loop(self, model):
        # points on both sides of a polyline with uneven spacing, including
        # points past its ends and a repeated vertex
        r = np.random.default_rng(17)
        ts = np.sort(np.concatenate([r.uniform(0.0, 2.0, 297), [0.7, 0.7]]))
        ref = np.stack([ts - 1.0, 0.3 * np.sin(3 * ts)], 1)
        pts = np.stack([r.uniform(-1.3, 1.3, 203), r.uniform(-0.6, 0.6, 203)], 1)
        assert an.curve_to_set_sup(model, pts, ref) == reference_curve_to_set_sup(model, pts, ref)
        # point by point, so a sup set by one point cannot hide the others
        for p in pts[::5, None]:
            assert an.curve_to_set_sup(model, p, ref) == reference_curve_to_set_sup(model, p, ref)

    def test_vertex_stays_a_candidate_in_curved_models(self):
        # far from the origin the hyperbolic metric bends the coordinate
        # segments, so both projections lie farther than the nearest vertex
        model = am.hyperbolic(2)
        ref = np.array([[-2.5, 0.75], [3.0, 2.5], [0.75, 1.75]])
        p = np.array([2.75, 2.25])
        vertex = am.distance(model, p, ref[1])
        for a, b in (ref[:2], ref[1:]):
            assert am.distance(model, p, segment_project(p, a, b)) > 1.4 * vertex
        assert an.curve_to_set_sup(model, p[None], ref) == vertex
        assert reference_curve_to_set_sup(model, p[None], ref) == vertex

    def test_empty_reference_rejected(self, m2):
        with pytest.raises(InvalidInputError):
            an.curve_to_set_sup(m2, np.zeros((3, 2)), np.empty((0, 2)))

    @pytest.mark.parametrize("model", MODELS2, ids=lambda m: m.kind)
    def test_stack_equals_one_curve_at_a_time(self, model):
        r = np.random.default_rng([18, MODELS2.index(model)])
        ref = arc_curve().points
        ts = np.linspace(0.0, np.pi, 301)
        pts = ((1.0 + r.uniform(-0.2, 0.2, (2, 3, 1, 1)))
               * np.stack([np.cos(ts), np.sin(ts)], 1) + r.normal(0.0, 0.01, (2, 3, 301, 2)))
        sups = an.curve_to_set_sup(model, pts, ref)
        assert sups.shape == (2, 3)
        for i in np.ndindex(2, 3):
            one = an.curve_to_set_sup(model, pts[i], ref)
            assert isinstance(one, float) and same_bits(sups[i], one)

    def test_boundary_experiment_builds_the_reference_balls_once(self, disk, m2, monkeypatch):
        calls = []
        balls = am._balls
        monkeypatch.setattr(am, "_balls", lambda *a: calls.append(1) or balls(*a))
        rep = an.boundary_geodesic_experiment(disk, m2, angles=[0.2, 0.1, 0.05], T=0.8, dt=DT)
        assert len(rep.rows) == 3 and len(calls) == 1


class TestFoldConvergence:
    def test_disk_supremum_decreases_with_thickness(self, disk):
        rep = an.fold_convergence_experiment(
            disk, am.euclidean(3), direction=(0.8, 0.6),
            lambdas=[0.5, 0.25, 0.125], T=0.3, dt=DT,
            tol_conv=0.1, workers=2)
        assert rep.verdict == "pass"
        assert rep.strictly_decreasing
        assert len(rep.rows) == 3
        assert rep.rows[-1].residual <= 10 * DT
        assert rep.details["curvature_verdict"] == "certified"
        d = rep.to_dict()
        assert d["verdict"] == "pass"
        assert len(d["rows"]) == 3

    def test_workers_do_not_change_the_result(self, disk):
        kw = dict(lambdas=[0.5, 0.25, 0.125], T=0.2, dt=1e-2,
                  scan_grid=6, scan_planes=2)
        serial = an.fold_convergence_experiment(disk, am.euclidean(3), workers=1, **kw)
        pooled = an.fold_convergence_experiment(disk, am.euclidean(3), workers=2, **kw)
        assert serial.to_dict() == pooled.to_dict()

    def test_residual_runs_on_the_grid_step(self, disk):
        # dt = 0.003 does not divide T = 0.5, so the fold geodesic is sampled
        # on the step 0.5 / 167; the residual must be that of its own samples
        T, dt = 0.5, 0.003
        model = am.euclidean(3)
        rep = an.fold_convergence_experiment(disk, model, lambdas=[0.25, 0.125], T=T, dt=dt)
        p0 = np.asarray(disk.p0, dtype=float)
        t_hat = tb.boundary_frame(disk, model, p0).tangent_basis[0]
        v0 = np.append(0.8 * t_hat, 0.6)
        crv = dy.integrate_fold_geodesic(Fold(disk, model, 0.125), np.append(p0, 0.0), v0, T, dt)
        assert np.diff(crv.times) == pytest.approx(np.full(334, T / 167), rel=1e-9)
        own = an.quasigeodesic_residual(SampledCurve(times=crv.times, points=crv.points[:, :2]),
                                        am.euclidean(2), disk, 0.0,
                                        an.reference_points_for_table(disk, model))
        # 7.1e-4 on the curve's own step, -3.28e-3 when read on the step dt
        assert own.max_residual == pytest.approx(7.1e-4, abs=1e-5)
        assert rep.rows[-1].residual == pytest.approx(own.max_residual, abs=1e-9)

    def test_single_lambda_is_inconclusive(self, disk):
        rep = an.fold_convergence_experiment(disk, am.euclidean(3),
                                             lambdas=[0.9], T=0.2, dt=DT)
        assert rep.verdict == "inconclusive"

    def test_unbounded_family_is_inconclusive(self):
        # the curvature scan fails for this table, so no limit is certified
        rep = an.fold_convergence_experiment(tb.parabola_table(), am.euclidean(3),
                                             lambdas=[0.5, 0.25], T=0.1, dt=DT)
        assert rep.verdict == "inconclusive"

    def test_lambda_grid_validation(self, disk):
        with pytest.raises(InvalidInputError, match="strictly decreasing"):
            an.fold_convergence_experiment(disk, am.euclidean(3),
                                           lambdas=[0.25, 0.5], T=0.2, dt=DT)
        with pytest.raises(InvalidInputError, match=r"lambdas: values must lie in \(0, 1\)"):
            an.fold_convergence_experiment(disk, am.euclidean(3),
                                           lambdas=[1.5, 0.5], T=0.2, dt=DT)
        # a repeated value is not strictly decreasing
        with pytest.raises(InvalidInputError, match="strictly decreasing"):
            an.fold_convergence_experiment(disk, am.euclidean(3),
                                           lambdas=[0.5, 0.5], T=0.2, dt=DT)

    def test_direction_must_enter_the_fold(self, disk):
        with pytest.raises(InvalidInputError):
            an.fold_convergence_experiment(disk, am.euclidean(3),
                                           direction=(1.0, 0.0),
                                           lambdas=[0.5, 0.25], T=0.2, dt=DT)

    def test_model_of_the_table_or_of_its_ambient_space(self, disk):
        kw = dict(lambdas=[0.5, 0.25], T=0.2, dt=1e-2, scan_grid=6, scan_planes=2)
        on_table = an.fold_convergence_experiment(disk, am.euclidean(2), **kw)
        assert on_table.to_dict() == an.fold_convergence_experiment(
            disk, am.euclidean(3), **kw).to_dict()
        with pytest.raises(InvalidInputError, match="model dimension 4"):
            an.fold_convergence_experiment(disk, am.euclidean(4), **kw)

    @pytest.mark.parametrize("kind", am.MODEL_KINDS)
    def test_patch_check_equals_one_ray_at_a_time(self, kind):
        # one flow call over all directions decides as a loop of single rays
        for table in (tb.disk_table(), tb.disk_table(radius_U=1.3), tb.half_space_table(),
                      tb.parabola_table(), tb.spherical_halfspace_table()):
            model = am.AmbientModel(kind, table.n)
            p0 = np.asarray(table.p0, dtype=float)
            for radius in (0.1, 0.4, 1.0, 2.0):
                rays = [dy.integrate_table_geodesic(model, p0, am.normalize(model, p0, d),
                                                    radius, radius / 32)
                        for d in an._directions(table.n)]
                assert an._patch_holds_ball(table, model, p0, radius, 1e-3) == all(
                    table.region.contains_many(r.points).all() for r in rays)


class TestBoundaryGeodesic:
    def test_disk_sagitta_scaling(self, disk, m2):
        rep = an.boundary_geodesic_experiment(disk, m2, angles=[0.2, 0.1],
                                              T=0.8, dt=DT)
        assert rep.verdict == "pass"
        exp = [1 - np.cos(0.2), 1 - np.cos(0.1)]
        for row, e in zip(rep.rows, exp):
            assert row.expected == pytest.approx(e, abs=1e-15)
            assert abs(row.sup_distance - e) / e <= 0.10
        # the same-grid column dominates the set distance
        assert all(r.sup_samegrid >= r.sup_distance - 1e-12 for r in rep.rows)

    @pytest.mark.parametrize("T", [0.0, -0.5, float("nan")])
    def test_non_positive_duration_rejected_before_integrating(self, disk, m2, T, monkeypatch):
        monkeypatch.setattr(an, "integrate_boundary_geodesic", None)
        with pytest.raises(InvalidInputError, match="T must be positive"):
            an.boundary_geodesic_experiment(disk, m2, angles=[0.2, 0.1], T=T, dt=DT)

    def test_integrates_the_boundary_geodesic_once(self, disk, m2, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return dy.integrate_boundary_geodesic(*args)

        monkeypatch.setattr(an, "integrate_boundary_geodesic", counted)
        rep = an.boundary_geodesic_experiment(disk, m2, angles=[0.2, 0.1],
                                              T=0.3, dt=DT)
        assert rep.verdict == "pass"
        assert len(calls) == 1

    def test_reference_leaving_the_patch_is_rejected(self, m2):
        # the wall geodesic from the origin leaves U = B(0, 1) at t = 1,
        # after T but before T (1 + extend)
        wall = tb.half_space_table(radius_U=1.0)
        with pytest.raises(PreconditionError, match="1.045"):
            an.boundary_geodesic_experiment(wall, m2, angles=[0.1], T=0.95,
                                            dt=DT, extend=0.1)
        with pytest.raises(PreconditionError, match="before T$"):
            an.boundary_geodesic_experiment(wall, m2, angles=[0.1], T=1.05,
                                            dt=DT, extend=0.1)

    @pytest.mark.parametrize("model", MODELS2, ids=lambda m: m.kind)
    def test_disk_reference_stays_in_the_patch(self, model):
        # radius_U 1.2 leaves room for the unit circle only; the curved
        # verdicts are open, so only the run is checked
        rep = an.boundary_geodesic_experiment(tb.disk_table(radius_U=1.2), model,
                                              angles=[0.2, 0.1], T=0.3, dt=DT)
        assert len(rep.rows) == 2

    def test_nonconvex_table_rejected(self, m2):
        with pytest.raises(PreconditionError):
            an.boundary_geodesic_experiment(tb.parabola_table(), m2,
                                            angles=[0.1], T=0.3, dt=DT)

    def test_angle_grid_validation(self, disk, m2):
        with pytest.raises(InvalidInputError, match="strictly decreasing"):
            an.boundary_geodesic_experiment(disk, m2, angles=[0.1, 0.2],
                                            T=0.5, dt=DT)
        with pytest.raises(InvalidInputError, match="angles: values must lie in"):
            an.boundary_geodesic_experiment(disk, m2, angles=[2.0],
                                            T=0.5, dt=DT)
        # a repeated value is not strictly decreasing
        with pytest.raises(InvalidInputError, match="strictly decreasing"):
            an.boundary_geodesic_experiment(disk, m2, angles=[0.2, 0.2],
                                            T=0.5, dt=DT)


class TestLipschitz:
    def test_projected_fold_geodesic_is_one_lipschitz(self, disk, m2):
        # model distance between projected samples never exceeds elapsed
        # time plus grid slack, even across the pinch
        fld = Fold(disk, am.euclidean(3), 2.0**-8)
        q0 = np.array([1.0, 0.0, 0.0])
        v0 = np.array([0.0, 0.8, 0.6])
        crv = dy.integrate_fold_geodesic(fld, q0, v0, 0.5, DT)
        P = crv.points[::37, :2]
        T = crv.times[::37]
        D = am.distance_cross(m2, P, P)
        slack = np.abs(T[:, None] - T[None, :]) + 5 * DT
        assert (D - slack).max() <= 0
