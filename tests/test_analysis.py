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
from foldbilliards.errors import ConfigError, InvalidInputError, PreconditionError
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

    def test_on_curve_reference_is_rejected(self, disk, m2):
        c = arc_curve()
        with pytest.raises(ConfigError):
            an.quasigeodesic_residual(c, m2, disk, 0.0, c.points[[100]])

    def test_invisible_reference_is_rejected(self, m2):
        # two arms of the nonconvex table; the connecting geodesic crosses
        # the notch, so the reference on the far arm is not admissible
        parab = tb.parabola_table()
        ts = np.arange(0, 0.1 + DT / 2, DT)
        pts = np.stack([-0.6 + ts, np.full_like(ts, 0.2)], 1)
        c = SampledCurve(times=ts, points=pts)
        with pytest.raises(ConfigError):
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
        verdicts = []
        for p in np.stack(np.meshgrid(np.linspace(0.3, 0.7, 5),
                                      np.linspace(-0.4, 0.2, 7)), -1).reshape(-1, 2):
            loop = all(parab.f(am.geodesic_between(model, p, x, num=11)[1:-1]).min()
                       >= -an.VISIBILITY_F_TOL for x in pts)
            assert an._visible(model, parab, p, pts) == loop
            verdicts.append((loop, parab.f(am.geodesic_between(model, p, pts[0], 11)).min()
                             >= -an.VISIBILITY_F_TOL))
        # blocked and clear references, and blocked ones whose first line is clear
        assert {True, False} <= {v for v, _ in verdicts}
        assert (False, True) in verdicts

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
        with pytest.raises(ConfigError):
            an.sup_distance(c, short, m2)


def segment_project(p, a, b):
    ab = b - a
    den = ab @ ab
    if den < 1e-300:
        return a
    s = np.clip((p - a) @ ab / den, 0.0, 1.0)
    return a + s * ab


def reference_curve_to_set_sup(model, P, R):
    """Oracle: the per-point loop over the same distance blocks, each point's
    nearest vertex and its two adjacent segments."""
    sup = 0.0
    for lo, D in am.distance_blocks(model, P, R):
        for r, j in enumerate(D.argmin(axis=1)):
            p = P[lo + r]
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
        monkeypatch.setattr(am, "BLOCK_BYTES", 8 * len(ref) * 100)
        assert an.curve_to_set_sup(model, pts, ref) == whole

    @pytest.mark.parametrize("model", MODELS2, ids=lambda m: m.kind)
    def test_batch_equals_the_reference_loop(self, model, monkeypatch):
        # points on both sides of a polyline with uneven spacing, including
        # points past its ends and a repeated vertex
        r = np.random.default_rng(17)
        ts = np.sort(np.concatenate([r.uniform(0.0, 2.0, 297), [0.7, 0.7]]))
        ref = np.stack([ts - 1.0, 0.3 * np.sin(3 * ts)], 1)
        pts = np.stack([r.uniform(-1.3, 1.3, 203), r.uniform(-0.6, 0.6, 203)], 1)
        rows = 37
        monkeypatch.setattr(am, "BLOCK_BYTES", 8 * len(ref) * rows)
        assert len(pts) % rows != 0 and len(ref) % 8 != 0
        assert an.curve_to_set_sup(model, pts, ref) == reference_curve_to_set_sup(model, pts, ref)
        # point by point, so a sup set by one point cannot hide the others
        for p in pts[::5, None]:
            assert an.curve_to_set_sup(model, p, ref) == reference_curve_to_set_sup(model, p, ref)


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
        assert serial.to_json() == pooled.to_json()

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
        with pytest.raises(ConfigError):
            an.fold_convergence_experiment(disk, am.euclidean(3),
                                           lambdas=[0.25, 0.5], T=0.2, dt=DT)
        with pytest.raises(ConfigError):
            an.fold_convergence_experiment(disk, am.euclidean(3),
                                           lambdas=[1.5, 0.5], T=0.2, dt=DT)

    def test_direction_must_enter_the_fold(self, disk):
        with pytest.raises(InvalidInputError):
            an.fold_convergence_experiment(disk, am.euclidean(3),
                                           direction=(1.0, 0.0),
                                           lambdas=[0.5, 0.25], T=0.2, dt=DT)


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

    def test_nonconvex_table_rejected(self, m2):
        with pytest.raises(PreconditionError):
            an.boundary_geodesic_experiment(tb.parabola_table(), m2,
                                            angles=[0.1], T=0.3, dt=DT)

    def test_angle_grid_validation(self, disk, m2):
        with pytest.raises(ConfigError):
            an.boundary_geodesic_experiment(disk, m2, angles=[0.1, 0.2],
                                            T=0.5, dt=DT)
        with pytest.raises(ConfigError):
            an.boundary_geodesic_experiment(disk, m2, angles=[2.0],
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
