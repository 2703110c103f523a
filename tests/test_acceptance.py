"""Acceptance criteria for the package.

Ten behavioral claims, each with pinned tolerances; together they certify the
numerical laboratory end to end:

 1. the parabola fold's curvature at its basepoint blows up like -4/lam^2;
 2. disk and half-space folds in flat space have nonnegative curvature;
 3. the disk fold in the hyperbolic model stays above -1, and the
    closed-form sufficient conditions confirm it;
 4. the spherical half-space family matches its rational curvature defect
    and stays above 1 - 3/32;
 5. the fold-to-table Hausdorff distance scales like the thickness;
 6. fold geodesics converge to the reflected billiard as lam -> 0, with the
    two limit branches a polar pair;
 7. the quasigeodesic residual accepts boundary arcs and reflected corners
    and rejects an interior corner at the grid scale;
 8. steep billiards converge quadratically to the boundary geodesic;
 9. reflection and polarity coincide across all three ambient models;
10. integrator hygiene: order two, constraint drift, distance agreement.
"""

import time

import numpy as np
import pytest

from foldbilliards import ambient as am
from foldbilliards import analysis as an
from foldbilliards import dynamics as dy
from foldbilliards import fold as fd
from foldbilliards import table as tb
from foldbilliards.dynamics import SampledCurve
from foldbilliards.fold import Fold

DT = 1e-3
LAMBDA_SCAN = [0.9, 0.5, 0.2, 0.05]


def test_01_parabola_curvature_blowup():
    t0 = time.perf_counter()
    table = tb.parabola_table()
    for lam in (0.5, 0.25, 0.1):
        f = Fold(table, am.euclidean(3), lam)
        sec = fd.sectional_curvature(f, np.zeros(3), [1.0, 0.0, 0.0],
                                     [0.0, 0.0, 1.0])
        assert abs(sec + 4.0 / lam**2) <= 1e-6 * (4.0 / lam**2)
    assert time.perf_counter() - t0 < 1.0


def test_02_flat_folds_have_nonnegative_curvature():
    t0 = time.perf_counter()
    for table in (tb.disk_table(), tb.half_space_table()):
        rep = fd.scan_curvature(table, am.euclidean(3), LAMBDA_SCAN, kappa=0.0)
        assert rep.n_samples >= 10_000
        assert rep.min_sec >= -1e-8
        assert rep.verdict == "certified"
    assert time.perf_counter() - t0 < 30.0


def test_03_hyperbolic_disk_bounded_below_by_minus_one():
    rep = fd.scan_curvature(tb.disk_table(), am.hyperbolic(3), LAMBDA_SCAN,
                            kappa=-1.0)
    assert rep.min_sec >= -1.0 - 1e-6
    assert rep.verdict == "certified"
    cond = fd.check_h_sufficient_conditions(tb.disk_table(), am.hyperbolic(3))
    assert cond.passed
    assert cond.hess_ok
    assert cond.min_concavity_defect == pytest.approx(2.0, abs=1e-9)
    assert cond.min_concavity_defect >= 0.0


def test_04_spherical_halfspace_matches_rational_defect():
    table = tb.spherical_halfspace_table()
    model = am.spherical(4)
    rng = np.random.default_rng(4)
    worst = 0.0
    min_defect = np.inf
    min_sec_high = np.inf
    for lam in (0.9, 0.5, 0.1, 0.01):
        f = Fold(table, model, lam)
        count = 0
        while count < 250:
            x = rng.uniform(-1, 1, 3)
            if x[0] <= 0 or not table.region.contains(x) or table.f(x) <= 0:
                continue
            count += 1
            q = fd.lift(f, x, 1 if rng.random() < 0.5 else -1)
            z = q[-1]
            v1 = np.array([2 * z, 0.0, 0.0, lam**2])
            vj = np.array([0.0, 1.0, 0.0, 0.0])
            vk = np.array([0.0, 0.0, 1.0, 0.0])
            defect = (lam**2 * x[0] * (3 * x[0]**2 - 1 - x[1]**2 - x[2]**2)
                      / (4 * x[0] + lam**2)**2)
            sec_mixed = fd.sectional_curvature(f, q, v1, vj)
            worst = max(worst, abs(sec_mixed - 1.0 - defect))
            min_defect = min(min_defect, defect)
            min_sec_high = min(min_sec_high, fd.sectional_curvature(f, q, vj, vk))
    assert worst <= 1e-8
    assert min_defect >= -3.0 / 32.0 - 1e-9
    assert min_sec_high >= 1.0 - 1e-9


def test_05_hausdorff_distance_scales_with_thickness():
    lambdas = (0.4, 0.2, 0.1, 0.05)
    for lam, hd in zip(lambdas, fd.hausdorff_distance(tb.disk_table(), am.euclidean(3), lambdas)):
        assert abs(hd.sup_fold_to_table - lam) <= 1e-3
        assert abs(hd.sup_table_to_fold - lam) <= 1e-3
    cases = [
        (tb.disk_table(), am.euclidean(3)),
        (tb.disk_table(), am.hyperbolic(3)),
        (tb.half_space_table(), am.euclidean(3)),
        (tb.parabola_table(), am.euclidean(3)),
        (tb.spherical_halfspace_table(), am.spherical(4)),
    ]
    for table, model in cases:
        for hd in fd.hausdorff_distance(table, model, lambdas, n_grid=41):
            assert hd.sup_fold_to_table <= hd.bound + 1e-3
            assert hd.sup_table_to_fold <= hd.bound + 1e-3


def test_06_fold_geodesics_converge_to_the_billiard():
    t0 = time.perf_counter()
    rep = an.fold_convergence_experiment(
        tb.disk_table(), am.euclidean(3), direction=(0.8, 0.6),
        lambdas=[2.0**-k for k in range(1, 9)], T=0.5, dt=DT, workers=4)
    elapsed = time.perf_counter() - t0
    sups = [r.sup_distance for r in rep.rows]
    assert all(b < a for a, b in zip(sups, sups[1:]))
    assert sups[-1] <= 5e-3
    assert rep.rows[-1].residual <= 10 * DT
    assert rep.details["polar_angle_final"] <= 1e-2
    assert rep.verdict == "pass"
    assert elapsed < 120.0


def test_07_quasigeodesic_residual_separates_corner_types():
    disk = tb.disk_table()
    m2 = am.euclidean(2)
    refs = np.array([[0.3, 0.2], [-0.5, 0.1], [0.0, 0.0], [0.6, -0.6]])
    ts = np.arange(0, np.pi + DT / 2, DT)
    arc = SampledCurve(times=ts, points=np.stack([np.cos(ts), np.sin(ts)], 1))
    rep = an.quasigeodesic_residual(arc, m2, disk, 0.0, refs)
    assert rep.passed and rep.max_residual <= 10 * DT

    ts2 = np.arange(-1, 1 + DT / 2, DT)
    tent = SampledCurve(times=ts2, points=np.stack(
        [ts2 / np.sqrt(2), 1 - np.abs(ts2) / np.sqrt(2)], 1))
    rep2 = an.quasigeodesic_residual(tent, m2, disk, 0.0, refs)
    assert rep2.passed and rep2.max_residual <= 10 * DT

    kink = SampledCurve(times=ts2, points=np.where(
        ts2[:, None] < 0,
        np.stack([ts2, np.zeros_like(ts2)], 1),
        np.stack([np.zeros_like(ts2), ts2], 1)))
    rep3 = an.quasigeodesic_residual(kink, m2, None, 0.0, np.array([[2.0, 1.0]]))
    assert not rep3.passed
    assert rep3.max_residual >= 0.5 / DT


def test_08_steep_billiards_converge_to_the_boundary_geodesic():
    rep = an.boundary_geodesic_experiment(
        tb.disk_table(), am.euclidean(2),
        angles=[0.2 / 2**k for k in range(6)], T=np.pi / 2, dt=DT)
    for row in rep.rows:
        expected = 1.0 - np.cos(row.param)
        assert abs(row.sup_distance - expected) <= 0.10 * expected
    for ratio in rep.details["ratios"]:
        assert 3.3 <= ratio <= 4.7
    assert rep.verdict == "pass"


def test_09_reflection_coincides_with_polarity():
    cases = [
        (tb.disk_table(), am.euclidean(3)),
        (tb.disk_table(), am.hyperbolic(3)),
        (tb.half_space_table(), am.spherical(3)),
    ]
    total = 0
    for table, model in cases:
        res = tb.reflection_iff_polar_check(table, model, 100, seed=9)
        assert res["polar_ok"] == res["n"]
        assert res["perturbation_breaks"] == res["n"]
        total += res["n"]
    assert total == 300


def test_10_integrator_hygiene():
    sphere = Fold(tb.disk_table(), am.euclidean(3), 1.0)
    q0 = np.array([0.0, 0.0, 1.0])
    v0 = np.array([1.0, 0.0, 0.0])

    # order of accuracy: halving dt shrinks the endpoint error by >= 3.5x
    exact = np.array([np.sin(2.0), 0.0, np.cos(2.0)])
    errs = {}
    for dt in (0.02, 0.01, 0.005):
        crv = dy.integrate_fold_geodesic(sphere, q0, v0, 2.0, dt,
                                         two_sided=False, refine_tol=None)
        errs[dt] = np.linalg.norm(crv.points[-1] - exact)
    assert errs[0.02] / errs[0.01] >= 3.5
    assert errs[0.01] / errs[0.005] >= 3.5

    # constraint drift over a long run
    long = dy.integrate_fold_geodesic(sphere, q0, v0, 10.0, DT, two_sided=False)
    assert np.abs([sphere.value(p) for p in long.points]).max() <= 1e-8

    # closed-form distance equals geodesic arclength
    rng = np.random.default_rng(10)
    for model in (am.euclidean(2), am.hyperbolic(2), am.spherical(2)):
        for _ in range(5):
            x0 = rng.uniform(-0.3, 0.3, 2)
            v = am.normalize(model, x0, rng.normal(size=2))
            crv = dy.integrate_table_geodesic(model, x0, v, 1.0, DT)
            d = am.distance(model, x0, crv.points[-1])
            assert abs(d - 1.0) <= 1e-5
