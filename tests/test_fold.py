"""Tests for fold geometry: second fundamental form, sectional curvature,
family scans, sufficient conditions and fold-to-table Hausdorff distances.

Closed-form oracles: the parabola fold's curvature at the origin, the unit
sphere as the disk fold at thickness 1, and the rational curvature defect of
the spherical half-space family.
"""

import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from foldbilliards import ambient as am
from foldbilliards import config as cf
from foldbilliards import fold as fd
from foldbilliards import runner
from foldbilliards import table as tb
from foldbilliards.errors import (DegeneratePlaneError, InvalidInputError,
                                  OutsideTableError, PreconditionError,
                                  SingularPointError)


def xi_defect(lam, x):
    """Oracle: curvature defect of the spherical half-space fold over x.

    Rational closed form in the table coordinates; the mixed-plane sectional
    curvature equals 1 + xi_defect.
    """
    poly = 3 * x[0] ** 2 - 1 - np.sum(x[1:] ** 2)
    return lam**2 * x[0] * poly / (4 * x[0] + lam**2) ** 2


class TestFoldBasics:
    def test_value_and_lift(self):
        f = fd.Fold(tb.disk_table(), am.euclidean(3), 0.5)
        q = fd.lift(f, [0.6, 0.0])
        assert q[2] == pytest.approx(0.5 * 0.8)
        assert f.value(q) == pytest.approx(0.0, abs=1e-15)
        q_minus = fd.lift(f, [0.6, 0.0], sign=-1)
        assert q_minus[2] == pytest.approx(-0.4)

    def test_lift_outside_table_rejected(self):
        f = fd.Fold(tb.disk_table(), am.euclidean(3), 0.5)
        with pytest.raises(OutsideTableError):
            fd.lift(f, [1.5, 0.0])

    def test_bad_lambda_rejected(self):
        with pytest.raises(InvalidInputError):
            fd.Fold(tb.disk_table(), am.euclidean(3), 0.0)
        with pytest.raises(InvalidInputError):
            fd.Fold(tb.disk_table(), am.euclidean(3), -0.2)

    def test_model_dimension_must_extend_table(self):
        with pytest.raises(InvalidInputError):
            fd.Fold(tb.disk_table(), am.euclidean(2), 0.5)

    def test_frame_rejects_off_fold_points(self):
        f = fd.Fold(tb.disk_table(), am.euclidean(3), 0.5)
        with pytest.raises(PreconditionError):
            fd.frame_at(f, np.array([0.0, 0.0, 0.3]))

    def test_frame_is_orthonormal_and_tangent(self, rng):
        f = fd.Fold(tb.disk_table(), am.hyperbolic(3), 0.7)
        for _ in range(10):
            x = rng.uniform(-0.6, 0.6, 2)
            q = fd.lift(f, x, sign=1 if rng.random() < 0.5 else -1)
            fr = fd.frame_at(f, q)
            g = fr.metric.g
            gram = fr.tangent_basis @ g @ fr.tangent_basis.T
            assert np.allclose(gram, np.eye(2), atol=1e-9)
            # tangent vectors annihilate dF
            dF = f.euclid_grad(q)
            assert np.abs(fr.tangent_basis @ dF).max() < 1e-9


    @pytest.mark.parametrize("table, model", [
        pytest.param(tb.disk_table(), am.euclidean(3), id="disk-euclidean"),
        pytest.param(tb.disk_table(), am.hyperbolic(3), id="disk-hyperbolic"),
        pytest.param(tb.parabola_table(), am.euclidean(3), id="parabola-euclidean"),
        pytest.param(tb.spherical_halfspace_table(), am.spherical(4), id="spherical-halfspace"),
    ])
    def test_batch_equals_rows(self, table, model):
        f = fd.Fold(table, model, 0.3)
        pts = fd.sample_table_points(table, 12)
        X = pts[np.random.default_rng(1).choice(len(pts), 50, replace=False)]
        for sign in (1, -1):
            Q = fd.lift(f, X, sign)
            assert (Q == np.array([fd.lift(f, x, sign) for x in X])).all()
        fr = fd.frame_at(f, Q)
        assert fr.defined.all()
        rows = [fd.frame_at(f, q) for q in Q]
        one = fd.frame_at(f, Q[:1])
        for name in ("tangent_basis", "h", "hessian", "grad_norm"):
            assert (getattr(fr, name) == np.array([getattr(r, name) for r in rows])).all()
            assert (getattr(one, name)[0] == getattr(rows[0], name)).all()

    def test_batch_frame_marks_points_off_the_fold(self):
        f = fd.Fold(tb.disk_table(), am.euclidean(3), 0.5)
        Q = np.array([fd.lift(f, [0.6, 0.0]), [0.0, 0.0, 0.3], fd.lift(f, [0.0, 0.2], -1)])
        assert fd.frame_at(f, Q).defined.tolist() == [True, False, True]
        with pytest.raises(OutsideTableError):
            fd.lift(f, [[0.6, 0.0], [1.5, 0.0]])


class TestCurvatureOracles:
    @pytest.mark.parametrize("lam", [0.5, 0.25, 0.1])
    def test_parabola_fold_blows_up_like_minus_four_over_lambda_sq(self, lam):
        f = fd.Fold(tb.parabola_table(), am.euclidean(3), lam)
        sec = fd.sectional_curvature(f, np.zeros(3), [1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        assert sec == pytest.approx(-4.0 / lam**2, rel=1e-6)

    def test_parabola_second_fundamental_form_at_origin(self):
        lam = 0.5
        f = fd.Fold(tb.parabola_table(), am.euclidean(3), lam)
        q0 = np.zeros(3)
        assert fd.second_fundamental_form(f, q0, [1, 0, 0], [1, 0, 0]) == pytest.approx(-2.0)
        assert fd.second_fundamental_form(f, q0, [0, 0, 1], [0, 0, 1]) == pytest.approx(
            2.0 / lam**2)

    def test_unit_sphere_has_curvature_one(self):
        # the disk fold at thickness 1 is the unit sphere; a local generator
        # and g-orthonormal planes, as in the scan, so no other test's draws
        # pick a near-parallel pair
        r = np.random.default_rng(7)
        f = fd.Fold(tb.disk_table(), am.euclidean(3), 1.0)
        worst = 0.0
        for _ in range(50):
            x = r.uniform(-0.9, 0.9, 2)
            if tb.disk_table().f(x) < 0.05:
                continue
            q = fd.lift(f, x, 1 if r.random() < 0.5 else -1)
            fr = fd.frame_at(f, q)
            g = fr.metric.g
            v, w = r.normal(size=(2, 2)) @ fr.tangent_basis
            v = v / np.sqrt(v @ g @ v)
            w = w - (w @ g @ v) * v
            w = w / np.sqrt(w @ g @ w)
            worst = max(worst, abs(fd.sectional_curvature(f, q, v, w) - 1.0))
        assert worst < 1e-9

    def test_unit_sphere_shape_operator_is_identity(self):
        f = fd.Fold(tb.disk_table(), am.euclidean(3), 1.0)
        fr = fd.frame_at(f, np.array([1.0, 0.0, 0.0]))
        assert np.allclose(np.abs(fr.h), np.eye(2), atol=1e-9)

    @given(seed=st.integers(0, 10**6))
    def test_sectional_curvature_is_plane_dependent_only(self, seed):
        r = np.random.default_rng(seed)
        f = fd.Fold(tb.disk_table(), am.euclidean(3), 1.0)
        q = fd.lift(f, np.array([0.3, 0.2]))
        fr = fd.frame_at(f, q)
        v, w = fr.tangent_basis
        sec0 = fd.sectional_curvature(f, q, v, w)
        A = r.normal(size=(2, 2))
        if abs(np.linalg.det(A)) < 0.1:
            return
        v2 = A[0, 0] * v + A[0, 1] * w
        w2 = A[1, 0] * v + A[1, 1] * w
        assert fd.sectional_curvature(f, q, v2, w2) == pytest.approx(sec0, abs=1e-8)

    def test_sectional_rejects_parallel_vectors(self):
        f = fd.Fold(tb.disk_table(), am.euclidean(3), 1.0)
        q = np.array([1.0, 0.0, 0.0])
        with pytest.raises(DegeneratePlaneError):
            fd.sectional_curvature(f, q, [0.0, 1.0, 0.0], [0.0, 2.0, 0.0])

    def test_spherical_halfspace_gradient_at_base_point(self):
        lam = 0.5
        f = fd.Fold(tb.spherical_halfspace_table(), am.spherical(4), lam)
        fr = fd.frame_at(f, np.zeros(4))
        assert np.allclose(fr.grad, [-(lam**2) / 4.0, 0.0, 0.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("lam", [0.9, 0.1])
    def test_spherical_halfspace_matches_rational_defect(self, lam, rng):
        sph = tb.spherical_halfspace_table()
        f = fd.Fold(sph, am.spherical(4), lam)
        count = 0
        while count < 60:
            x = rng.uniform(-1, 1, 3)
            if x[0] <= 0 or not sph.region.contains(x) or sph.f(x) <= 0:
                continue
            count += 1
            q = fd.lift(f, x, 1 if rng.random() < 0.5 else -1)
            z = q[-1]
            # tangent plane spanned by the lifted normal direction and e2
            v1 = np.array([2 * z, 0.0, 0.0, lam**2])
            vj = np.array([0.0, 1.0, 0.0, 0.0])
            sec = fd.sectional_curvature(f, q, v1, vj)
            assert sec - 1.0 == pytest.approx(xi_defect(lam, x), abs=1e-8)
            # planes not meeting the fold direction keep the ambient curvature
            vk = np.array([0.0, 0.0, 1.0, 0.0])
            assert fd.sectional_curvature(f, q, vj, vk) >= 1.0 - 1e-9


def _reference_frames(fold, points):
    """The scan's frames point by point: (q, frame), or None for a skipped one."""
    for x in points:
        for sign in (1, -1):
            if sign == -1 and fold.table.f(x) <= fd.EDGE_EXCLUSION_F:
                continue
            try:
                q = fd.lift(fold, x, sign)
                yield q, fd.frame_at(fold, q)
            except (OutsideTableError, SingularPointError, PreconditionError):
                yield None


def _dot_in_order(u, v):
    """u . v of two vectors as Python floats, coordinate by coordinate."""
    out = float(u[0]) * float(v[0])
    for uk, vk in zip(u[1:].tolist(), v[1:].tolist()):
        out += uk * vk
    return out


def _reference_scan_one_lambda(fold, points, n_random_planes, seed):
    """Point-by-point scan loop in tangent coordinates, kept as the
    reference for the batched scan."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, int(1e6 * fold.lam)]))
    best, best_q, best_plane, n_eval, n_skip = np.inf, None, None, 0, 0
    n = fold.table.n
    eye = np.eye(n)
    for item in _reference_frames(fold, points):
        if item is None:
            n_skip += 1
            continue
        q, frame = item
        planes = [(eye[i], eye[j]) for i in range(n) for j in range(i + 1, n)]
        for _ in range(n_random_planes):
            a = rng.normal(size=n)
            a = a / np.sqrt(a @ a)
            b = rng.normal(size=n)
            b = b - (b @ a) * a
            nb = np.sqrt(b @ b)
            if nb < 1e-8:
                continue
            planes.append((a, b / nb))
        for a, b in planes:
            ab = _dot_in_order(a, b)
            gram = _dot_in_order(a, a) * _dot_in_order(b, b) - ab * ab
            if gram < 1e-12:
                n_skip += 1
                continue
            ha = np.array([_dot_in_order(row, a) for row in frame.h])
            hb = np.array([_dot_in_order(row, b) for row in frame.h])
            hab = _dot_in_order(b, ha)
            sec = float(fold.model.kappa
                        + (_dot_in_order(a, ha) * _dot_in_order(b, hb) - hab * hab) / gram)
            n_eval += 1
            if sec < best:
                best, best_q, best_plane = sec, q, np.array([a, b]) @ frame.tangent_basis
    return best, best_q, best_plane, n_eval, n_skip


def _ambient_scan_one_lambda(fold, points, n_random_planes, seed):
    """Minimum of the same scan with every plane built and evaluated in
    ambient vectors: g-orthonormal pairs and the Gauss equation with the
    ambient metric and covariant Hessian of F."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, int(1e6 * fold.lam)]))
    best = np.inf
    n = fold.table.n
    for item in _reference_frames(fold, points):
        if item is None:
            continue
        _, frame = item
        t, g = frame.tangent_basis, frame.metric.g
        planes = [(t[i], t[j]) for i in range(n) for j in range(i + 1, n)]
        for _ in range(n_random_planes):
            a = rng.normal(size=n) @ t
            a = a / np.sqrt(a @ g @ a)
            b = rng.normal(size=n) @ t
            b = b - (b @ g @ a) * a
            nb = np.sqrt(b @ g @ b)
            if nb >= 1e-8:
                planes.append((a, b / nb))
        for v, w in planes:
            gram = (v @ g @ v) * (w @ g @ w) - (v @ g @ w) ** 2
            if gram >= 1e-12:
                hv = frame.hessian @ v
                hvv, hvw = v @ hv / frame.grad_norm, w @ hv / frame.grad_norm
                hww = w @ frame.hessian @ w / frame.grad_norm
                best = min(best, float(fold.model.kappa + (hvv * hww - hvw * hvw) / gram))
    return best


_SCAN_CASES = [
    pytest.param(tb.disk_table(), am.euclidean(3), [0.5, 0.2, 1e-9, 1e-11],
                 id="disk-euclidean"),
    pytest.param(tb.disk_table(), am.hyperbolic(3), [0.5, 0.05], id="disk-hyperbolic"),
    pytest.param(tb.parabola_table(), am.euclidean(3), [0.3, 0.1], id="parabola-euclidean"),
    pytest.param(tb.spherical_halfspace_table(), am.spherical(4), [0.5, 0.1],
                 id="spherical-halfspace"),
]


# f = 1 - x1^2 + x1 x2 / 2 - 2 x2^4 on the ball of radius 2
QUARTIC_TABLE = tb.TableSpec(
    n=2, name="quartic", p0=(1.0, 0.0), region=tb.Region(center=(0.0, 0.0), radius=2.0),
    shape=tb.PolynomialShape(terms=(((0, 0), 1.0), ((2, 0), -1.0), ((1, 1), 0.5),
                                    ((0, 4), -2.0))))


class TestScan:
    @pytest.mark.parametrize(
        "table", [e.build() for e in tb.BUILTIN_TABLES.values()] + [QUARTIC_TABLE],
        ids=lambda t: t.name)
    def test_samples_lie_off_the_pinch_and_step_from_regular_points(self, table):
        # the scan lifts both sheets of every sample, and sample_table_points
        # steps inward from every sampled boundary point, neither under a mask
        euclid = am.euclidean(table.n + 1)
        for seed in (0, 3):
            for n_grid in (8, 24):
                pts = fd.sample_table_points(table, n_grid, seed=seed)
                assert (table.f(pts) > fd.EDGE_EXCLUSION_F).all()
            bpts = tb.sample_boundary_points(table, euclid, fd.N_EDGE_POINTS, seed=seed)
            df = table.grad_f(bpts)
            assert (np.sqrt(am._dot(df, df)) >= 1e-6).all()

    @pytest.mark.parametrize("table, model, lambdas", _SCAN_CASES)
    def test_batched_scan_equals_the_reference_loop(self, table, model, lambdas):
        # dF is singular on most frames at lambda = 1e-9 and on all at 1e-11,
        # so those frames are skipped
        rep = fd.scan_curvature(table, model, lambdas, 0.0, n_grid=8, n_random_planes=4)
        points = fd.sample_table_points(table, 8)
        ref = [_reference_scan_one_lambda(fd.Fold(table, model, lam), points, 4, 0)
               for lam in lambdas]
        for lam, r in zip(lambdas, ref):
            got = fd._scan_one_lambda(fd.Fold(table, model, lam), points, 4, 0)
            assert got[0] == r[0] and got[3:] == r[3:]
            assert (got[1] is None and r[1] is None) or (got[1] == r[1]).all()
            assert (got[2] is None and r[2] is None) or (got[2] == r[2]).all()
        k = int(np.argmin([r[0] for r in ref]))
        assert rep.min_sec_per_lambda == [r[0] for r in ref]
        assert rep.argmin_point == ref[k][1].tolist()
        assert rep.argmin_plane == ref[k][2].tolist()
        assert rep.n_samples == sum(r[3] for r in ref)
        assert rep.n_skipped == sum(r[4] for r in ref)

    @pytest.mark.parametrize("table, model, lambdas", _SCAN_CASES)
    def test_tangent_coordinates_agree_with_the_ambient_route(self, table, model, lambdas):
        points = fd.sample_table_points(table, 8)
        for lam in lambdas:
            fold = fd.Fold(table, model, lam)
            got = fd._scan_one_lambda(fold, points, 4, 0)
            old = _ambient_scan_one_lambda(fold, points, 4, 0)
            if got[1] is None:
                assert old == np.inf
                continue
            assert abs(got[0] - old) <= 1e-12 * max(1.0, abs(old))
            # the witness plane is tangent and its curvature is the minimum
            witness = fd.sectional_curvature(fold, got[1], *got[2])
            assert abs(witness - got[0]) <= 1e-12 * max(1.0, abs(got[0]))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_gauss_equation_of_one_point_equals_its_batch_row(self, n):
        rng = np.random.default_rng([29, n])
        h = rng.normal(size=(200, n, n))
        h = 0.5 * (h + h.swapaxes(-1, -2))
        a, b = rng.normal(size=(2, n, 200, 5))
        sec, gram = fd._gauss_equation(h[:, None], 0.5, a, b)
        for i in range(200):
            for p in range(5):
                one = fd._gauss_equation(h[i], 0.5, a[:, i, p], b[:, i, p])
                assert np.shape(one[0]) == () and one[0] == sec[i, p] and one[1] == gram[i, p]

    def test_euclidean_disk_certified_nonnegative(self):
        rep = fd.scan_curvature(tb.disk_table(), am.euclidean(3),
                                [0.9, 0.5, 0.2, 0.05], kappa=0.0, n_grid=12)
        assert rep.verdict == "certified"
        assert rep.min_sec >= -1e-8
        assert rep.boundary_clause == "unverified"

    def test_hyperbolic_disk_certified_above_minus_one(self):
        rep = fd.scan_curvature(tb.disk_table(), am.hyperbolic(3),
                                [0.9, 0.5, 0.2, 0.05], kappa=-1.0, n_grid=12)
        assert rep.verdict == "certified"
        assert rep.min_sec >= -1.0 - 1e-6

    def test_parabola_violates_any_fixed_bound(self):
        rep = fd.scan_curvature(tb.parabola_table(), am.euclidean(3),
                                [0.1], kappa=-20.0, n_grid=12)
        assert rep.verdict == "violated"
        assert rep.min_sec < -300.0
        # the witness is recorded
        assert rep.argmin_lambda == 0.1
        assert len(rep.argmin_point) == 3

    def test_scan_is_deterministic_for_fixed_seed(self):
        a = fd.scan_curvature(tb.disk_table(), am.euclidean(3), [0.5], 0.0,
                              n_grid=8, seed=5)
        b = fd.scan_curvature(tb.disk_table(), am.euclidean(3), [0.5], 0.0,
                              n_grid=8, seed=5)
        assert a.min_sec == b.min_sec
        assert a.to_dict() == b.to_dict()

    def test_empty_lambda_grid_rejected(self):
        with pytest.raises(InvalidInputError, match="lambdas: expected a nonempty list"):
            fd.scan_curvature(tb.disk_table(), am.euclidean(3), [], 0.0)

    @pytest.mark.parametrize("values, message", [
        ([0.5, float("nan")], r"^x\[1\]: must be finite$"),
        ([0.5, float("inf")], r"^x\[1\]: must be finite$"),
        ([0.5, 0.0], r"^x\[1\]: must be > 0$"),
        ([1.0, 0.5], r"^x: values must lie in \(0, 1\)$"),
        ([0.5, 0.5], r"^x: values must be strictly decreasing$"),
    ])
    def test_grid_rule(self, values, message):
        with pytest.raises(InvalidInputError, match=message):
            fd.check_grid(values, 0.0, 1.0, name="x")

    def test_grid_rule_returns_floats(self):
        assert fd.check_grid((1, 0.5), 0.0, 2.0) == [1.0, 0.5]
        assert fd.check_grid([0.5, 3], 0.0, np.inf, decreasing=False) == [0.5, 3.0]


class TestSufficientConditions:
    def test_disk_passes_in_both_certifiable_models(self):
        rep_e = fd.check_h_sufficient_conditions(tb.disk_table(), am.euclidean(3))
        assert rep_e.passed
        rep_h = fd.check_h_sufficient_conditions(tb.disk_table(), am.hyperbolic(3))
        assert rep_h.passed
        # 2f - x . Df is identically 2 on the disk
        assert rep_h.min_concavity_defect == pytest.approx(2.0, abs=1e-12)

    def test_parabola_fails_concavity(self):
        rep = fd.check_h_sufficient_conditions(tb.parabola_table(), am.euclidean(3))
        assert not rep.passed
        assert rep.max_hess_eigenvalue > 1.0

    def test_spherical_model_has_no_closed_form_condition(self):
        with pytest.raises(PreconditionError):
            fd.check_h_sufficient_conditions(tb.spherical_halfspace_table(),
                                             am.spherical(4))


def _hausdorff_config(kind, model_kind, lambdas, n_grid):
    return cf.validate_config({"experiment": "hausdorff", "table": {"kind": kind},
                               "model": {"kind": model_kind},
                               "parameters": {"lambdas": lambdas, "n_grid": n_grid}})


class TestHausdorff:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_eig_max_equals_the_largest_metric_eigenvalue(self, d):
        # the origin, rows tied in |x|^2 (signs and coordinates swapped) and
        # rows a few ulps apart, where the least |x|^2 decides the value
        r = np.random.default_rng([13, d])
        x = r.uniform(-1.0, 1.0, d)
        X = np.concatenate([r.uniform(-2.0, 2.0, (300, d)), [x, -x, x[::-1], np.zeros(d)],
                            x * (1.0 + np.arange(1, 6)[:, None] * 2.0**-52)])
        for rows in (X, X[:-6], X[:300], X[-3:-2], np.concatenate([X[:-6], X[-5:]])):
            for kind in ("euclidean", "spherical"):
                model = am.AmbientModel(kind, d)
                expect = am.metric_many(model, rows)[:, 0, 0].max()
                assert fd._eig_max(model, rows).tobytes() == expect.tobytes()
            # the hyperbolic metric has the eigenvalue 1 (d - 1 times) and
            # 1 / (1 + |x|^2); eigvalsh reads the 1 within roundoff
            model = am.hyperbolic(d)
            assert fd._eig_max(model, rows) == 1.0
            eig = np.linalg.eigvalsh(am.metric_many(model, rows))[:, -1]
            assert np.abs(eig - 1.0).max() <= 1e-13

    @pytest.mark.parametrize("lam", [0.4, 0.05])
    def test_disk_fold_sits_at_height_lambda(self, lam):
        [hd] = fd.hausdorff_distance(tb.disk_table(), am.euclidean(3), [lam])
        assert hd.sup_fold_to_table == pytest.approx(lam, abs=1e-3)
        assert hd.sup_table_to_fold == pytest.approx(lam, abs=1e-3)

    def test_one_sided_distances_below_scaling_bound(self):
        cases = [
            (tb.disk_table(), am.euclidean(3)),
            (tb.disk_table(), am.hyperbolic(3)),
            (tb.half_space_table(), am.euclidean(3)),
            (tb.parabola_table(), am.euclidean(3)),
            (tb.spherical_halfspace_table(), am.spherical(4)),
        ]
        for table, model in cases:
            [hd] = fd.hausdorff_distance(table, model, [0.2], n_grid=41)
            assert hd.sup_fold_to_table <= hd.bound + 1e-3
            assert hd.sup_table_to_fold <= hd.bound + 1e-3

    def test_shrinks_linearly_in_lambda(self):
        sups = [hd.sup_fold_to_table for hd in fd.hausdorff_distance(
            tb.disk_table(), am.euclidean(3), (0.4, 0.2, 0.1), n_grid=61)]
        assert sups[0] / sups[1] == pytest.approx(2.0, rel=1e-2)
        assert sups[1] / sups[2] == pytest.approx(2.0, rel=1e-2)

    @pytest.mark.parametrize("lam", [0.4, 0.2, 0.05])
    @pytest.mark.parametrize("table, model", [
        pytest.param(tb.disk_table(), am.euclidean(3), id="euclidean"),
        pytest.param(tb.disk_table(), am.hyperbolic(3), id="hyperbolic"),
        pytest.param(tb.spherical_halfspace_table(), am.spherical(4), id="spherical"),
    ])
    def test_pruned_sups_equal_the_dense_matrix(self, table, model, lam):
        table_pts, fvals = fd._table_samples(table, 21)
        fold_pts, foot = fd._hausdorff_samples(lam, table_pts, fvals)
        assert np.array_equal(fold_pts[:, :-1], table_pts[foot, :-1])
        dense = am.distance_cross(model, fold_pts, table_pts)
        [hd] = fd.hausdorff_distance(table, model, [lam], n_grid=21)
        assert hd.sup_fold_to_table == dense.min(axis=1).max()
        assert hd.sup_table_to_fold == dense.min(axis=0).max()

    @pytest.mark.parametrize("table, model", [
        pytest.param(tb.disk_table(), am.hyperbolic(3), id="hyperbolic"),
        pytest.param(tb.spherical_halfspace_table(), am.spherical(4), id="spherical"),
    ])
    def test_each_sample_set_is_split_once(self, table, model):
        # a family call splits the table samples once; each lambda's fold
        # cells are the lifts of the table cells, which hold every fold
        # sample once, and the sups are those of two searches that split
        # their own sets
        with mock.patch.object(am, "_cells", wraps=am._cells) as cells:
            rows = fd.hausdorff_distance(table, model, [0.4, 0.2], 21)
        assert cells.call_count == 1
        table_pts, fvals = fd._table_samples(table, 21)
        balls = am._balls(model, table_pts)
        table_cell = np.empty(len(table_pts), dtype=int)
        table_cell[balls[0]] = balls[2]
        for row in rows:
            fold_pts, foot = fd._hausdorff_samples(row.lam, table_pts, fvals)
            perm, starts = fd._lifted_cells(*balls[:2], foot)
            assert np.array_equal(np.sort(perm), np.arange(len(fold_pts)))
            sizes = np.diff(starts, append=len(perm))
            assert starts[0] == 0 and (sizes > 0).all()
            # a cell is the upper or the lower lifts of members of one table cell
            for members in np.split(perm, starts[1:]):
                assert len(set(table_cell[foot[members]])) == 1
                assert len(set(members >= len(table_pts))) == 1
            own = (am._nearest_sup(model, fold_pts, table_pts, pair=foot),
                   am._nearest_sup(model, table_pts, fold_pts, pair=np.arange(len(table_pts))))
            assert (row.sup_fold_to_table, row.sup_table_to_fold) == own

    @pytest.mark.parametrize("kind, model_kind", [
        pytest.param("disk", "euclidean", id="euclidean"),
        pytest.param("disk", "hyperbolic", id="hyperbolic"),
        pytest.param("spherical-halfspace", "spherical", id="spherical"),
    ])
    def test_family_rows_equal_single_lambda_calls(self, kind, model_kind, tmp_path):
        # a family call's rows equal one-lambda family calls bit for bit, and
        # a run reports the family call's rows
        lambdas = [0.4, 0.1, 0.05]
        cfg = _hausdorff_config(kind, model_kind, lambdas, 25)
        table, model = cfg.table, cfg.model
        family = [dataclasses.asdict(hd)
                  for hd in fd.hausdorff_distance(table, model, lambdas, n_grid=25)]
        alone = [dataclasses.asdict(fd.hausdorff_distance(table, model, [lam], n_grid=25)[0])
                 for lam in lambdas]
        assert family == alone
        rows = runner.run_experiment(cfg, tmp_path).result["rows"]
        assert [{k: r[k] for k in a} for r, a in zip(rows, family)] == family

    @pytest.mark.parametrize("lambdas, message", [
        ([], r"^lambdas: expected a nonempty list of numbers$"),
        ([0.4, 0.0], r"^lambdas\[1\]: must be > 0$"),
        ([-0.1], r"^lambdas\[0\]: must be > 0$"),
        ([0.4, float("nan")], r"^lambdas\[1\]: must be finite$"),
        ([float("inf")], r"^lambdas\[0\]: must be finite$"),
    ])
    def test_bad_lambda_grid_rejected_before_sampling(self, lambdas, message):
        with mock.patch.object(fd, "_table_samples") as samples:
            with pytest.raises(InvalidInputError, match=message):
                fd.hausdorff_distance(tb.disk_table(), am.euclidean(3), lambdas)
        samples.assert_not_called()

    def test_wrong_model_dimension_rejected_before_sampling(self):
        with mock.patch.object(fd, "_table_samples") as samples:
            with pytest.raises(InvalidInputError, match="dimension"):
                fd.hausdorff_distance(tb.disk_table(), am.euclidean(4), [0.4, 0.2])
        samples.assert_not_called()

    @pytest.mark.parametrize("table, model, n_grid, same, fewer, count", [
        pytest.param(tb.disk_table(), am.euclidean(3), 40, 41, 39, 197, id="made-odd"),
        pytest.param(tb.disk_table(n=3), am.euclidean(4), 121, 57, 55, 5_887, id="thinned-3d"),
        pytest.param(tb.disk_table(), am.euclidean(3), 1001, 447, 445, 25_017, id="thinned-2d"),
    ])
    def test_lattice_rule(self, table, model, n_grid, same, fewer, count):
        # n_grid is made odd, then capped at the largest odd count whose
        # lattice holds at most HAUSDORFF_MAX_POINTS points
        def n_table_samples(g):
            return fd.hausdorff_distance(table, model, [0.2], g)[0].n_table_samples
        assert n_table_samples(n_grid) == n_table_samples(same) == count
        assert n_table_samples(fewer) < count

    def test_hyperbolic_disk_fold_sits_at_asinh_lambda(self):
        # the top of the fold is (0, 0, lambda), at distance asinh(lambda) =
        # 0.009999833340832886 from its footpoint; the chord form keeps it to
        # a few ulps
        [hd] = fd.hausdorff_distance(tb.disk_table(), am.hyperbolic(3), [0.01])
        exact = math.asinh(0.01)
        assert abs(hd.sup_fold_to_table - exact) <= 4 * np.spacing(exact)

    @pytest.mark.parametrize("model", [am.spherical(4), am.euclidean(4)], ids=lambda m: m.kind)
    def test_memory_does_not_grow_with_the_sample_product(self, model):
        # the dense 22,085 x 11,353 matrix of this grid alone is 2,005,848,040
        # bytes; a block's temporaries stay the size of its 16 MiB output
        tracemalloc.start()
        try:
            [hd] = fd.hausdorff_distance(tb.spherical_halfspace_table(), model, [0.05], n_grid=41)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert hd.n_fold_samples * hd.n_table_samples * 8 == 2_005_848_040
        assert peak < 64 * 2**20
