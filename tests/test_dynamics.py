"""Tests for geodesic integration on folds and tables and for billiard
trajectories with event-detected bounces.

Exact oracles: the half-space fold is an isometrically flat cylinder whose
geodesics unroll to straight lines; the disk fold at thickness 1 is the unit
sphere; model geodesics through the origin have closed forms; disk and mirror
billiards are classical geometry.
"""

import numpy as np
import pytest

from foldbilliards import ambient as am
from foldbilliards import dynamics as dy
from foldbilliards import table as tb
from foldbilliards.errors import InvalidInputError, NumericError, PreconditionError
from foldbilliards.fold import Fold

S2 = np.sqrt(2.0) / 2.0


def unrolled_coordinate(lam, z):
    """Arclength of the cross-section x1 = z^2/lam^2 from the pinch to z."""
    s = np.sign(z)
    z = abs(z)
    l2 = lam * lam
    return s * 0.5 * (z * np.sqrt(1 + 4 * z * z / l2**2)
                      + 0.5 * l2 * np.arcsinh(2 * z / l2))


def height_from_unrolled(lam, w, iters=200):
    """Invert unrolled_coordinate by bisection (monotone in z)."""
    s = np.sign(w)
    w = abs(w)
    if w == 0.0:
        return 0.0
    lo, hi = 0.0, max(lam, np.sqrt(w) * lam) * 4 + w
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if unrolled_coordinate(lam, mid) < w:
            lo = mid
        else:
            hi = mid
    return s * 0.5 * (lo + hi)


@pytest.fixture(scope="module")
def sphere_fold():
    return Fold(tb.disk_table(), am.euclidean(3), 1.0)


@pytest.fixture(scope="module")
def long_great_circle(sphere_fold):
    q0 = np.array([0.0, 0.0, 1.0])
    v0 = np.array([1.0, 0.0, 0.0])
    return dy.integrate_fold_geodesic(sphere_fold, q0, v0, 10.0, 1e-3,
                                      two_sided=False)


def generic_raise_index(model, x, df):
    return (am.metric_tensor(model, x).g_inv @ df[..., None])[..., 0]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestEuclideanShortcut:
    """The euclidean g^{-1} df skips the identity product and must give the
    same bits as the generic formula, signed zeros included."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_raise_index_equals_the_identity_product(self, d):
        rng = np.random.default_rng(21)
        m = am.euclidean(d)
        for _ in range(200):
            x = rng.normal(size=d)
            df = rng.normal(size=d) * 10.0 ** rng.integers(-300, 300, size=d)
            df[rng.integers(d)] = rng.choice([0.0, -0.0])
            assert same_bits(dy._raise_index(m, x, df), generic_raise_index(m, x, df))

    @pytest.mark.parametrize("case", ["fold", "boundary"])
    def test_acceleration_and_projection_equal_the_generic_formula(self, case, monkeypatch):
        rng = np.random.default_rng(22)
        if case == "fold":
            fold = Fold(tb.disk_table(), am.euclidean(3), 0.3)
            model, constraint = fold.model, (fold.value, fold.euclid_grad, fold.euclid_hess)
        else:
            disk = tb.disk_table()
            model, constraint = am.euclidean(2), (disk.f, disk.grad_f, disk.hess_f)
        # points within 1e-3 of the level set, where the Newton projection
        # converges in its three iterations
        phi = rng.uniform(0.0, 2 * np.pi, 100)
        circle = np.stack([np.cos(phi), np.sin(phi)], 1)
        on = np.column_stack([S2 * circle, np.full(100, 0.3 * S2)]) if case == "fold" else circle
        states = [(p + 1e-3 * rng.normal(size=model.dim), rng.normal(size=model.dim))
                  for p in on]
        fast = [(dy._acceleration(model, constraint, x, v),
                 *dy._project(model, constraint, x, v)) for x, v in states]
        monkeypatch.setattr(dy, "_raise_index", generic_raise_index)
        for (x, v), want in zip(states, fast):
            got = (dy._acceleration(model, constraint, x, v),
                   *dy._project(model, constraint, x, v))
            assert all(same_bits(a, b) for a, b in zip(got, want))


class TestFoldGeodesic:
    def test_flat_cylinder_pinch_crossing(self):
        # the half-space fold is flat; a geodesic crossing the pinch line
        # unrolls to a straight line in (w, y) coordinates
        lam = 2.0**-8
        fld = Fold(tb.half_space_table(), am.euclidean(3), lam)
        z_s = -lam * np.sqrt(0.25)
        q0 = np.array([z_s**2 / lam**2, 0.0, z_s])
        phi = np.pi / 6
        zdot = np.cos(phi) / np.sqrt(1 + 4 * z_s**2 / lam**4)
        v0 = np.array([2 * z_s / lam**2 * zdot, np.sin(phi), zdot])
        w_s = unrolled_coordinate(lam, z_s)

        crv = dy.integrate_fold_geodesic(fld, q0, v0, 0.6, 1e-3, two_sided=False)
        errs = []
        for i in range(0, len(crv.times), 7):
            t = crv.times[i]
            z_t = height_from_unrolled(lam, w_s + t * np.cos(phi))
            exact = np.array([z_t**2 / lam**2, t * np.sin(phi), z_t])
            errs.append(np.linalg.norm(crv.points[i] - exact))
        assert max(errs) < 1e-6
        # the crossing itself happened: the height changes sign
        assert crv.points[0, 2] < 0 < crv.points[-1, 2]

    def test_great_circle(self, sphere_fold):
        q0 = np.array([0.0, 0.0, 1.0])
        v0 = np.array([1.0, 0.0, 0.0])
        crv = dy.integrate_fold_geodesic(sphere_fold, q0, v0, np.pi, 1e-3,
                                         two_sided=False)
        exact = np.stack([np.sin(crv.times), np.zeros_like(crv.times),
                          np.cos(crv.times)], axis=1)
        assert np.linalg.norm(crv.points - exact, axis=1).max() < 1e-6

    def test_equator_closes(self, sphere_fold):
        q0 = np.array([1.0, 0.0, 0.0])
        v0 = np.array([0.0, 1.0, 0.0])
        crv = dy.integrate_fold_geodesic(sphere_fold, q0, v0, 2 * np.pi, 1e-3,
                                         two_sided=False)
        assert np.linalg.norm(crv.points[-1] - q0) < 1e-5

    def test_zero_duration_gives_single_sample(self, sphere_fold):
        q0 = np.array([0.0, 0.0, 1.0])
        v0 = np.array([1.0, 0.0, 0.0])
        crv = dy.integrate_fold_geodesic(sphere_fold, q0, v0, 0.0, 1e-3)
        assert len(crv.times) == 1
        assert np.allclose(crv.points[0], q0)
        assert np.allclose(crv.velocities[0], v0)

    def test_constraint_drift_stays_below_tolerance(self, sphere_fold,
                                                    long_great_circle):
        drift = np.abs([sphere_fold.value(p) for p in long_great_circle.points])
        assert drift.max() <= 1e-8

    def test_unit_speed_drift_stays_below_tolerance(self, long_great_circle):
        speeds = np.linalg.norm(long_great_circle.velocities, axis=1)
        assert np.abs(speeds - 1.0).max() <= 1e-6

    def test_consecutive_samples_are_dt_apart(self, sphere_fold):
        q0 = np.array([0.0, 0.0, 1.0])
        v0 = np.array([S2, S2, 0.0])
        dt = 1e-3
        crv = dy.integrate_fold_geodesic(sphere_fold, q0, v0, 1.0, dt,
                                         two_sided=False)
        d = am.distance_rowwise(am.euclidean(3), crv.points[:-1], crv.points[1:])
        assert np.abs(d - dt).max() <= 5 * dt**2

    def test_two_sided_grid_covers_both_directions(self, sphere_fold):
        q0 = np.array([0.0, 0.0, 1.0])
        v0 = np.array([1.0, 0.0, 0.0])
        crv = dy.integrate_fold_geodesic(sphere_fold, q0, v0, 0.1, 1e-3)
        assert crv.times[0] == pytest.approx(-0.1)
        assert crv.times[-1] == pytest.approx(0.1)
        i0 = np.searchsorted(crv.times, 0.0)
        assert abs(crv.times[i0]) < 1e-12
        assert np.allclose(crv.points[i0], q0)
        assert np.allclose(crv.velocities[i0], v0)
        # the backward branch is the forward branch of the reversed velocity
        exact = np.stack([np.sin(crv.times), np.zeros_like(crv.times),
                          np.cos(crv.times)], axis=1)
        assert np.linalg.norm(crv.points - exact, axis=1).max() < 1e-6

    def test_truncates_on_leaving_patch(self):
        # run up the sheet of the half-space fold until |x| exceeds the patch
        lam = 0.5
        fld = Fold(tb.half_space_table(), am.euclidean(3), lam)
        x1 = 4.0
        q0 = np.array([x1, 0.0, lam * np.sqrt(x1)])
        v0 = np.array([1.0, 0.0, lam / (2 * np.sqrt(x1))])
        v0 /= np.linalg.norm(v0)
        crv = dy.integrate_fold_geodesic(fld, q0, v0, 3.0, 1e-3, two_sided=False)
        assert crv.truncated
        assert crv.exit_forward is not None
        assert 0.0 < crv.exit_forward <= 3.0
        assert crv.times[-1] < 3.0

    def test_preconditions(self, sphere_fold):
        q0 = np.array([0.0, 0.0, 1.0])
        with pytest.raises(PreconditionError):
            dy.integrate_fold_geodesic(sphere_fold, q0, np.array([2.0, 0, 0]),
                                       1.0, 1e-3)
        with pytest.raises(PreconditionError):
            dy.integrate_fold_geodesic(sphere_fold, np.array([0, 0, 1.5]),
                                       np.array([1.0, 0, 0]), 1.0, 1e-3)
        with pytest.raises(PreconditionError):
            dy.integrate_fold_geodesic(sphere_fold, q0, np.array([0, 0, 1.0]),
                                       1.0, 1e-3)

    def test_order_of_accuracy_at_least_two(self, sphere_fold):
        # with step refinement disabled halving dt must shrink the endpoint
        # error by at least 3.5x
        q0 = np.array([0.0, 0.0, 1.0])
        v0 = np.array([1.0, 0.0, 0.0])
        exact = np.array([np.sin(2.0), 0.0, np.cos(2.0)])
        errs = {}
        for dt in (0.02, 0.01, 0.005):
            c = dy.integrate_fold_geodesic(sphere_fold, q0, v0, 2.0, dt,
                                           two_sided=False, refine_tol=None)
            errs[dt] = np.linalg.norm(c.points[-1] - exact)
        assert errs[0.02] / errs[0.01] >= 3.5
        assert errs[0.01] / errs[0.005] >= 3.5

    def test_step_floor_raises(self, sphere_fold):
        # rounding alone keeps the error estimate above 1e-30, so the step
        # shrinks until it falls below STEP_FLOOR T
        with pytest.raises(NumericError, match=r"fell below the floor 1e-12 T = 1e-13"):
            dy.integrate_fold_geodesic(sphere_fold, np.array([0.0, 0.0, 1.0]),
                                       np.array([1.0, 0.0, 0.0]), 0.1, 1e-2,
                                       two_sided=False, refine_tol=1e-30)

    def test_non_finite_acceleration_raises_at_the_floor(self):
        class NanHessDisk(tb.DiskShape):
            def hess(self, x):
                return np.full(x.shape + x.shape[-1:], np.nan)

        table = tb.TableSpec(n=2, shape=NanHessDisk(), region=tb.Region((0.0, 0.0), 2.5),
                             p0=(1.0, 0.0))
        with pytest.raises(NumericError, match="step nan at t = 0.0 fell below the floor"):
            dy.integrate_boundary_geodesic(table, am.euclidean(2), np.array([1.0, 0.0]),
                                           np.array([0.0, 1.0]), 1.0, 1e-2)

    def test_newton_cap_raises_naming_the_time(self, sphere_fold):
        # one fixed RK4 step of length 2 on the unit sphere lands so far off
        # it that three Newton iterations leave |F| above NEWTON_F_TOL
        q0, v0 = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
        dy.integrate_fold_geodesic(sphere_fold, q0, v0, 1.0, 1.0, two_sided=False,
                                   refine_tol=None)
        with pytest.raises(NumericError, match=r"after 3 iterations at t = 2\.0"):
            dy.integrate_fold_geodesic(sphere_fold, q0, v0, 2.0, 2.0, two_sided=False,
                                       refine_tol=None)
        # F = |q|^2 - 1 from (10, 0, 0): Newton reaches 5.05, 2.62, 1.50
        constraint = (sphere_fold.value, sphere_fold.euclid_grad, sphere_fold.euclid_hess)
        x = np.array([[0.0, 0.0, 1.0 + 1e-6], [10.0, 0.0, 0.0]])
        with pytest.raises(NumericError, match=r"\|F\| = 1\.2.* at t = 0\.5"):
            dy._project(sphere_fold.model, constraint, x, np.ones((2, 3)), [0.25, 0.5])
        dy._project(sphere_fold.model, constraint, x[:1], np.ones((1, 3)))

    @pytest.mark.parametrize("kind", am.MODEL_KINDS)
    def test_two_sided_run_equals_its_one_sided_runs(self, kind):
        # the two sides are two rows of one batch, each with its own steps
        fld = Fold(tb.disk_table(), am.AmbientModel(kind, 3), 0.25)
        q0, v0 = pinch_launch(fld)
        both = dy.integrate_fold_geodesic(fld, q0, v0, 0.3, 1e-2)
        fwd = dy.integrate_fold_geodesic(fld, q0, v0, 0.3, 1e-2, two_sided=False)
        bwd = dy.integrate_fold_geodesic(fld, q0, -v0, 0.3, 1e-2, two_sided=False)
        i0 = len(bwd) - 1
        assert same_bits(both.points[i0:], fwd.points)
        assert same_bits(both.velocities[i0:], fwd.velocities)
        assert same_bits(both.points[i0::-1], bwd.points)
        assert same_bits(-both.velocities[i0::-1], bwd.velocities)


def pinch_launch(fold):
    """The lift of the disk point (1, 0) and a unit velocity 0.8 along the
    boundary tangent plus 0.6 vertical, as fold-convergence launches."""
    q0 = np.array([1.0, 0.0, 0.0])
    t_hat = tb.boundary_frame(fold.table, fold.model, q0[:2]).tangent_basis[0]
    e_vert = am.normalize(fold.model, q0, np.array([0.0, 0.0, 1.0]))
    return q0, am.normalize(fold.model, q0, 0.8 * np.append(t_hat, 0.0) + 0.6 * e_vert)


class TestBatchKernels:
    """B rows of the level-set kernels give the same bits as B one-point
    calls, in every model."""

    @staticmethod
    def states(fold, rng, m=40):
        # near the fold, with rows that need 0 to 3 Newton iterations
        x = rng.uniform(-0.8, 0.8, (m, 2))
        f = fold.table.f(x)
        q = np.column_stack([x, fold.lam * np.sqrt(np.maximum(f, 0.0))])
        q[::4, -1] += 10.0 ** -rng.integers(3, 12, len(q[::4]))
        return q, rng.normal(size=q.shape)

    @pytest.mark.parametrize("kind", am.MODEL_KINDS)
    def test_rows_equal_single_points(self, kind):
        rng = np.random.default_rng([61, am.MODEL_KINDS.index(kind)])
        fold = Fold(tb.disk_table(), am.AmbientModel(kind, 3), 0.5)
        constraint = (fold.value, fold.euclid_grad, fold.euclid_hess)
        X, V = self.states(fold, rng)
        df = fold.euclid_grad(X)
        batch = (am.christoffel_quadratic(fold.model, X, V),
                 dy._raise_index(fold.model, X, df),
                 dy._acceleration(fold.model, constraint, X, V),
                 *dy._project(fold.model, constraint, X, V))
        for i in range(len(X)):
            one = (am.christoffel_quadratic(fold.model, X[i], V[i]),
                   dy._raise_index(fold.model, X[i], df[i]),
                   dy._acceleration(fold.model, constraint, X[i], V[i]),
                   *dy._project(fold.model, constraint, X[i], V[i]))
            assert all(same_bits(a[i], b) for a, b in zip(batch, one))


class TestTableGeodesic:
    def test_euclidean_straight_line_is_exact(self):
        crv = dy.integrate_table_geodesic(am.euclidean(2), np.zeros(2),
                                          np.array([1.0, 0.0]), 1.0, 1e-3)
        assert np.allclose(crv.points[-1], [1.0, 0.0], atol=1e-14)

    def test_hyperbolic_radial_geodesic(self):
        m = am.hyperbolic(2)
        crv = dy.integrate_table_geodesic(m, np.zeros(2), np.array([1.0, 0.0]),
                                          2.0, 1e-3)
        exact = np.stack([np.sinh(crv.times), np.zeros_like(crv.times)], axis=1)
        assert np.linalg.norm(crv.points - exact, axis=1).max() < 1e-8
        assert am.distance(m, np.zeros(2), crv.points[-1]) == pytest.approx(
            2.0, abs=1e-6)

    def test_spherical_quarter_turn(self):
        # g(0) = 4 I so (1/2, 0) is the unit radial direction
        m = am.spherical(2)
        crv = dy.integrate_table_geodesic(m, np.zeros(2), np.array([0.5, 0.0]),
                                          np.pi / 2, 1e-3)
        assert am.distance(m, np.zeros(2), crv.points[-1]) == pytest.approx(
            np.pi / 2, abs=1e-6)
        assert np.allclose(crv.points[-1], [1.0, 0.0], atol=1e-8)

    def test_accepts_ambient_model_of_a_table(self):
        # table-level entry point restricts an ambient model internally
        disk = tb.disk_table()
        crv = dy.integrate_boundary_geodesic(disk, am.euclidean(3),
                                             np.array([1.0, 0.0]),
                                             np.array([0.0, 1.0]), np.pi / 2, 1e-3)
        # the boundary geodesic of the disk is the unit circle at arclength
        exact = np.stack([np.cos(crv.times), np.sin(crv.times)], axis=1)
        assert np.linalg.norm(crv.points - exact, axis=1).max() < 1e-6

    def test_unit_speed_precondition(self):
        with pytest.raises(PreconditionError):
            dy.integrate_table_geodesic(am.euclidean(2), np.zeros(2),
                                        np.array([2.0, 0.0]), 1.0, 1e-3)

    @pytest.mark.parametrize("x0, v0", [
        ([0.5, 0.0], [0.0, 1.0]),  # start off the boundary
        ([1.0, 0.0], [S2, S2]),    # v0 not tangent to the boundary
        ([1.0, 0.0], [0.0, 2.0]),  # v0 not of unit norm
    ], ids=["off-boundary", "not-tangent", "not-unit"])
    def test_boundary_geodesic_preconditions(self, x0, v0):
        with pytest.raises(PreconditionError):
            dy.integrate_boundary_geodesic(tb.disk_table(), am.euclidean(2),
                                           np.array(x0), np.array(v0), 1.0, 1e-3)


MODELS2 = [am.euclidean(2), am.hyperbolic(2), am.spherical(2)]


def launch(model, seed, speed=1.0):
    """A seeded point in the unit disk and a velocity of the given g-norm."""
    r = np.random.default_rng(seed)
    x = r.uniform(-0.7, 0.7, 2)
    return x, speed * am.normalize(model, x, r.normal(size=2))


class TestGeodesicFlow:
    @pytest.mark.parametrize("model", MODELS2, ids=lambda m: m.kind)
    def test_matches_fixed_step_rk4(self, model):
        x0, v0 = launch(model, 51)
        x, v, dt = x0, v0, 1e-3
        for k in range(1, 801):
            x, v = dy._rk4_step(model, None, x, v, dt)
            if k % 100 == 0:
                xt, vt = am.geodesic_flow(model, x0, v0, k * dt)
                assert np.abs(xt - x).max() <= 1e-10
                assert np.abs(vt - v).max() <= 1e-10

    @pytest.mark.parametrize("model", MODELS2, ids=lambda m: m.kind)
    def test_batch_equals_a_loop(self, model):
        r = np.random.default_rng(52)
        X = r.uniform(-0.7, 0.7, (5, 2))
        V = r.normal(size=(5, 2))
        T = r.uniform(-1.5, 1.5, 5)
        xt, vt = am.geodesic_flow(model, X, V, T)
        for i in range(5):
            assert all(map(same_bits, (xt[i], vt[i]), am.geodesic_flow(model, X[i], V[i], T[i])))
        # a scan of times from one point, and times against a batch of points
        scan = am.geodesic_flow(model, X[0], V[0], T)
        grid = am.geodesic_flow(model, X, V, T[:3, None])
        assert scan[0].shape == scan[1].shape == (5, 2)
        assert grid[0].shape == grid[1].shape == (3, 5, 2)
        for j in range(3):
            assert all(map(same_bits, (scan[0][j], scan[1][j]),
                           am.geodesic_flow(model, X[0], V[0], T[j])))
            for i in range(5):
                one = am.geodesic_flow(model, X[i], V[i], T[j])
                assert all(map(same_bits, (grid[0][j, i], grid[1][j, i]), one))

    def test_euclidean_branch_is_x_plus_t_v(self):
        r = np.random.default_rng(53)
        for _ in range(100):
            x, v, t = r.normal(size=3), r.normal(size=3), float(r.uniform(-2, 2))
            xt, vt = am.geodesic_flow(am.euclidean(3), x, v, t)
            assert same_bits(xt, x + t * v) and same_bits(vt, v)
        T = r.uniform(-2, 2, 4)
        xt, vt = am.geodesic_flow(am.euclidean(3), x, v, T)
        assert same_bits(xt, np.array([x + t * v for t in T]))
        assert same_bits(vt, np.array([v] * 4))

    @pytest.mark.parametrize("model", MODELS2, ids=lambda m: m.kind)
    def test_distance_is_time_times_speed(self, model):
        x0, v0 = launch(model, 54, speed=0.7)
        T = np.linspace(0.0, 2.0, 9)
        xt, vt = am.geodesic_flow(model, x0, v0, T)
        assert np.abs(am.distance(model, x0, xt) - 0.7 * T).max() <= 1e-12
        assert np.abs(am.norm(model, xt, vt) - 0.7).max() <= 1e-13
        # zero speed stays put
        still = am.geodesic_flow(model, x0, np.zeros(2), 1.0)
        assert np.abs(still[0] - x0).max() <= 1e-15 and not still[1].any()

    def test_spherical_raises_at_the_pole(self):
        # from the origin (the south pole) the unit geodesic reaches the
        # stereographic pole at t = pi
        m = am.spherical(2)
        x, v = np.zeros(2), np.array([0.5, 0.0])
        am.geodesic_flow(m, x, v, [3.0, 3.1])
        for t in (np.pi, [3.0, np.pi]):
            with pytest.raises(NumericError, match="pole"):
                am.geodesic_flow(m, x, v, t)

    def test_non_finite_results_raise(self):
        with pytest.raises(NumericError, match="not finite"):
            am.geodesic_flow(am.hyperbolic(2), np.zeros(2), np.array([1.0, 0.0]), 1e3)
        with pytest.raises(NumericError, match="not finite"):
            am.geodesic_flow(am.euclidean(2), np.zeros(2), np.array([1.0, 0.0]), np.nan)
        with pytest.raises(NumericError, match="not finite"):
            am.geodesic_flow(am.spherical(2), np.array([np.inf, 0.0]), np.ones(2), 0.5)

    @pytest.mark.parametrize("model", MODELS2, ids=lambda m: m.kind)
    def test_dimension_mismatch_rejected(self, model):
        with pytest.raises(InvalidInputError):
            am.geodesic_flow(model, np.zeros(3), np.ones(3), 1.0)
        with pytest.raises(InvalidInputError):
            am.geodesic_flow(model, np.zeros(2), np.ones(3), 1.0)


def polar_angle(points):
    return np.arctan2(points[:, 1], points[:, 0])


class TestHermite:
    @pytest.mark.parametrize("kind", am.MODEL_KINDS)
    def test_unit_disk_boundary_matches_a_dt_over_8_run(self, kind):
        # the unit circle is the boundary geodesic in all three models
        disk, m = tb.disk_table(), am.AmbientModel(kind, 2)
        p0 = np.array([1.0, 0.0])
        t_hat = tb.boundary_frame(disk, m, p0).tangent_basis[0]
        run = dy.integrate_boundary_geodesic(disk, m, p0, t_hat, 0.25, 1e-3)
        dense = run.hermite(8)
        assert np.abs(np.hypot(*dense.T) - 1.0).max() < 1e-13
        fine = dy.integrate_boundary_geodesic(disk, m, p0, t_hat, 0.25, 1e-3 / 8)
        assert dense.shape == fine.points.shape
        assert np.abs(polar_angle(dense) - polar_angle(fine.points)).max() < 1e-12
        # the samples come back unchanged at every refine-th row
        assert (dense[::8] == run.points).all()

    def test_refine_one_returns_the_samples(self):
        crv = dy.integrate_table_geodesic(am.spherical(2), np.zeros(2),
                                          np.array([0.5, 0.0]), 0.3, 1e-2)
        out = crv.hermite(1)
        assert out.shape == crv.points.shape
        assert (out == crv.points).all()

    def test_needs_velocities_and_a_positive_refine(self):
        ts = np.linspace(0.0, 1.0, 5)
        crv = dy.SampledCurve(times=ts, points=np.stack([ts, ts], 1))
        with pytest.raises(InvalidInputError):
            crv.hermite(8)
        crv.velocities = np.ones((5, 2))
        with pytest.raises(InvalidInputError):
            crv.hermite(0)


def reintegrating_bounces(table, model, x0, v0, T, dt):
    """Bounces from the former locator, kept as an oracle: every scan probe
    and every bisection probe re-integrates from the step start."""
    model_H = tb.model_on_table(table, model)
    bounces = []

    def advance(xc, vc, h):
        return am.geodesic_flow(model_H, xc, vc, h)

    def first_dip(f_after, h, n_scan):
        prev = 0.0
        for j in range(1, n_scan + 1):
            d_j = h * j / n_scan
            if f_after(d_j) < -1e-12:
                return prev, d_j
            prev = d_j
        return None

    def bisect_crossing(x, v, lo, hi, h):
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            if table.f(advance(x, v, mid)[0]) < -1e-12:
                hi = mid
            else:
                lo = mid
            if hi - lo < 1e-16 * max(1.0, h):
                break
        delta = 0.5 * (lo + hi)
        xb, vb = advance(x, v, delta)
        if abs(table.f(xb)) > dy.BISECT_F_TOL:
            xb, vb = advance(x, v, lo)
            delta = lo
        return delta, xb, vb

    def step(x, v, t, h):
        remaining = h
        while remaining > 1e-14:
            x1, v1 = advance(x, v, remaining)
            f_end, f_start = table.f(x1), table.f(x)
            crossed = f_end < -1e-12
            if not crossed:
                m2 = 2.0 * max(dy._flow_f_curvature_bound(table, model_H, x, v),
                               dy._flow_f_curvature_bound(table, model_H, x1, v1))
                if min(f_start, f_end) > 0.15 * m2 * remaining**2 + 1e-12:
                    return x1, v1
            n_scan = max(2, int(np.ceil(remaining / (0.5 * dy.DELTA_MIN))))
            bracket = first_dip(lambda d: table.f(advance(x, v, d)[0]), remaining, n_scan)
            if bracket is None:
                if not crossed:
                    return x1, v1
                bracket = (0.0, remaining)
            delta, xb, vb = bisect_crossing(x, v, *bracket, remaining)
            t += delta
            bounces.append(dy._bounce(table, model, t, xb, vb))
            x, v = bounces[-1].x, bounces[-1].w_out
            remaining -= delta
        return x, v

    dy._integrate_one_direction(x0, v0, T, dt, step)
    return bounces


class TestBilliard:
    @pytest.mark.parametrize("dt", [1e-2, 1e-3])
    @pytest.mark.parametrize("model", [am.euclidean(2), am.hyperbolic(2), am.spherical(2)],
                             ids=lambda m: m.kind)
    def test_dense_output_locator_matches_the_reintegrating_one(self, model, dt):
        disk = tb.disk_table()
        rng = np.random.default_rng([31, model.dim, int(round(-np.log10(dt))),
                                     am.MODEL_KINDS.index(model.kind)])
        for _ in range(2):
            r, phi, theta = 0.5 * np.sqrt(rng.uniform()), *rng.uniform(0, 2 * np.pi, 2)
            x0 = r * np.array([np.cos(phi), np.sin(phi)])
            v0 = am.normalize(model, x0, np.array([np.cos(theta), np.sin(theta)]))
            got = dy.billiard_trajectory(disk, model, x0, v0, 3.0, dt).bounces
            want = reintegrating_bounces(disk, model, x0, v0, 3.0, dt)
            assert len(got) == len(want) >= 1
            for a, b in zip(got, want):
                assert a.grazing == b.grazing
                assert abs(a.t - b.t) <= 1e-9
                assert np.abs(a.x - b.x).max() <= 1e-9


    def test_diameter_orbit(self):
        tr = dy.billiard_trajectory(tb.disk_table(), am.euclidean(2),
                                    np.array([1.0, 0.0]), np.array([-1.0, 0.0]),
                                    4.0, 1e-3)
        assert len(tr.bounces) == 2
        assert tr.bounces[0].t == pytest.approx(2.0, abs=1e-9)
        assert tr.bounces[1].t == pytest.approx(4.0, abs=1e-9)
        assert np.allclose(tr.bounces[0].x, [-1.0, 0.0], atol=1e-9)
        assert np.allclose(tr.base.points[-1], [1.0, 0.0], atol=1e-9)

    @pytest.mark.parametrize("k", [1, 3])
    def test_diameter_orbit_bounce_count(self, k):
        tr = dy.billiard_trajectory(tb.disk_table(), am.euclidean(2),
                                    np.array([1.0, 0.0]), np.array([-1.0, 0.0]),
                                    4.0 * k, 1e-3)
        assert len(tr.bounces) == 2 * k

    def test_chord_bounce(self):
        tr = dy.billiard_trajectory(tb.disk_table(), am.euclidean(2),
                                    np.array([1.0, 0.0]), np.array([-S2, S2]),
                                    2.0, 1e-3)
        b = tr.bounces[0]
        assert b.t == pytest.approx(np.sqrt(2.0), abs=1e-9)
        assert np.allclose(b.x, [0.0, 1.0], atol=1e-9)
        assert np.allclose(b.w_out, [-S2, -S2], atol=1e-9)
        assert not b.grazing

    def test_mirror_law_on_half_space(self):
        tr = dy.billiard_trajectory(tb.half_space_table(), am.euclidean(2),
                                    np.array([1.0, 0.0]), np.array([-0.6, 0.8]),
                                    10.0 / 3.0, 1e-3)
        b = tr.bounces[0]
        assert b.t == pytest.approx(5.0 / 3.0, abs=1e-9)
        assert np.allclose(b.x, [0.0, 4.0 / 3.0], atol=1e-9)
        assert np.allclose(b.w_out, [0.6, 0.8], atol=1e-9)
        assert np.allclose(tr.base.points[-1], [1.0, 8.0 / 3.0], atol=1e-8)

    def test_bounces_satisfy_reflection_law(self):
        disk = tb.disk_table()
        m = am.euclidean(2)
        tr = dy.billiard_trajectory(disk, m, np.array([0.3, -0.2]),
                                    np.array([np.cos(0.7), np.sin(0.7)]),
                                    5.0, 1e-3)
        assert len(tr.bounces) >= 2
        times = [b.t for b in tr.bounces]
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
        for b in tr.bounces:
            assert abs(disk.f(b.x)) <= 1e-9
            fr = tb.boundary_frame(disk, m, b.x)
            assert np.linalg.norm(tb.reflect(fr, b.w_in) - b.w_out) <= 1e-8

    def test_stays_inside_the_table(self):
        disk = tb.disk_table()
        tr = dy.billiard_trajectory(disk, am.euclidean(2), np.array([0.3, -0.2]),
                                    np.array([np.cos(0.7), np.sin(0.7)]),
                                    5.0, 1e-3)
        fvals = disk.f(tr.base.points)
        assert fvals.min() >= -1e-9

    def test_consecutive_distance_on_smooth_spans(self):
        dt = 1e-3
        tr = dy.billiard_trajectory(tb.disk_table(), am.euclidean(2),
                                    np.array([0.3, -0.2]),
                                    np.array([np.cos(0.7), np.sin(0.7)]),
                                    3.0, dt)
        d = np.linalg.norm(np.diff(tr.base.points, axis=0), axis=1)
        # exempt the sample pairs that straddle a bounce
        straddle = np.zeros(len(d), dtype=bool)
        for b in tr.bounces:
            i = np.searchsorted(tr.base.times, b.t)
            straddle[max(0, i - 2):i + 1] = True
        assert np.abs(d[~straddle] - dt).max() <= 5 * dt**2

    @pytest.mark.parametrize("model", [am.euclidean(2), am.hyperbolic(2), am.spherical(2)],
                             ids=lambda m: m.kind)
    def test_time_reversibility(self, model):
        disk = tb.disk_table()
        x0 = np.array([0.3, -0.2])
        v0 = am.normalize(model, x0, np.array([np.cos(0.7), np.sin(0.7)]))
        fwd = dy.billiard_trajectory(disk, model, x0, v0, 3.0, 1e-3)
        back = dy.billiard_trajectory(disk, model, fwd.base.points[-1],
                                      -fwd.base.velocities[-1], 3.0, 1e-3)
        assert np.linalg.norm(back.base.points[-1] - x0) < 1e-5
        # reflection preserves unit speed in g
        for b in fwd.bounces + back.bounces:
            assert abs(am.norm(model, b.x, b.w_in) - 1.0) <= 1e-9
            assert abs(am.norm(model, b.x, b.w_out) - 1.0) <= 1e-9

    @pytest.mark.parametrize("dt", [2.0, 1e-3])
    def test_bounce_inside_a_step_on_a_nonconvex_table(self, dt):
        # f = 0.99 at both ends of the run, so with dt = 2 only the scan for
        # a dip inside the step can find the crossing at x_1 = -0.1
        tr = dy.billiard_trajectory(tb.parabola_table(), am.euclidean(2),
                                    np.array([-1.0, 0.01]), np.array([1.0, 0.0]),
                                    2.0, dt)
        assert len(tr.bounces) == 1
        b = tr.bounces[0]
        assert b.t == pytest.approx(0.9, abs=1e-9)
        assert np.allclose(b.x, [-0.1, 0.01], atol=1e-9)
        assert not b.grazing

    def test_bounce_inside_a_long_curved_step(self):
        # the hyperbolic geodesic from the same launch dips into the parabola
        # and leaves it again within the one step of length 2; its bounce must
        # be the one a fine grid finds
        table, m = tb.parabola_table(), am.hyperbolic(2)
        x0 = np.array([-1.0, 0.01])
        v0 = am.normalize(m, x0, np.array([1.0, 0.0]))
        coarse, fine = (dy.billiard_trajectory(table, m, x0, v0, 2.0, dt) for dt in (2.0, 1e-3))
        assert len(coarse.base.times) == 2
        assert len(coarse.bounces) == len(fine.bounces) == 1
        a, b = coarse.bounces[0], fine.bounces[0]
        assert abs(a.t - b.t) <= 1e-6
        assert np.abs(a.x - b.x).max() <= 1e-6
        assert not a.grazing and not b.grazing
        # the unreflected geodesic ends inside the table: only the dip inside
        # the step reveals the crossing
        free = dy.integrate_table_geodesic(m, x0, v0, 2.0, 2.0)
        assert table.f(free.points[-1]) > 0

    def test_hyperbolic_disk_billiard(self):
        disk = tb.disk_table()
        m = am.hyperbolic(2)
        x0 = np.array([0.3, -0.2])
        v0 = am.normalize(m, x0, np.array([np.cos(0.7), np.sin(0.7)]))
        tr = dy.billiard_trajectory(disk, m, x0, v0, 3.0, 1e-3)
        assert len(tr.bounces) >= 1
        for b in tr.bounces:
            assert abs(disk.f(b.x)) <= 1e-9
        # unit speed in g throughout
        speeds = [am.norm(m, x, v) for x, v in
                  zip(tr.base.points[::250], tr.base.velocities[::250])]
        assert np.abs(np.array(speeds) - 1.0).max() <= 1e-6

    def test_accepts_ambient_model(self):
        # the ambient model restricts to the table automatically
        tr = dy.billiard_trajectory(tb.disk_table(), am.euclidean(3),
                                    np.array([1.0, 0.0]), np.array([-1.0, 0.0]),
                                    4.0, 1e-3)
        assert len(tr.bounces) == 2

    def test_preconditions(self):
        disk = tb.disk_table()
        m = am.euclidean(2)
        with pytest.raises(PreconditionError):
            dy.billiard_trajectory(disk, m, np.array([1.5, 0.0]),
                                   np.array([-1.0, 0.0]), 1.0, 1e-3)
        with pytest.raises(PreconditionError):
            dy.billiard_trajectory(disk, m, np.array([0.0, 0.0]),
                                   np.array([-2.0, 0.0]), 1.0, 1e-3)
        # starting on the boundary moving outward is not in the tangent cone
        with pytest.raises(PreconditionError):
            dy.billiard_trajectory(disk, m, np.array([1.0, 0.0]),
                                   np.array([1.0, 0.0]), 1.0, 1e-3)

    def test_grid_step_divides_duration(self):
        tr = dy.billiard_trajectory(tb.half_space_table(), am.euclidean(2),
                                    np.array([1.0, 0.0]), np.array([-0.6, 0.8]),
                                    10.0 / 3.0, 1e-3)
        assert tr.base.times[-1] == pytest.approx(10.0 / 3.0, abs=1e-12)
        steps = np.diff(tr.base.times)
        assert np.ptp(steps) < 1e-12

    def test_sign_change_without_a_root_raises(self):
        # f = x_1 + 1 jumps to -1 at x_1 = 0.25; the scan brackets the jump and
        # regula falsi closes in on it without reaching f = 0
        class JumpShape(tb.Shape):
            def f(self, x):
                return np.where(x[..., 0] < 0.25, x[..., 0] + 1.0, -1.0)

            def grad(self, x):
                return np.stack([np.ones(x.shape[:-1]), np.zeros(x.shape[:-1])], -1)

            def hess(self, x):
                return np.zeros(x.shape + x.shape[-1:])

        table = tb.TableSpec(n=2, shape=JumpShape(), region=tb.Region((0.0, 0.0), 5.0),
                             p0=(-1.0, 0.0))
        with pytest.raises(NumericError, match=r"bracket \[0\.249.*, 0\.25\] .* t = 0\.24"):
            dy.billiard_trajectory(table, am.euclidean(2), np.zeros(2), np.array([1.0, 0.0]),
                                   1.0, 1e-2)
