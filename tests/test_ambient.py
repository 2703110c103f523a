"""Tests for the constant-curvature coordinate models.

The Christoffel symbols are checked against a finite-difference oracle built
from the metric alone, the closed-form distances against embeddings and known
values, and the comparison profile against its defining ODE.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from foldbilliards import ambient as am
from foldbilliards.errors import InvalidInputError, NumericError

MODELS3 = [am.euclidean(3), am.hyperbolic(3), am.spherical(3)]


def fd_christoffel(model, x, h=1e-5):
    """Oracle: Gamma^l_ij from central differences of the metric tensor."""
    d = model.dim
    dg = np.zeros((d, d, d))
    for k in range(d):
        e = np.zeros(d)
        e[k] = h
        gp = am.metric_tensor(model, x + e).g
        gm = am.metric_tensor(model, x - e).g
        dg[k] = (gp - gm) / (2 * h)
    g_inv = am.metric_tensor(model, x).g_inv
    gamma = np.zeros((d, d, d))
    for l in range(d):
        for i in range(d):
            for j in range(d):
                gamma[l, i, j] = 0.5 * sum(
                    g_inv[l, m] * (dg[i][j, m] + dg[j][i, m] - dg[m][i, j])
                    for m in range(d))
    return gamma


def longdouble_distance(model, p, q):
    """Oracle: the cancellation-free chord formulas in extended precision."""
    p = p.astype(np.longdouble)
    q = q.astype(np.longdouble)
    e2 = np.sum((p - q) ** 2, axis=-1)
    if model.kind == "euclidean":
        return np.sqrt(e2)
    p2 = np.sum(p * p, axis=-1)
    q2 = np.sum(q * q, axis=-1)
    if model.kind == "hyperbolic":
        dz = np.sum((p - q) * (p + q), axis=-1) / (np.sqrt(1 + p2) + np.sqrt(1 + q2))
        return 2 * np.arcsinh(np.sqrt(e2 - dz * dz) / 2)
    return 2 * np.arcsin(np.sqrt(e2 / ((1 + p2) * (1 + q2))))


class TestMetric:
    @pytest.mark.parametrize("model", MODELS3, ids=lambda m: m.kind)
    def test_inverse_is_exact(self, model, rng):
        for _ in range(20):
            x = rng.uniform(-1.5, 1.5, 3)
            m = am.metric_tensor(model, x)
            assert np.allclose(m.g @ m.g_inv, np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("model", MODELS3, ids=lambda m: m.kind)
    def test_symmetric_positive_definite(self, model, rng):
        for _ in range(20):
            x = rng.uniform(-1.5, 1.5, 3)
            g = am.metric_tensor(model, x).g
            assert np.allclose(g, g.T)
            assert np.linalg.eigvalsh(g).min() > 0

    def test_metric_many_matches_pointwise(self, rng):
        X = rng.uniform(-1, 1, (7, 3))
        for model in MODELS3:
            gs = am.metric_many(model, X)
            for i, x in enumerate(X):
                assert (gs[i] == am.metric_tensor(model, x).g).all()

    @pytest.mark.parametrize("model", MODELS3, ids=lambda m: m.kind)
    def test_batch_equals_rows(self, model):
        X = np.random.default_rng(1).uniform(-1.5, 1.5, (50, 3))
        for fn in (lambda x: am.metric_tensor(model, x).g,
                   lambda x: am.metric_tensor(model, x).g_inv,
                   lambda x: am.christoffel(model, x)):
            assert (fn(X) == np.array([fn(x) for x in X])).all()
            assert (fn(X[:1])[0] == fn(X[0])).all()
        assert (am.metric_many(model, X[:1])[0] == am.metric_tensor(model, X[0]).g).all()
        assert am.metric_tensor(model, X.reshape(5, 10, 3)).g.shape == (5, 10, 3, 3)

    def test_hyperplane_restriction_is_lower_model(self, rng):
        # H = {x_dim = 0} carries the same model one dimension down, and the
        # mixed terms g_{i,dim} vanish on H
        for model in MODELS3:
            x = rng.uniform(-1, 1, 2)
            g_amb = am.metric_tensor(model, [*x, 0.0]).g
            g_low = am.metric_tensor(model.restricted(), x).g
            assert np.allclose(g_amb[:-1, :-1], g_low, atol=1e-14)
            assert np.allclose(g_amb[:-1, -1], 0.0, atol=1e-14)

    def test_dimension_check(self):
        with pytest.raises(InvalidInputError):
            am.metric_tensor(am.euclidean(3), [1.0, 2.0])
        with pytest.raises(InvalidInputError):
            am.metric_tensor(am.euclidean(3), [[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]])
        # batches broadcast; non-broadcastable or wrong-dimension points raise
        with pytest.raises(InvalidInputError):
            am.distance(am.euclidean(3), np.zeros((2, 3)), np.ones((3, 3)))
        with pytest.raises(InvalidInputError):
            am.distance(am.hyperbolic(3), np.zeros((2, 3)), np.ones((2, 2)))
        with pytest.raises(InvalidInputError):
            am.geodesic_between(am.spherical(3), np.zeros((2, 3)), np.ones((3, 3)))

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            am.AmbientModel("minkowski", 3)


class TestChristoffel:
    @pytest.mark.parametrize("model", MODELS3, ids=lambda m: m.kind)
    def test_matches_finite_difference_oracle(self, model, rng):
        worst = 0.0
        for _ in range(25):
            x = rng.uniform(-2, 2, 3)
            x /= max(1.0, np.linalg.norm(x) / 2.0)
            diff = np.abs(am.christoffel(model, x) - fd_christoffel(model, x)).max()
            worst = max(worst, diff)
        assert worst < 5e-7

    def test_euclidean_is_flat(self, rng):
        x = rng.uniform(-2, 2, 4)
        assert np.abs(am.christoffel(am.euclidean(4), x)).max() == 0.0

    @given(seed=st.integers(0, 10**6))
    def test_symmetric_in_lower_indices(self, seed):
        r = np.random.default_rng(seed)
        x = r.uniform(-1.5, 1.5, 3)
        for model in MODELS3:
            gamma = am.christoffel(model, x)
            assert np.allclose(gamma, np.swapaxes(gamma, 1, 2))

    @given(seed=st.integers(0, 10**6))
    def test_quadratic_form_matches_contraction(self, seed):
        r = np.random.default_rng(seed)
        x = r.uniform(-1.0, 1.0, 3)
        v = r.normal(size=3)
        for model in MODELS3:
            gamma = am.christoffel(model, x)
            expect = np.einsum("lij,i,j->l", gamma, v, v)
            assert np.allclose(am.christoffel_quadratic(model, x, v), expect, atol=1e-12)


class TestDistance:
    def test_euclidean(self):
        assert am.distance(am.euclidean(2), [0, 0], [3, 4]) == pytest.approx(5.0)

    def test_hyperbolic_known_value(self):
        # d(0, (1,0)) = arccosh(sqrt(2)) in this coordinate model
        d = am.distance(am.hyperbolic(2), [0, 0], [1, 0])
        assert d == pytest.approx(np.arccosh(np.sqrt(2.0)), abs=1e-12)

    def test_hyperbolic_radial_parametrization(self):
        # x(t) = u sinh(t) is the unit-speed radial geodesic from the origin
        for t in (0.25, 0.8814, 2.0):
            d = am.distance(am.hyperbolic(2), [0, 0], [np.sinh(t), 0])
            assert d == pytest.approx(t, abs=1e-12)

    def test_spherical_known_values(self):
        m = am.spherical(2)
        # (1,0) is a quarter turn from the origin, antipode at infinity
        assert am.distance(m, [0, 0], [1, 0]) == pytest.approx(np.pi / 2, abs=1e-12)
        d = am.distance(m, [1, 0], [-1, 0])
        assert d == pytest.approx(np.pi, abs=1e-9)

    def test_spherical_radial_parametrization(self):
        for t in (0.3, 1.0, 2.5):
            x = np.array([np.tan(t / 2), 0.0])
            assert am.distance(am.spherical(2), [0, 0], x) == pytest.approx(t, abs=1e-12)

    @given(seed=st.integers(0, 10**6))
    def test_symmetry_and_identity(self, seed):
        r = np.random.default_rng(seed)
        p, q = r.uniform(-1.5, 1.5, (2, 3))
        for model in MODELS3:
            dpq = am.distance(model, p, q)
            assert dpq >= 0
            assert dpq == pytest.approx(am.distance(model, q, p), abs=1e-12)
            assert am.distance(model, p, p) <= 1e-9

    @given(seed=st.integers(0, 10**6))
    def test_triangle_inequality(self, seed):
        r = np.random.default_rng(seed)
        p, q, s = r.uniform(-1.2, 1.2, (3, 3))
        for model in MODELS3:
            assert (am.distance(model, p, s)
                    <= am.distance(model, p, q) + am.distance(model, q, s) + 1e-9)

    def test_cross_and_rowwise_match_scalar(self, rng):
        A = rng.uniform(-1, 1, (5, 3))
        B = rng.uniform(-1, 1, (4, 3))
        for model in MODELS3:
            D = am.distance_cross(model, A, B)
            for i in range(5):
                for j in range(4):
                    assert D[i, j] == pytest.approx(
                        am.distance(model, A[i], B[j]), abs=1e-12)
            R = am.distance_rowwise(model, A[:4], B)
            assert np.allclose(R, np.diagonal(D[:4]), atol=1e-12)

    @pytest.mark.parametrize("model", MODELS3, ids=lambda m: m.kind)
    def test_cross_clamps_in_place_without_touching_inputs(self, model, rng):
        # self-distances push cos / cosh d across the clamp by roundoff
        A = rng.uniform(-1.5, 1.5, (40, 3))
        B = rng.uniform(-1.5, 1.5, (30, 3))
        A0, B0 = A.copy(), B.copy()
        D = am.distance_cross(model, A, A)
        assert np.all(np.isfinite(D))
        assert np.diagonal(D).max() <= 1e-7
        assert np.all(np.isfinite(am.distance_cross(model, A, B)))
        assert np.array_equal(A, A0) and np.array_equal(B, B0)

    @pytest.mark.parametrize("model", MODELS3, ids=lambda m: m.kind)
    def test_pair_rows_and_grid_agree_bit_for_bit(self, model):
        # one body for every shape; row counts off multiples of 8, where a
        # BLAS kernel would switch to its tail loop
        r = np.random.default_rng(11)
        A = r.uniform(-1.5, 1.5, (13, 3))
        B = r.uniform(-1.5, 1.5, (11, 3))
        grid = am.distance(model, A[:, None, :], B[None, :, :])
        assert grid.shape == (13, 11)
        pairs = np.array([[am.distance(model, a, b) for b in B] for a in A])
        assert np.array_equal(grid, pairs)
        assert np.array_equal(am.distance_rowwise(model, A[:11], B), np.diagonal(grid))
        assert np.array_equal(am.distance(model, A[5], B), grid[5])
        if model.kind == "euclidean":
            assert np.array_equal(am.distance_cross(model, A, B), grid)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is plain double here")
    @pytest.mark.parametrize("model", MODELS3, ids=lambda m: m.kind)
    @pytest.mark.parametrize("sep", [1e-3, 1e-6, 1e-9])
    def test_near_coincident_points_match_long_double(self, model, sep):
        r = np.random.default_rng(5)
        p = r.uniform(-1.0, 1.0, (200, 3))
        u = r.normal(size=(200, 3))
        q = p + sep * u / np.linalg.norm(u, axis=1)[:, None]
        d = am.distance(model, p, q)
        assert np.abs(d / longdouble_distance(model, p, q) - 1).max() <= 2e-15

    def test_embeddings_land_on_models(self, rng):
        X = rng.uniform(-2, 2, (10, 3))
        S = am.sphere_embedding(X)
        assert np.allclose(np.linalg.norm(S, axis=1), 1.0, atol=1e-12)
        H = am.hyperboloid_embedding(X)
        mink = np.sum(H[:, :-1] ** 2, axis=1) - H[:, -1] ** 2
        assert np.allclose(mink, -1.0, atol=1e-9)


class TestComparisonProfile:
    def test_values(self):
        assert am.rho_kappa(0.0, 2.0) == pytest.approx(2.0)
        assert am.rho_kappa(1.0, np.pi) == pytest.approx(2.0)
        assert am.rho_kappa(-1.0, 1.0) == pytest.approx(np.cosh(1.0) - 1.0)

    def test_continuous_in_kappa_at_zero(self):
        r = np.linspace(0, 3, 301)
        for k in (1e-6, -1e-6):
            assert np.abs(am.rho_kappa(k, r) - r**2 / 2).max() < 1e-5

    def test_satisfies_comparison_ode(self):
        # rho'' = 1 - kappa * rho with rho(0) = rho'(0) = 0
        r = np.linspace(0.0, 2.0, 2001)
        h = r[1] - r[0]
        for kappa in (-1.0, 0.0, 1.0):
            rho = am.rho_kappa(kappa, r)
            dd = (rho[:-2] - 2 * rho[1:-1] + rho[2:]) / h**2
            assert np.abs(dd - (1.0 - kappa * rho[1:-1])).max() < 1e-6

    def test_negative_radius_rejected(self):
        with pytest.raises(InvalidInputError):
            am.rho_kappa(1.0, -0.5)

    def test_alpha(self):
        assert am.alpha_kappa(4.0) == pytest.approx(np.pi / 2)
        assert am.alpha_kappa(0.0) == np.inf
        assert am.alpha_kappa(-1.0) == np.inf


class TestGeodesicBetween:
    @pytest.mark.parametrize("model", [am.euclidean(2), am.hyperbolic(2), am.spherical(2)],
                             ids=lambda m: m.kind)
    def test_endpoints_and_midpoint_split(self, model):
        p = np.array([0.3, -0.5])
        q = np.array([-0.4, 0.6])
        pts = am.geodesic_between(model, p, q, 5)
        assert np.allclose(pts[0], p, atol=1e-12)
        assert np.allclose(pts[-1], q, atol=1e-10)
        d = am.distance(model, p, q)
        split = am.distance(model, p, pts[2]) + am.distance(model, pts[2], q)
        assert split == pytest.approx(d, abs=1e-9)

    def test_uniform_parametrization(self):
        # samples are equally spaced in arclength
        p, q = np.array([0.2, 0.1]), np.array([-0.7, 0.4])
        for model in (am.hyperbolic(2), am.spherical(2)):
            pts = am.geodesic_between(model, p, q, 9)
            steps = [am.distance(model, pts[i], pts[i + 1]) for i in range(8)]
            assert np.ptp(steps) < 1e-9

    def test_coincident_endpoints(self):
        pts = am.geodesic_between(am.hyperbolic(2), [0.3, 0.1], [0.3, 0.1], 7)
        assert np.allclose(pts, [0.3, 0.1])

    @pytest.mark.parametrize("model", [am.euclidean(2), am.hyperbolic(2), am.spherical(2)],
                             ids=lambda m: m.kind)
    def test_batch_equals_single_calls(self, model):
        r = np.random.default_rng(13)
        p = r.uniform(-0.8, 0.8, (9, 2))
        q = r.uniform(-0.8, 0.8, (9, 2))
        q[4] = p[4]  # coincident endpoints stay at p
        batch = am.geodesic_between(model, p, q, 7)
        assert batch.shape == (9, 7, 2)
        assert np.array_equal(batch, np.stack([am.geodesic_between(model, a, b, 7)
                                               for a, b in zip(p, q)]))
        assert np.array_equal(batch[4], np.tile(p[4], (7, 1)))
        # one point against a batch broadcasts like the rows
        assert np.array_equal(am.geodesic_between(model, p[0], q, 7),
                              am.geodesic_between(model, np.tile(p[0], (9, 1)), q, 7))

    def test_antipodal_rejected(self):
        with pytest.raises(NumericError):
            am.geodesic_between(am.spherical(2), [1.0, 0.0], [-1.0, 0.0])

    def test_any_bad_row_raises(self):
        m = am.spherical(2)
        p = np.array([[0.1, 0.2], [1.0, 0.0], [2.0, 0.0]])
        fine = np.array([0.2, 0.1])
        with pytest.raises(NumericError, match="antipodal"):
            am.geodesic_between(m, p, [fine, [-1.0, 0.0], fine])
        # (2, 0) and (-2, 0) are joined through the north pole, at t = 1/2
        with pytest.raises(NumericError, match="pole"):
            am.geodesic_between(m, p, [fine, fine, [-2.0, 0.0]])
        am.geodesic_between(m, p, [fine, fine, fine])


class TestNormsAndVectors:
    @given(seed=st.integers(0, 10**6))
    def test_normalize_gives_unit_vector(self, seed):
        r = np.random.default_rng(seed)
        x = r.uniform(-1, 1, 3)
        v = r.normal(size=3)
        for model in MODELS3:
            u = am.normalize(model, x, v)
            assert am.norm(model, x, u) == pytest.approx(1.0, abs=1e-12)

    def test_inner_consistent_with_norm(self, rng):
        x = rng.uniform(-1, 1, 3)
        v = rng.normal(size=3)
        for model in MODELS3:
            assert am.inner(model, x, v, v) == pytest.approx(
                am.norm(model, x, v) ** 2, rel=1e-12)

    def test_zero_vector_rejected_by_normalize(self):
        with pytest.raises(InvalidInputError):
            am.normalize(am.euclidean(3), np.zeros(3), np.zeros(3))
