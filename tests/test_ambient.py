"""Tests for the constant-curvature coordinate models.

The Christoffel symbols are checked against a finite-difference oracle built
from the metric alone, the closed-form distances against embeddings and known
values, and the comparison profile against its defining ODE.
"""

import tracemalloc
from unittest import mock

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
        # bit for bit: one point squares 1 + |x|^2 as a batch does, not by pow
        for d in (2, 3, 4):
            X = rng.uniform(-1, 1, (20_000, d))
            for kind in am.MODEL_KINDS:
                model = am.AmbientModel(kind, d)
                gs = am.metric_many(model, X)
                assert all((gs[i] == am.metric_tensor(model, x).g).all()
                           for i, x in enumerate(X))

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

    @pytest.mark.parametrize("shape", [(3,), (4, 3)], ids=["point", "batch"])
    def test_euclidean_identity_is_read_only(self, shape):
        x = np.zeros(shape)
        m = am.metric_tensor(am.euclidean(3), x)
        old = np.eye(3) * np.ones(shape[:-1] + (1, 1))
        for a in (m.g, m.g_inv):
            assert a.shape == old.shape and (a == old).all()
            assert not a.flags.writeable
        if len(shape) == 1:
            # one point gets the cached identity itself, not a fresh view
            assert m.g is m.g_inv is am.metric_tensor(am.euclidean(3), x + 1.0).g

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

    def test_spherical_equals_the_strided_sum(self):
        # reference: the transpose term as a strided swapaxes view, summed
        # and scaled out of place
        rng = np.random.default_rng(11)
        for d in (2, 3, 4):
            X = rng.uniform(-2, 2, (500, d))
            X[:50] = 0.0
            X[50:100, 0] = -0.0
            for x in (X, X[7], X[:1]):
                c = -2.0 / (1.0 + am._dot(x, x))
                a = np.einsum("ki,...j->...kij", np.eye(d), x)
                ref = c[..., None, None, None] * (a + a.swapaxes(-1, -2)
                                                  - x[..., :, None, None] * np.eye(d))
                assert am.christoffel(am.spherical(d), x).tobytes() == ref.tobytes()

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

    def test_quadratic_form_rows_equal_single_points(self, rng):
        for d in (2, 3, 4):
            X, V = rng.uniform(-1, 1, (2, 2_000, d))
            for kind in am.MODEL_KINDS:
                model = am.AmbientModel(kind, d)
                batch = am.christoffel_quadratic(model, X, V)
                assert all((batch[i] == am.christoffel_quadratic(model, x, v)).all()
                           for i, (x, v) in enumerate(zip(X, V)))

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
        # the chord forms give self-distances of exactly zero
        A = rng.uniform(-1.5, 1.5, (40, 3))
        B = rng.uniform(-1.5, 1.5, (30, 3))
        A0, B0 = A.copy(), B.copy()
        D = am.distance_cross(model, A, A)
        assert np.all(np.isfinite(D))
        assert not np.diagonal(D).any()
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
        assert np.array_equal(am.distance_cross(model, A, B), grid)

    @pytest.mark.parametrize("model", MODELS3, ids=lambda m: m.kind)
    def test_cross_columns_do_not_depend_on_the_rows_per_call(self, model):
        # 1,003 columns leave a tail off every multiple of 8, where a BLAS
        # product would change kernels with the row count
        r = np.random.default_rng(12)
        A = r.uniform(-1.5, 1.5, (300, 3))
        B = r.uniform(-1.5, 1.5, (1003, 3))
        whole = am.distance_cross(model, A, B)
        for rows in (1, 2, 7, 64, 299):
            parts = [am.distance_cross(model, A[lo:lo + rows], B)
                     for lo in range(0, len(A), rows)]
            assert np.array_equal(np.concatenate(parts), whole)

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
        assert np.array_equal(np.diagonal(am.distance_cross(model, p, q)), d)

    def test_embeddings_land_on_models(self, rng):
        X = rng.uniform(-2, 2, (10, 3))
        S = am.sphere_embedding(X)
        assert np.allclose(np.linalg.norm(S, axis=1), 1.0, atol=1e-12)
        H = am.hyperboloid_embedding(X)
        mink = np.sum(H[:, :-1] ** 2, axis=1) - H[:, -1] ** 2
        assert np.allclose(mink, -1.0, atol=1e-9)


def _chord_reference(model, p, q):
    """Reference: the chord forms of distance out of place, one new array a
    step."""
    e2 = am._coordinate_sum(p, q)
    if model.kind == "euclidean":
        return np.sqrt(e2)
    p2, q2 = (am._coordinate_sum(x, np.zeros(model.dim)) for x in (p, q))
    if model.kind == "hyperbolic":
        dz = am._coordinate_sum(p, q, plus=True) / (np.sqrt(1.0 + p2) + np.sqrt(1.0 + q2))
        return 2.0 * np.arcsinh(0.5 * np.sqrt(np.clip(e2 - dz * dz, 0.0, np.inf)))
    half = np.sqrt(e2 / ((1.0 + p2) * (1.0 + q2)))
    return 2.0 * np.arcsin(np.clip(half, 0.0, 1.0))


class TestChordForms:
    @pytest.mark.parametrize("kind", am.MODEL_KINDS)
    def test_in_place_forms_keep_their_bits(self, kind):
        rng = np.random.default_rng(12)
        model = am.AmbientModel(kind, 3)
        A = rng.uniform(-2, 2, (400, 3))
        A[:5] = 0.0
        # partners: near-coincident rows and random ones, and in the
        # spherical model antipodal ones, x -> -x / |x|^2, whose arcsin
        # argument rounds to 1 or above it and is clipped
        B = A * (1.0 + 1e-15)
        B[200:] = rng.uniform(-2, 2, (200, 3))
        if kind == "spherical":
            B[5:200] = -A[5:200] / am._dot(A[5:200], A[5:200])[:, None]
        rows = am.distance_rowwise(model, A, B)
        assert rows.tobytes() == _chord_reference(model, A, B).tobytes()
        grid = am.distance_cross(model, A[:60], B[::7])
        assert grid.tobytes() == _chord_reference(model, A[:60, None], B[None, ::7]).tobytes()
        one = am.distance(model, A[7], B[7])
        assert type(one) is np.float64 and one == rows[7]


def capped_cross(calls):
    """distance_cross that records the shape of every call."""
    cross = am.distance_cross

    def wrapped(model, A, B):
        calls.append((len(A), len(B)))
        return cross(model, A, B)
    return wrapped


class TestNearestSup:
    """The pruned nearest-set search against the dense matrix, on the inputs
    where its bounds are tight."""

    @given(seed=st.integers(0, 10**6), n_q=st.integers(1, 30), n_r=st.integers(1, 90),
           lattice=st.booleans(), ties=st.booleans(), flat=st.booleans(), far=st.booleans(),
           coincide=st.sampled_from(["none", "queries", "reference"]),
           cell=st.sampled_from([1, 3, 64]))
    def test_equals_the_dense_search(self, seed, n_q, n_r, lattice, ties, flat, far,
                                     coincide, cell):
        r = np.random.default_rng(seed)
        if lattice:
            # steps of 1/4 are exact in binary, so distances repeat exactly;
            # the lattice holds antipodal pairs of the spherical model
            Q, R = r.integers(-6, 7, (n_q, 3)) / 4, r.integers(-6, 7, (n_r, 3)) / 4
        else:
            Q, R = r.uniform(-1.5, 1.5, (n_q, 3)), r.uniform(-1.5, 1.5, (n_r, 3))
        R = R[r.integers(0, n_r, n_r)]  # duplicated vertices
        if ties:
            # axis neighbours of the origin in random order: every model puts
            # them at bit-equal distances from it
            Q[0] = 0.0
            R[:] = 0.25 * np.eye(3)[r.integers(0, 3, n_r)] * r.choice([-1.0, 1.0], (n_r, 1))
        if far:
            R = 0.05 * R + [4.0, 0.0, 0.0]
        if coincide == "queries":
            Q[:] = Q[0]
        elif coincide == "reference":
            R[:] = R[0]
        if flat:
            # a zero-extent axis, as the table samples at z = 0
            Q[:, -1] = R[:, -1] = 0.0
        pair = r.integers(0, n_r, n_q)
        calls = []
        for model in MODELS3:
            D = am.distance_cross(model, Q, R)
            sup = D.min(axis=1).max()
            with (mock.patch.object(am, "NEAR_CELL", cell),
                  mock.patch.object(am, "BLOCK_BYTES", 8 * 40),
                  mock.patch.object(am, "distance_cross", capped_cross(calls))):
                assert am._nearest_sup(model, Q, R) == sup
                assert am._nearest_sup(model, Q, R, pair=pair) == sup
                # one row a search, so none is skipped: the nearest index of
                # every row is the dense argmin, ties included
                for i, j_dense in enumerate(D.argmin(axis=1)):
                    seen = []

                    def record(rows, j):
                        seen.extend(j)
                        return np.full(len(rows), np.inf)
                    assert am._nearest_sup(model, Q[i:i + 1], R, value=record) == D[i].min()
                    assert seen == [j_dense]
        # at most BLOCK_BYTES of output a call, or one row
        assert all(rows * cols <= 40 or rows == 1 for rows, cols in calls)

    @pytest.mark.parametrize("model", MODELS3, ids=lambda m: m.kind)
    def test_memory_stays_under_the_cap_when_nothing_prunes(self, model):
        # every reference point lies at nearly the same distance from the
        # queries, on a sphere about the origin, so no cell can be pruned;
        # the queries fill one cell, so no row is skipped
        r = np.random.default_rng(8)
        Q = r.uniform(-1e-3, 1e-3, (am.NEAR_CELL, 3))
        u = r.normal(size=(4000, 3))
        R = 2.0 * u / np.linalg.norm(u, axis=1)[:, None]
        sup = am.distance_cross(model, Q, R).min(axis=1).max()
        cap = 8 * len(R) * 2
        calls = []
        with (mock.patch.object(am, "BLOCK_BYTES", cap),
              mock.patch.object(am, "distance_cross", capped_cross(calls))):
            tracemalloc.start()
            try:
                assert am._nearest_sup(model, Q, R) == sup
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert sum(rows * cols for rows, cols in calls) >= len(Q) * len(R)
        assert max(rows * cols for rows, cols in calls) * 8 <= cap
        # a few caps for the chord-form temporaries and a few copies of the
        # reference for its cells, where the dense matrix alone takes 32 caps
        assert peak < 6 * cap + 8 * R.nbytes
        assert peak < 8 * len(Q) * len(R) / 2

    @pytest.mark.parametrize("model", MODELS3, ids=lambda m: m.kind)
    def test_chord_forms_hold_a_few_outputs(self, model):
        # as above at 32 rows a call: a chord-form call holds at most three
        # output-sized arrays at once, and the search little more than one
        # matrix besides
        r = np.random.default_rng(8)
        Q = r.uniform(-1e-3, 1e-3, (am.NEAR_CELL, 3))
        u = r.normal(size=(4000, 3))
        R = 2.0 * u / np.linalg.norm(u, axis=1)[:, None]
        sup = am.distance_cross(model, Q, R).min(axis=1).max()
        cap = 8 * len(R) * 32
        with mock.patch.object(am, "BLOCK_BYTES", cap):
            tracemalloc.start()
            try:
                assert am._nearest_sup(model, Q, R) == sup
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 4 * cap

    @pytest.mark.parametrize("model", MODELS3, ids=lambda m: m.kind)
    def test_tied_query_cells_keep_their_order(self, model):
        # queries and their pairs mirrored in x0, so a cell and its mirror
        # cell tie in their largest pair distance; the cells go highest
        # first and, among ties, in their given order
        r = np.random.default_rng(9)
        H = r.integers(-4, 5, (90, 3)) / 4
        H[:, 0] = r.integers(1, 5, 90) / 4
        Q = np.concatenate([H, H * [-1.0, 1.0, 1.0]])
        step = np.tile(r.integers(1, 4, (len(H), 1)) / 4, (2, 1))
        R = np.concatenate([Q + step * np.sign(Q[:, :1]) * np.eye(3)[0],
                            r.uniform(-1.5, 1.5, (50, 3))])
        pair = np.arange(len(Q))
        groups = np.array_split(r.permutation(len(H)), 20)
        cells = [g for g in groups] + [g + len(H) for g in groups]
        cells = [r.permutation(cells[i]) for i in r.permutation(len(cells))]
        qperm = np.concatenate(cells)
        qstarts = np.cumsum([0] + [len(c) for c in cells[:-1]])
        upper = am.distance(model, Q, R[pair])
        queries = np.split(qperm, qstarts[1:])
        tops = [upper[rows].max() for rows in queries]
        assert len(set(tops)) <= len(tops) // 2
        queries.sort(key=lambda rows: -upper[rows].max())
        assert not np.array_equal(np.concatenate(queries), qperm)
        seen = []

        def record(rows, j):
            seen.extend(rows)
            return np.full(len(rows), -np.inf)
        balls = ((qperm, qstarts), am._balls(model, R))
        # value -inf keeps the sup at -inf, so no row is skipped
        assert am._nearest_sup(model, Q, R, pair=pair, value=record, balls=balls) == -np.inf
        assert np.array_equal(seen, np.concatenate(queries))
        sup = am.distance_cross(model, Q, R).min(axis=1).max()
        assert am._nearest_sup(model, Q, R, pair=pair, balls=balls) == sup


def _lexsort_centers(X, perm, starts):
    """Reference: per cell the first member in perm order at the least
    squared offset from the cell mean, by a lexsort over (cell, offset)."""
    sizes = np.diff(starts, append=len(X))
    cell = np.repeat(np.arange(len(starts)), sizes)
    Xp = X[perm]
    off = Xp - (np.add.reduceat(Xp, starts) / sizes[:, None])[cell]
    return perm[np.lexsort((am._dot(off, off), cell))[starts]]


class TestBalls:
    @pytest.mark.parametrize("model", MODELS3, ids=lambda m: m.kind)
    def test_centers_equal_the_lexsort_pick(self, model):
        r = np.random.default_rng(10)
        # cells of the 2d axis neighbours of a lattice point, each at the
        # same squared offset from their mean, with duplicates and a cell
        # of one repeated point, in a shuffled perm
        star = np.concatenate([np.eye(3), -np.eye(3)]) / 4
        cells = []
        for c in r.integers(-4, 5, (30, 3)) / 4:
            pts = c + star[r.permutation(6)[:r.integers(2, 7)]]
            cells.append(pts[r.integers(0, len(pts), len(pts) + r.integers(0, 4))])
        cells.append(np.repeat([[0.5, -0.25, 1.0]], 5, axis=0))
        X = np.concatenate(cells)
        perm = r.permutation(len(X))
        X[perm] = X.copy()
        starts = np.cumsum([0] + [len(c) for c in cells[:-1]])
        _, _, _, centers, _ = am._balls(model, X, cells=(perm, starts))
        assert np.array_equal(centers, _lexsort_centers(X, perm, starts))
        # lattice points with duplicates in the default cells
        Y = (r.integers(-3, 4, (200, 3)) / 4)[r.integers(0, 200, 300)]
        with mock.patch.object(am, "NEAR_CELL", 5):
            perm, starts, _, centers, _ = am._balls(model, Y)
        assert np.array_equal(centers, _lexsort_centers(Y, perm, starts))


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

    @pytest.mark.parametrize("model", MODELS3, ids=lambda m: m.kind)
    def test_batches_equal_single_points(self, model):
        r = np.random.default_rng(41)
        X, U, V = r.uniform(-1, 1, (6, 3)), r.normal(size=(6, 3)), r.normal(size=(6, 3))
        ip, nrm, unit = (am.inner(model, X, U, V), am.norm(model, X, V),
                         am.normalize(model, X, V))
        assert ip.shape == nrm.shape == (6,) and unit.shape == (6, 3)
        for i in range(6):
            one = am.inner(model, X[i], U[i], V[i])
            assert type(one) is float and type(am.norm(model, X[i], V[i])) is float
            assert ip[i] == one
            assert nrm[i] == am.norm(model, X[i], V[i])
            assert (unit[i] == am.normalize(model, X[i], V[i])).all()

    def test_euclidean_point_skips_the_metric(self, monkeypatch):
        # u @ v has the bits of u @ I @ v up to the sign of a zero
        r = np.random.default_rng(42)
        pairs = [(r.normal(size=3) * 10.0 ** r.integers(-200, 200, 3), r.normal(size=3))
                 for _ in range(200)]
        want = [float(u @ np.eye(3) @ v) for u, v in pairs]
        monkeypatch.setattr(am, "metric_tensor", None)
        for (u, v), w in zip(pairs, want):
            assert am.inner(am.euclidean(3), np.zeros(3), u, v) == w
