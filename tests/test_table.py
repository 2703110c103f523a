"""Tests for table shapes, boundary frames, the reflection law and polarity."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from foldbilliards import ambient as am
from foldbilliards import dynamics as dy
from foldbilliards import table as tb
from foldbilliards.errors import DegenerateBoundaryError, InvalidInputError, PreconditionError

S2 = np.sqrt(2.0) / 2.0


def halfplane_table():
    """K = {x2 <= 0} with boundary the x1-axis; the textbook mirror."""
    return tb.TableSpec(
        n=2,
        shape=tb.PolynomialShape(terms=(((0, 1), -1.0),)),
        region=tb.Region(center=(0.0, 0.0), radius=5.0),
        p0=(0.0, 0.0),
    )


def mixed_tables():
    """Polynomial tables with mixed monomials:
    x1^2 x2 - 3 x1 x2^3 + x2 + 2, with p0 = (0, -2), and
    x1 x2 x3^2 - 2 x1^3 + x2^2 x3 - 1, with p0 = (0, 1, 1)."""
    return [
        tb.TableSpec(n=2, name="mixed-2", p0=(0.0, -2.0),
                     region=tb.Region(center=(0.0, 0.0), radius=3.0),
                     shape=tb.PolynomialShape(terms=(((2, 1), 1.0), ((1, 3), -3.0),
                                                     ((0, 1), 1.0), ((0, 0), 2.0)))),
        tb.TableSpec(n=3, name="mixed-3", p0=(0.0, 1.0, 1.0),
                     region=tb.Region(center=(0.0, 0.0, 0.0), radius=3.0),
                     shape=tb.PolynomialShape(terms=(((1, 1, 2), 1.0), ((3, 0, 0), -2.0),
                                                     ((0, 2, 1), 1.0), ((0, 0, 0), -1.0)))),
    ]


BUILTIN_TABLES = [entry.build() for entry in tb.BUILTIN_TABLES.values()]
ALL_TABLES = BUILTIN_TABLES + mixed_tables()


class TestTableSpec:
    def test_builtin_shapes(self):
        disk = tb.disk_table()
        assert disk.f([0.0, 0.0]) == pytest.approx(1.0)
        assert disk.f([1.0, 0.0]) == pytest.approx(0.0)
        half = tb.half_space_table()
        assert half.f([1.0, 0.0]) == pytest.approx(1.0)
        parab = tb.parabola_table()
        assert parab.f([0.3, 0.0]) == pytest.approx(0.09)
        sph = tb.spherical_halfspace_table()
        assert sph.n == 3
        assert sph.f([0.5, 0.0, 0.0]) == pytest.approx(0.5)

    def test_gradients_match_finite_differences(self, rng):
        h = 1e-6
        for table in ALL_TABLES:
            x = table.p0_array + rng.uniform(-0.05, 0.05, table.n)
            grad = table.grad_f(x)
            hess = table.hess_f(x)
            for i in range(table.n):
                e = np.zeros(table.n)
                e[i] = h
                fd = (table.f(x + e) - table.f(x - e)) / (2 * h)
                assert grad[i] == pytest.approx(fd, abs=1e-6)
                fd2 = (table.grad_f(x + e) - table.grad_f(x - e)) / (2 * h)
                assert np.allclose(hess[i], fd2, atol=1e-6)

    @pytest.mark.parametrize("table", ALL_TABLES, ids=lambda t: f"{t.name}-{t.n}")
    def test_batch_equals_rows(self, table):
        X = np.random.default_rng(1).uniform(-1.5, 1.5, (50, table.n))
        for fn in (table.f, table.grad_f, table.hess_f,
                   table.region.contains, table.region.contains_many):
            assert (fn(X) == np.array([fn(x) for x in X])).all()
            assert (fn(X[:1])[0] == fn(X[0])).all()

    def test_non_finite_points_lie_outside_the_patch(self):
        region = tb.disk_table().region
        assert not region.contains([np.nan, 0.0])
        assert not region.contains_many(np.array([[np.nan, 0.0]]))[0]
        assert not region.contains_many([np.inf, 0.0])

    def test_p0_off_boundary_rejected(self):
        with pytest.raises(InvalidInputError):
            tb.TableSpec(n=2, shape=tb.DiskShape(),
                         region=tb.Region(center=(0.0, 0.0), radius=2.0),
                         p0=(0.5, 0.0))

    def test_degenerate_boundary_point_rejected(self):
        # f = x1^2 has vanishing gradient on its zero set
        with pytest.raises(InvalidInputError):
            tb.TableSpec(n=2, shape=tb.PolynomialShape(terms=(((2, 0), 1.0),)),
                         region=tb.Region(center=(0.0, 0.0), radius=2.0),
                         p0=(0.0, 0.0))

    def test_p0_outside_patch_rejected(self):
        with pytest.raises(InvalidInputError):
            tb.TableSpec(n=2, shape=tb.DiskShape(),
                         region=tb.Region(center=(0.0, 0.0), radius=0.5),
                         p0=(1.0, 0.0))


def _exact_derivative(shape, x, axes):
    """d/dx_axes of a PolynomialShape at the float point x, in exact rational
    arithmetic, and the sum of the absolute values of its terms."""
    value = scale = Fraction(0)
    for exps, coeff in shape.terms:
        term = Fraction(coeff)
        e = list(exps)
        for k in axes:
            term *= e[k]
            e[k] -= 1
        if term == 0:
            continue
        for xk, ek in zip(x, e):
            term *= Fraction(float(xk)) ** ek
        value += term
        scale += abs(term)
    return value, scale


def _monomial_sum_loop(shape, coef, exps, x):
    """PolynomialShape._sum as a loop over np.ndindex of the term table:
    each monomial multiplies its nonzero powers into ones in coordinate
    order, and the terms are summed in order."""
    powers = [[1.0, xk] for xk in np.moveaxis(x, -1, 0)]
    for row in powers:
        for _ in range(shape._exps.max() - 1):
            row.append(row[-1] * row[1])
    mono = np.ones(exps.shape[:-1] + x.shape[:-1])
    for idx in np.ndindex(exps.shape[:-1]):
        for k, p in enumerate(exps[idx]):
            if p:
                mono[idx] *= powers[k][p]
    coef = coef.reshape(coef.shape + (1,) * (x.ndim - 1))
    out = coef[0] * mono[0]
    for c, m in zip(coef[1:], mono[1:]):
        out = out + c * m
    return out


class TestPolynomialShape:
    @pytest.mark.parametrize("shape", [
        *(pytest.param(t.shape, id=t.name) for t in mixed_tables()),
        pytest.param(tb.spherical_halfspace_table().region.constraints[0][0],
                     id="spherical-halfspace-strip"),
        pytest.param(tb.PolynomialShape(terms=(((0, 0), 2.5),)), id="constant"),
    ])
    def test_power_groups_equal_the_term_loop(self, shape, rng):
        n = len(shape.terms[0][0])
        x = rng.uniform(-3.0, 3.0, (500, n))
        x[:20] = np.round(x[:20])          # zeros and integers, signed zeros
        x[:5, 0] = -0.0
        for got, args in ((shape.f, (shape._coef, shape._exps)),
                          (shape.grad, (shape._c1, shape._d1)),
                          (shape.hess, (shape._c2, shape._d2))):
            want = np.moveaxis(_monomial_sum_loop(shape, *args, x), range(args[0].ndim - 1),
                               range(-(args[0].ndim - 1), 0))
            assert got(x).tobytes() == want.tobytes()
            for row, point in enumerate(x[:40]):
                assert got(point).tobytes() == want[row].tobytes()

    def test_squares_are_products(self):
        x = np.random.default_rng(3).uniform(-3.0, 3.0, (100_000, 2))
        square = tb.PolynomialShape(terms=(((2, 0), 1.0),))
        cube = tb.PolynomialShape(terms=(((0, 3), 1.0),))
        assert (square.f(x) == x[:, 0] * x[:, 0]).all()
        assert (square.grad(x)[:, 0] == 2.0 * x[:, 0]).all()
        assert (cube.f(x) == x[:, 1] * x[:, 1] * x[:, 1]).all()
        assert (cube.grad(x)[:, 1] == 3.0 * (x[:, 1] * x[:, 1])).all()
        assert (cube.hess(x)[:, 1, 1] == 6.0 * x[:, 1]).all()

    @pytest.mark.parametrize("shape", [
        *(pytest.param(t.shape, id=t.name) for t in mixed_tables()),
        pytest.param(tb.spherical_halfspace_table().region.constraints[0][0],
                     id="spherical-halfspace-strip"),
    ])
    def test_matches_exact_rational_evaluation(self, shape, rng):
        n = len(shape.terms[0][0])
        eps = np.finfo(float).eps
        for x in rng.uniform(-2.0, 2.0, (40, n)):
            got = {(): shape.f(x), **{(i,): shape.grad(x)[i] for i in range(n)},
                   **{(i, j): shape.hess(x)[i, j] for i in range(n) for j in range(n)}}
            for axes, value in got.items():
                exact, scale = _exact_derivative(shape, x, axes)
                # a few roundings per term, relative to the sum of |terms|
                assert abs(Fraction(float(value)) - exact) <= 8 * eps * scale

    def test_spherical_halfspace_lattice_mask_is_unchanged(self):
        # the mask the 41^3 Hausdorff lattice of the benchmark has had since
        # the strip was evaluated with vectorized pow
        axis = np.linspace(-1.0, 1.0, 41)
        mesh = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        mask = tb.spherical_halfspace_table().region.contains(mesh)
        assert int(mask.sum()) == 22084
        assert hashlib.sha256(np.packbits(mask).tobytes()).hexdigest()[:16] == "fc8d4726fc16d968"


class TestModelOnTable:
    def test_accepts_both_dimensions(self):
        disk = tb.disk_table()
        assert tb.model_on_table(disk, am.euclidean(3)).dim == 2
        assert tb.model_on_table(disk, am.euclidean(2)).dim == 2
        assert tb.model_on_table(disk, am.hyperbolic(3)).kind == "hyperbolic"

    def test_rejects_other_dimensions(self):
        with pytest.raises(InvalidInputError):
            tb.model_on_table(tb.disk_table(), am.euclidean(4))


class TestBoundaryFrame:
    def test_disk_euclidean(self):
        fr = tb.boundary_frame(tb.disk_table(), am.euclidean(3), [1.0, 0.0])
        assert np.allclose(fr.nu, [-1.0, 0.0], atol=1e-12)
        assert abs(fr.tangent_basis[0] @ np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_disk_hyperbolic_normal_rescales(self):
        # at (1,0) the radial direction has g-length 1/sqrt(2)
        fr = tb.boundary_frame(tb.disk_table(), am.hyperbolic(3), [1.0, 0.0])
        assert np.allclose(fr.nu, [-np.sqrt(2.0), 0.0], atol=1e-12)
        assert fr.nu @ fr.metric.g @ fr.nu == pytest.approx(1.0, abs=1e-12)

    def test_half_space(self):
        fr = tb.boundary_frame(tb.half_space_table(), am.euclidean(3), [0.0, 0.5])
        assert np.allclose(fr.nu, [1.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("model", [am.euclidean(3), am.hyperbolic(3), am.spherical(3)],
                             ids=lambda m: m.kind)
    def test_frame_is_g_orthonormal(self, model, rng):
        disk = tb.disk_table()
        pts = tb.sample_boundary_points(disk, model, 10, seed=3)
        for x0 in pts:
            fr = tb.boundary_frame(disk, model, x0)
            g = fr.metric.g
            vecs = np.vstack([fr.tangent_basis, fr.nu[None]])
            gram = vecs @ g @ vecs.T
            assert np.allclose(gram, np.eye(len(vecs)), atol=1e-9)
            # the normal points inward: a small step along nu raises f
            assert disk.f(x0 + 1e-6 * fr.nu) > 0

    def test_off_boundary_point_rejected(self):
        with pytest.raises(PreconditionError):
            tb.boundary_frame(tb.disk_table(), am.euclidean(3), [0.5, 0.0])

    def test_a_failing_point_fails_its_batch(self):
        model = am.euclidean(3)
        for table, good, bad, message in [
                (tb.disk_table(), [1.0, 0.0], [0.5, 0.0], "x0 is not on the boundary"),
                (tb.half_space_table(), [0.0, 1.0], [0.0, 6.0], "x0 lies outside the patch U")]:
            with pytest.raises(PreconditionError, match=message):
                tb.boundary_frame(table, model, bad)
            with pytest.raises(PreconditionError, match=message):
                tb.boundary_frame(table, model, [good, bad, good])
        with pytest.raises(InvalidInputError, match="wrong dimension"):
            tb.boundary_frame(tb.disk_table(), model, [[1.0, 0.0, 0.0]])

    @pytest.mark.parametrize("table", BUILTIN_TABLES, ids=lambda t: t.name)
    def test_euclidean_frames_keep_the_metric_normal(self, table):
        # in the euclidean model g^{-1} Df is Df and |g^{-1} Df|_g is
        # sqrt(nu . g . nu), so the shared frame keeps the bits of the
        # earlier boundary normal and basis
        model = am.euclidean(table.n + 1)
        pts = tb.sample_boundary_points(table, model, 200, seed=4)
        fr = tb.boundary_frame(table, model, pts)
        for i, x0 in enumerate(pts):
            nu, basis = boundary_frame_by_metric_normal(table, model, x0)
            assert fr.nu[i].tobytes() == nu.tobytes()
            assert fr.tangent_basis[i].tobytes() == basis.tobytes()


def boundary_frame_by_metric_normal(table, model, x0):
    """Reference: the one-point boundary normal g^{-1} Df / sqrt(nu . g . nu)
    and its tangent basis, Gram-Schmidt aligned by Df."""
    df = table.grad_f(x0)
    metric = am.metric_tensor(tb.model_on_table(table, model), x0)
    nu = metric.g_inv @ df
    nu = nu / np.sqrt(nu @ metric.g @ nu)
    basis, spanned = tb._orthonormal_complement(metric.g, nu, df)
    assert spanned
    return nu, basis


def _complement_loop(g, normal, alignment):
    """Reference: the batch Gram-Schmidt that visits every axis and projects
    against every basis slot under a per-row mask, for (N, d) rows."""
    d = normal.shape[-1]
    a = np.abs(alignment)
    order = np.argsort(a / np.sqrt(am._dot(a, a))[:, None], axis=-1)
    basis = np.zeros((len(normal), d - 1, d))
    count = np.zeros(len(normal), dtype=int)
    rows = np.arange(len(normal))
    for axis in order.T:
        v = np.eye(d)[axis]
        v = v - am._form(v, g, normal)[:, None] * normal
        for k in range(d - 1):
            b = basis[:, k]
            v = np.where((k < count)[:, None], v - am._form(v, g, b)[:, None] * b, v)
        nrm = np.sqrt(np.maximum(am._form(v, g, v), 0.0))
        take = ~(nrm < 1e-10) & (count < d - 1)
        basis[rows[take], count[take]] = v[take] / nrm[take, None]
        count += take
    return basis, count == d - 1


class TestOrthonormalComplement:
    """One point runs as a batch of one: it must give its batch row's bits
    and the reference loop's."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("kind", am.MODEL_KINDS)
    def test_rows_that_finish_at_different_axes(self, kind, d):
        # model metrics at random points; most rows take the normal of a
        # random covector, some a normal along a coordinate axis that the
        # alignment visits first, so its remainder is roundoff, that axis is
        # skipped and the row's count lags the others until the last axis
        rng = np.random.default_rng([72, d, len(kind)])
        model = am.AmbientModel(kind, d)
        n = 60
        g = am.metric_many(model, rng.uniform(-1.5, 1.5, (n, d)))
        df = rng.normal(size=(n, d))
        df[rng.random((n, d)) < 0.2] = 0.0
        alignment = df.copy()
        for i in range(0, n, 3):
            axis = rng.integers(d)
            df[i] = g[i, axis]
            alignment[i] = 1.0 + rng.random(d)
            alignment[i, axis] = 0.01
        df[~df.any(axis=1), 0] = 1.0
        alignment[~alignment.any(axis=1), 0] = 1.0
        nu = np.linalg.solve(g, df[..., None])[..., 0]
        normal = nu / np.sqrt(am._form(nu, g, nu))[:, None]
        basis, spanned = tb._orthonormal_complement(g, normal, alignment)
        ref, ref_spanned = _complement_loop(g, normal, alignment)
        assert basis.tobytes() == ref.tobytes()
        assert np.array_equal(spanned, ref_spanned) and spanned.all()
        for i in range(n):
            one, one_spanned = tb._orthonormal_complement(g[i], normal[i], alignment[i])
            assert one.tobytes() == basis[i].tobytes() and bool(one_spanned)
        # the first axis visited is skipped on the axis rows and only there
        first = np.argsort(np.abs(alignment), axis=-1)[:, 0]
        v = np.eye(d)[first]
        v = v - am._form(v, g, normal)[:, None] * normal
        skipped = np.sqrt(np.maximum(am._form(v, g, v), 0.0)) < 1e-10
        assert np.array_equal(np.flatnonzero(skipped), np.arange(0, n, 3))

    @staticmethod
    def same_as_batch(g, normal, alignment):
        basis, spanned = tb._orthonormal_complement(g, normal, alignment)
        batch, batch_spanned = tb._orthonormal_complement(g[None], normal[None], alignment[None])
        assert basis.shape == batch.shape[1:] and basis.tobytes() == batch[0].tobytes()
        assert bool(spanned) == bool(batch_spanned[0])
        return basis, spanned

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_single_point_equals_the_batch(self, d):
        rng = np.random.default_rng([71, d])
        for _ in range(300):
            m = rng.normal(size=(d, d))
            g = m @ m.T + 0.1 * np.eye(d)
            df = rng.normal(size=d)
            df[rng.random(d) < 0.3] = 0.0
            if not df.any():
                df[rng.integers(d)] = 1.0
            nu = np.linalg.solve(g, df)
            self.same_as_batch(g, nu / np.sqrt(nu @ g @ nu), df)

    def test_skipped_axis(self):
        # e1 lies in the span of the normal and e0, the first basis vector,
        # so it is skipped and e2 completes the basis
        normal = np.array([S2, S2, 0.0])
        basis, spanned = self.same_as_batch(np.eye(3), normal, np.array([0.0, 0.1, 1.0]))
        assert spanned
        assert np.allclose(basis, [[S2, -S2, 0.0], [0.0, 0.0, 1.0]], atol=1e-15)


def count_complement_calls(monkeypatch):
    """A list that grows by one entry per table._orthonormal_complement call."""
    calls, complement = [], tb._orthonormal_complement

    def counted(*args):
        calls.append(args)
        return complement(*args)

    monkeypatch.setattr(tb, "_orthonormal_complement", counted)
    return calls


class TestLazyTangentBasis:
    """A boundary frame builds its tangent basis when the basis is read, once."""

    def test_frames_and_billiards_run_no_gram_schmidt(self, monkeypatch):
        calls = count_complement_calls(monkeypatch)
        for kind in am.MODEL_KINDS:
            tb.boundary_frame(tb.disk_table(), am.AmbientModel(kind, 3), [0.6, 0.8])
        assert calls == []
        # the billiards benchmark workload: eight disk billiards launched
        # from |x0| <= 0.5, four hyperbolic and four spherical
        rng = np.random.default_rng([0, 3])
        bounces = 0
        for kind in ["hyperbolic"] * 4 + ["spherical"] * 4:
            model = am.AmbientModel(kind, 2)
            r = 0.5 * np.sqrt(rng.uniform())
            phi, theta = rng.uniform(0.0, 2.0 * np.pi, size=2)
            x0 = r * np.array([np.cos(phi), np.sin(phi)])
            v0 = am.normalize(model, x0, np.array([np.cos(theta), np.sin(theta)]))
            tr = dy.billiard_trajectory(tb.disk_table(), model, x0, v0, 12.0, 0.01)
            bounces += len(tr.bounces)
        assert bounces > 0 and calls == []

    def test_repeated_reads_build_once(self, monkeypatch):
        calls = count_complement_calls(monkeypatch)
        frames = [tb.boundary_frame(tb.disk_table(), am.hyperbolic(3), x)
                  for x in ([1.0, 0.0], [0.0, -1.0])]
        for fr in frames:
            first = fr.tangent_basis
            assert all(fr.tangent_basis is first for _ in range(3))
        assert len(calls) == len(frames)

    @pytest.mark.parametrize("table", BUILTIN_TABLES, ids=lambda t: t.name)
    @pytest.mark.parametrize("kind", am.MODEL_KINDS)
    def test_basis_equals_the_batch_row(self, table, kind):
        # a batched frame gives each point the one-point frame's normal,
        # gradient norm and tangent basis, bit for bit, and each basis is
        # the row of one Gram-Schmidt over the stacked points
        model = am.AmbientModel(kind, table.n + 1)
        pts = tb.sample_boundary_points(table, model, 8, seed=5)
        frames = [tb.boundary_frame(table, model, x) for x in pts]
        batch = tb.boundary_frame(table, model, pts)
        rows, spanned = tb._orthonormal_complement(np.stack([fr.metric.g for fr in frames]),
                                                   np.stack([fr.nu for fr in frames]),
                                                   np.stack([fr.grad for fr in frames]))
        assert spanned.all()
        for i, fr in enumerate(frames):
            assert fr.nu.tobytes() == batch.nu[i].tobytes()
            assert fr.grad_norm.tobytes() == batch.grad_norm[i].tobytes()
            assert fr.tangent_basis.tobytes() == batch.tangent_basis[i].tobytes()
            assert fr.tangent_basis.tobytes() == rows[i].tobytes()

    def test_polarity_check_runs_one_gram_schmidt(self, monkeypatch):
        calls = count_complement_calls(monkeypatch)
        res = tb.reflection_iff_polar_check(tb.disk_table(), am.hyperbolic(3), 25, seed=11)
        assert res["n"] == 25 and len(calls) == 1

    def test_unspanned_basis_raises_on_read(self, monkeypatch):
        monkeypatch.setattr(tb, "_orthonormal_complement",
                            lambda g, normal, alignment: (np.zeros((1, 2)), np.bool_(False)))
        fr = tb.boundary_frame(tb.disk_table(), am.euclidean(3), [1.0, 0.0])
        assert np.allclose(tb.reflect(fr, [1.0, 0.0]), [-1.0, 0.0])
        with pytest.raises(DegenerateBoundaryError, match="could not build a tangent basis"):
            fr.tangent_basis
        with pytest.raises(DegenerateBoundaryError):
            tb.is_polar(fr, [-1.0, 0.0], [-1.0, 0.0])


class TestReflectionAndPolarity:
    def test_halfplane_textbook_pairs(self):
        fr = tb.boundary_frame(halfplane_table(), am.euclidean(3), [0.0, 0.0])
        assert np.allclose(fr.nu, [0.0, -1.0], atol=1e-12)
        # opposite tangents are polar, mirror pairs are polar
        assert tb.is_polar(fr, [-1.0, 0.0], [1.0, 0.0])
        assert tb.is_polar(fr, [-S2, -S2], [S2, -S2])
        assert not tb.is_polar(fr, [-1.0, 0.0], [0.0, -1.0])

    def test_halfplane_polar_vector(self):
        fr = tb.boundary_frame(halfplane_table(), am.euclidean(3), [0.0, 0.0])
        assert np.allclose(tb.polar_vector(fr, [-S2, -S2]), [S2, -S2], atol=1e-12)
        # tangent vectors pair with their opposites
        assert np.allclose(tb.polar_vector(fr, [-1.0, 0.0]), [1.0, 0.0], atol=1e-12)
        # the normal is self-polar
        assert np.allclose(tb.polar_vector(fr, fr.nu), fr.nu, atol=1e-12)

    def test_halfplane_reflect(self):
        fr = tb.boundary_frame(halfplane_table(), am.euclidean(3), [0.0, 0.0])
        assert np.allclose(tb.reflect(fr, [S2, S2]), [S2, -S2], atol=1e-12)

    def test_reflect_of_grazing_vector_is_identity(self):
        fr = tb.boundary_frame(halfplane_table(), am.euclidean(3), [0.0, 0.0])
        assert np.allclose(tb.reflect(fr, [1.0, 0.0]), [1.0, 0.0], atol=1e-12)

    def test_reflect_rejects_outgoing_and_non_unit(self):
        fr = tb.boundary_frame(halfplane_table(), am.euclidean(3), [0.0, 0.0])
        with pytest.raises(PreconditionError):
            tb.reflect(fr, [0.0, -1.0])
        with pytest.raises(PreconditionError):
            tb.reflect(fr, [0.0, 2.0])

    def test_is_polar_rejects_non_cone_vectors(self):
        fr = tb.boundary_frame(halfplane_table(), am.euclidean(3), [0.0, 0.0])
        with pytest.raises(PreconditionError):
            tb.is_polar(fr, [0.0, 1.0], [0.0, -1.0])

    @pytest.mark.parametrize("bad", [[np.nan, np.nan], [np.nan, 0.0], [np.inf, 0.0],
                                     [-np.inf, np.nan]])
    def test_non_finite_vectors_rejected(self, bad):
        fr = tb.boundary_frame(tb.disk_table(), am.euclidean(3), [1.0, 0.0])
        calls = [("w_in", lambda: tb.reflect(fr, bad)),
                 ("u", lambda: tb.polar_vector(fr, bad)),
                 ("u", lambda: tb.is_polar(fr, bad, [-1.0, 0.0])),
                 ("v", lambda: tb.is_polar(fr, [-1.0, 0.0], bad))]
        for label, call in calls:
            # an infinite entry times a zero of g warns before the check raises
            with np.errstate(invalid="ignore"), pytest.raises(
                    PreconditionError, match=f"^{label} is not a unit vector in g$"):
                call()

    @pytest.mark.parametrize("kind", am.MODEL_KINDS)
    def test_batch_rows_equal_single_points(self, kind):
        # reflect, polar_vector and is_polar on a batch give each row the
        # bits of the one-point call, and one failing row fails the batch
        model = am.AmbientModel(kind, 3)
        disk = tb.disk_table()
        pts = tb.sample_boundary_points(disk, model, 12, seed=6)
        batch = tb.boundary_frame(disk, model, pts)
        frames = [tb.boundary_frame(disk, model, x) for x in pts]
        r = np.random.default_rng(6)
        w = ((r.normal(size=(12, 1, 1)) @ batch.tangent_basis)[:, 0]
             - (0.1 + np.abs(r.normal(size=(12, 1)))) * batch.nu)
        w /= np.sqrt(am._form(w, batch.metric.g, w))[:, None]
        out = tb.reflect(batch, w)
        partner = tb.polar_vector(batch, -w)
        polar = tb.is_polar(batch, -w, out)
        assert polar.shape == (12,) and polar.all()
        assert not tb.is_polar(batch, -w, -w).any()
        for i, fr in enumerate(frames):
            assert tb.reflect(fr, w[i]).tobytes() == out[i].tobytes()
            assert tb.polar_vector(fr, -w[i]).tobytes() == partner[i].tobytes()
            assert tb.is_polar(fr, -w[i], out[i]) is True
        w[5] = -w[5]
        with pytest.raises(PreconditionError, match="not an incoming velocity"):
            tb.reflect(batch, w)

    @given(seed=st.integers(0, 10**6))
    def test_reflection_properties(self, seed):
        # reflect preserves the g-norm, outputs a cone vector, reverses in
        # time, and the (reversed-in, out) pair is polar
        r = np.random.default_rng(seed)
        kind = ("euclidean", "hyperbolic", "spherical")[seed % 3]
        model = am.AmbientModel(kind, 3)
        disk = tb.disk_table()
        x0 = tb.sample_boundary_points(disk, model, 1, seed=seed)[0]
        fr = tb.boundary_frame(disk, model, x0)
        g = fr.metric.g
        w = r.normal() * fr.tangent_basis[0] - (0.1 + abs(r.normal())) * fr.nu
        w /= np.sqrt(w @ g @ w)
        v = tb.reflect(fr, w)
        assert v @ g @ v == pytest.approx(1.0, abs=1e-9)
        assert v @ g @ fr.nu >= -1e-12
        assert np.allclose(tb.reflect(fr, -v), -w, atol=1e-9)
        assert tb.is_polar(fr, -w, v)

    @given(seed=st.integers(0, 10**6))
    def test_polar_vector_is_an_involution(self, seed):
        r = np.random.default_rng(seed)
        model = am.AmbientModel(("euclidean", "hyperbolic", "spherical")[seed % 3], 3)
        disk = tb.disk_table()
        x0 = tb.sample_boundary_points(disk, model, 1, seed=seed)[0]
        fr = tb.boundary_frame(disk, model, x0)
        g = fr.metric.g
        u = r.normal() * fr.tangent_basis[0] + abs(r.normal()) * fr.nu
        u /= np.sqrt(u @ g @ u)
        v = tb.polar_vector(fr, u)
        assert tb.is_polar(fr, u, v)
        assert np.allclose(tb.polar_vector(fr, v), u, atol=1e-9)


def sample_boundary_points_one_ray_at_a_time(table, model, k, seed=0, max_tries=2000):
    """The scalar sampler: rays drawn, marched and bisected one by one."""
    rng = np.random.default_rng(seed)
    anchor = tb._interior_anchor(table, model)
    pts = []
    tries = 0
    while len(pts) < k and tries < max_tries:
        tries += 1
        d = rng.normal(size=table.n)
        d /= np.linalg.norm(d)
        lo, hi = 0.0, None
        t = 0.05
        while t < 2.0 * table.region.radius:
            x = anchor + t * d
            if not table.region.contains(x):
                break
            if table.f(x) < 0:
                hi = t
                break
            lo = t
            t += 0.05
        if hi is None:
            continue
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if table.f(anchor + mid * d) < 0:
                hi = mid
            else:
                lo = mid
        x0 = anchor + 0.5 * (lo + hi) * d
        if abs(table.f(x0)) > tb.ON_LEVEL_SET_TOL:
            continue
        if np.linalg.norm(table.grad_f(x0)) < 1e-6:
            continue
        pts.append(x0)
    if len(pts) < k:
        raise PreconditionError(f"found only {len(pts)} boundary points after {tries} tries")
    return np.array(pts)


class TestSampling:
    @pytest.mark.parametrize("model", [am.euclidean(3), am.hyperbolic(3)],
                             ids=lambda m: m.kind)
    def test_boundary_points_are_on_the_boundary(self, model):
        disk = tb.disk_table()
        pts = tb.sample_boundary_points(disk, model, 20, seed=7)
        assert len(pts) == 20
        for x in pts:
            assert abs(disk.f(x)) <= 1e-8
            assert disk.region.contains(x)

    @pytest.mark.parametrize("table", BUILTIN_TABLES, ids=lambda t: t.name)
    @pytest.mark.parametrize("kind", am.MODEL_KINDS)
    def test_batched_rays_equal_one_ray_at_a_time(self, table, kind):
        model = am.AmbientModel(kind, table.n + 1)
        for seed in range(6):
            ref = sample_boundary_points_one_ray_at_a_time(table, model, 5, seed=seed)
            pts = tb.sample_boundary_points(table, model, 5, seed=seed)
            assert pts.shape == ref.shape and np.array_equal(pts, ref)
        for max_tries in (1, 4):
            with pytest.raises(PreconditionError) as want:
                sample_boundary_points_one_ray_at_a_time(table, model, 5, seed=2,
                                                         max_tries=max_tries)
            with pytest.raises(PreconditionError, match=f"^{want.value}$"):
                tb.sample_boundary_points(table, model, 5, seed=2, max_tries=max_tries)

    def test_reflection_iff_polar_counts(self):
        for model, table in [(am.euclidean(3), tb.disk_table()),
                             (am.hyperbolic(3), tb.disk_table()),
                             (am.spherical(3), tb.half_space_table())]:
            res = tb.reflection_iff_polar_check(table, model, 25, seed=11)
            assert res["n"] == 25
            assert res["polar_ok"] == 25
            assert res["perturbation_breaks"] == 25
