"""Tests for table shapes, boundary frames, the reflection law and polarity."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from foldbilliards import ambient as am
from foldbilliards import table as tb
from foldbilliards.errors import InvalidInputError, PreconditionError

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


ALL_TABLES = [build() for build in tb.BUILTIN_TABLES.values()] + mixed_tables()


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


class TestPolynomialShape:
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


class TestOrthonormalComplement:
    """One point takes 1-D products; they must give the batch path's bits."""

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
        if abs(table.f(x0)) > tb.ON_BOUNDARY_TOL:
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

    @pytest.mark.parametrize("table", [build() for build in tb.BUILTIN_TABLES.values()],
                             ids=lambda t: t.name)
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
