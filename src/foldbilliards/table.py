"""Billiard tables, boundary frames and the reflection law.

A table is the region K = {f >= 0} of the hyperplane H, studied inside a
coordinate patch U (a metric ball plus optional polynomial constraints).
All inner products below use the induced metric g of the ambient model on H,
so the same code serves the Euclidean, hyperbolic and spherical cases.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import ambient
from .ambient import AmbientModel, _dot, _form, _identity
from .errors import (
    DegenerateBoundaryError,
    InvalidInputError,
    NumericError,
    PreconditionError,
)

# |F(x)| at most this is on the level set {F = 0}, a table boundary or a fold.
ON_LEVEL_SET_TOL = 1e-8
# |DF| below this is a singular point of a level set.
SINGULAR_GRAD_TOL = 1e-10
# Slack of a unit vector's g-norm, or of its square, from 1.
UNIT_TOL = 1e-8
# Default slack for the polarity tests.
POLAR_TOL = 1e-9
# Tangential step of reflection_iff_polar_check's perturbed vectors.
POLAR_PERTURBATION = 1e-3
# Tangent vectors with normal component >= -CONE_TOL count as cone members.
CONE_TOL = 1e-10
# Rays per block of sample_boundary_points.
BOUNDARY_BLOCK = 128


class Shape:
    """Defining function f of a table, with analytic derivatives.

    f, grad and hess take a float array of points, shape (..., n), and
    return shapes (...), (..., n) and (..., n, n); a single point and a
    batch run the same arithmetic."""

    def f(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hess(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def f_many(self, X: np.ndarray) -> np.ndarray:
        return self.f(X)


@dataclass(frozen=True)
class DiskShape(Shape):
    """f(x) = 1 - |x|^2, the closed unit ball of H."""

    def f(self, x):
        return 1.0 - _dot(x, x)

    def grad(self, x):
        return -2.0 * x

    def hess(self, x):
        return -2.0 * _identity(x.shape[-1]) * np.ones(x.shape[:-1] + (1, 1))


@dataclass(frozen=True)
class HalfSpaceShape(Shape):
    """f(x) = x_1."""

    def f(self, x):
        return x[..., 0].copy()

    def grad(self, x):
        g = np.zeros(x.shape)
        g[..., 0] = 1.0
        return g

    def hess(self, x):
        return np.zeros(x.shape + x.shape[-1:])


@dataclass(frozen=True)
class ParabolaComplementShape(Shape):
    """f(x) = x_1^2 - x_2, the complement of an open parabolic region."""

    def f(self, x):
        return x[..., 0] * x[..., 0] - x[..., 1]

    def grad(self, x):
        g = np.zeros(x.shape)
        g[..., 0] = 2.0 * x[..., 0]
        g[..., 1] = -1.0
        return g

    def hess(self, x):
        h = np.zeros(x.shape + x.shape[-1:])
        h[..., 0, 0] = 2.0
        return h


def _power_groups(exps: np.ndarray) -> tuple[tuple[int, int, np.ndarray], ...]:
    """(k, p, terms) for each coordinate k and power p >= 1, in that order,
    where terms indexes the exponent rows of exps (all axes but the last
    flattened) whose k-th entry is p."""
    e = exps.reshape(-1, exps.shape[-1])
    groups = ((k, p, np.flatnonzero(e[:, k] == p))
              for k in range(e.shape[1]) for p in range(1, e.max() + 1))
    return tuple(g for g in groups if len(g[2]))


@dataclass(frozen=True)
class PolynomialShape(Shape):
    """f as a finite sum of monomials: terms ((e_1, ..., e_n), coeff).

    The derivatives are monomial sums too: d/dx_i of c x^e is c e_i
    x^(e - 1_i), and d2/dx_i dx_j is c e_i (e_j - delta_ij) x^(e - 1_i - 1_j).
    Exponents that would go negative belong to zero coefficients and are
    clipped to 0, so x = 0 stays finite.  Every monomial is read off one
    table of powers x_k^p built by multiplication, so x^2 is x * x and no
    vectorized pow runs."""

    terms: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self):
        exps = np.array([e for e, _ in self.terms], dtype=int)
        if exps.ndim != 2 or exps.size == 0:
            raise InvalidInputError("a polynomial needs terms with one exponent per coordinate")
        coef = np.array([c for _, c in self.terms], dtype=float)
        eye = np.eye(exps.shape[1], dtype=int)
        d1 = exps[:, None, :] - eye            # [term, i] = e - 1_i
        d2 = d1[:, :, None, :] - eye           # [term, i, j] = e - 1_i - 1_j
        c1 = coef[:, None] * exps              # c e_i
        c2 = c1[:, :, None] * d1               # c e_i (e_j - delta_ij)
        for name, value in (("_exps", exps), ("_coef", coef), ("_c1", c1), ("_c2", c2),
                            ("_d1", np.maximum(d1, 0)), ("_d2", np.maximum(d2, 0))):
            object.__setattr__(self, name, value)
        for name, e in (("_g0", exps), ("_g1", self._d1), ("_g2", self._d2)):
            object.__setattr__(self, name, _power_groups(e))

    def _sum(self, coef, groups, x):
        """sum_t coef[t] x^exps[t], term by term in order, with shape
        coef.shape[1:] + x.shape[:-1], for the _power_groups of exps.  Each
        monomial is a product in coordinate order of powers x_k^1 = x_k,
        x_k^(p+1) = x_k^p x_k: one step per group multiplies x_k^p into
        every monomial that holds it.  The exact factors x_k^0 = 1 are left
        out."""
        xs = np.moveaxis(x, -1, 0)
        powers = [None, xs]
        for _ in range(self._exps.max() - 1):
            powers.append(powers[-1] * xs)
        mono = np.ones(coef.shape + x.shape[:-1])
        rows = mono.reshape((-1,) + x.shape[:-1])
        for k, p, terms in groups:
            rows[terms] *= powers[p][k]
        coef = coef.reshape(coef.shape + (1,) * (x.ndim - 1))
        out = coef[0] * mono[0]
        for c, m in zip(coef[1:], mono[1:]):
            out = out + c * m
        return out

    def f(self, x):
        return self._sum(self._coef, self._g0, x)

    def grad(self, x):
        return np.moveaxis(self._sum(self._c1, self._g1, x), 0, -1)

    def hess(self, x):
        return np.moveaxis(self._sum(self._c2, self._g2, x), (0, 1), (-2, -1))


@dataclass(frozen=True)
class Region:
    """Coordinate patch U: metric ball around center intersected with
    polynomial strip constraints lo < p(x) < hi."""

    center: tuple[float, ...]
    radius: float
    constraints: tuple[tuple[PolynomialShape, float, float], ...] = ()

    def contains(self, x) -> np.ndarray:
        """Whether the points x, shape (..., n), lie in U; a point with a
        non-finite coordinate never does."""
        x = np.asarray(x, dtype=float)
        r = x - np.asarray(self.center)
        ok = np.sqrt(_dot(r, r)) < self.radius
        for poly, lo, hi in self.constraints:
            val = poly.f(x)
            ok = ok & (lo < val) & (val < hi)
        return ok

    contains_many = contains


@dataclass(frozen=True)
class TableSpec:
    """A billiard table K = {f >= 0} with base point p0 on its boundary."""

    n: int
    shape: Shape
    region: Region
    p0: tuple[float, ...]
    name: str = "table"

    def __post_init__(self):
        p0 = np.asarray(self.p0, dtype=float)
        if p0.shape != (self.n,):
            raise InvalidInputError("p0 has wrong dimension")
        if abs(self.shape.f(p0)) > ON_LEVEL_SET_TOL:
            raise InvalidInputError("p0 must lie on the boundary {f = 0}")
        if np.linalg.norm(self.shape.grad(p0)) < SINGULAR_GRAD_TOL:
            raise InvalidInputError("boundary is degenerate at p0")
        if not self.region.contains(p0):
            raise InvalidInputError("p0 must lie inside the patch U")

    @property
    def p0_array(self) -> np.ndarray:
        return np.asarray(self.p0, dtype=float)

    def f(self, x) -> np.ndarray:
        """f at the points x, shape (..., n); a float for one point."""
        return self.shape.f(np.asarray(x, dtype=float))

    def grad_f(self, x) -> np.ndarray:
        return self.shape.grad(np.asarray(x, dtype=float))

    def hess_f(self, x) -> np.ndarray:
        return self.shape.hess(np.asarray(x, dtype=float))


def disk_table(n: int = 2, radius_U: float = 2.5) -> TableSpec:
    p0 = tuple([1.0] + [0.0] * (n - 1))
    return TableSpec(n=n, shape=DiskShape(), name="disk",
                     region=Region(center=(0.0,) * n, radius=radius_U), p0=p0)


def half_space_table(n: int = 2, radius_U: float = 5.0) -> TableSpec:
    return TableSpec(n=n, shape=HalfSpaceShape(), name="half-space",
                     region=Region(center=(0.0,) * n, radius=radius_U),
                     p0=(0.0,) * n)


def parabola_table(n: int = 2, radius_U: float = 1.2) -> TableSpec:
    return TableSpec(n=n, shape=ParabolaComplementShape(), name="parabola",
                     region=Region(center=(0.0,) * n, radius=radius_U),
                     p0=(0.0,) * n)


def spherical_halfspace_table(n: int = 3) -> TableSpec:
    """Half-space table on the patch where its spherical fold has curvature
    bounded below: U = {-3/2 < 3 x_1^2 - 1 - x_2^2 - ... - x_n^2 < 0} n B(0,1)."""
    exps = []
    for i in range(n):
        e = [0] * n
        e[i] = 2
        exps.append((tuple(e), 3.0 if i == 0 else -1.0))
    exps.append(((0,) * n, -1.0))
    strip = PolynomialShape(terms=tuple(exps))
    return TableSpec(
        n=n, shape=HalfSpaceShape(), name="half-space",
        region=Region(center=(0.0,) * n, radius=1.0,
                      constraints=((strip, -1.5, 0.0),)),
        p0=(0.0,) * n)


@dataclass(frozen=True)
class BuiltinTable:
    """A named table family: its builder, whose keyword arguments are the
    options a config may set for this kind, and a one-line description."""

    build: Callable[..., TableSpec]
    description: str


BUILTIN_TABLES = {
    "disk": BuiltinTable(disk_table, "f = 1 - |x|^2, the closed unit disk"),
    "half-space": BuiltinTable(half_space_table, "f = x_1, a flat wall"),
    "parabola": BuiltinTable(parabola_table,
                             "f = x_1^2 - x_2, region outside a parabola (nonconvex)"),
    "spherical-halfspace": BuiltinTable(spherical_halfspace_table,
                                        "f = x_1 on a strip patch, n = 3"),
}


class LevelSetFrame:
    """Frame of a level set {F = 0} at its points x, shape (..., d), with
    differentials dF, in the metric g of model: grad = g^{-1} dF, its g-norm
    grad_norm, the unit normal nu = grad / grad_norm and a g-orthonormal
    tangent basis, built on first read.  fold.frame_at adds the covariant
    Hessian, the second fundamental form h and the mask defined."""

    hessian = h = defined = None

    def __init__(self, model: AmbientModel, x: np.ndarray, dF: np.ndarray):
        self.x, self.metric = x, ambient.metric_tensor(model, x)
        # one point takes the 1-D products, which round as a batch row does
        one, g_inv = dF.ndim == 1, self.metric.g_inv
        self.grad = g_inv @ dF if one else (g_inv @ dF[..., None])[..., 0]
        self.grad_norm = np.sqrt(dF @ self.grad if one else _dot(dF, self.grad))
        self.nu = self.grad / (self.grad_norm if one else self.grad_norm[..., None])

    @functools.cached_property
    def spanned(self) -> np.ndarray:
        """Whether the coordinate axes spanned the tangent space at each
        point; the first read of it or of tangent_basis runs Gram-Schmidt."""
        self._basis, spanned = _orthonormal_complement(self.metric.g, self.nu, self.grad)
        return spanned

    @property
    def tangent_basis(self) -> np.ndarray:
        """Shape (..., d - 1, d); raises where unspanned, unless defined is set."""
        if self.defined is None and not self.spanned.all():
            raise DegenerateBoundaryError("could not build a tangent basis")
        return self._basis


def model_on_table(table: TableSpec, model: AmbientModel) -> AmbientModel:
    """The model of (H, g).  Accepts the ambient model or the one on H."""
    if model.dim == table.n:
        return model
    if model.dim == table.n + 1:
        return model.restricted()
    raise InvalidInputError(
        f"model dimension {model.dim} matches neither the table ({table.n}) "
        f"nor its ambient space ({table.n + 1})")


def _orthonormal_complement(g: np.ndarray, normal: np.ndarray,
                            alignment: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g-orthonormal bases (rows, shape (..., d - 1, d)) of the g-complements
    of unit normals, and whether the coordinate axes spanned each one.

    Gram-Schmidt in g over the axes, taken in increasing order of
    |alignment| (a vector or covector along the normal), so each basis is
    deterministic; an axis whose remainder has g-norm below 1e-10 is skipped,
    and no axis is visited once every basis holds d - 1 vectors.  One point
    runs as a batch of one.
    """
    batch, d = normal.shape[:-1], normal.shape[-1]
    g = g.reshape(-1, d, d)
    normal = normal.reshape(-1, d)
    a = np.abs(alignment.reshape(-1, d))
    order = np.argsort(a / np.sqrt(_dot(a, a))[:, None], axis=-1)
    basis = np.zeros((len(normal), d - 1, d))
    count = np.zeros(len(normal), dtype=int)
    rows = np.arange(len(normal))
    for axis in order.T:
        done = count.min(initial=d - 1)
        if done == d - 1:
            break
        v = _identity(d)[axis]
        v = v - _form(v, g, normal)[:, None] * normal
        # only the vectors some row holds, with no mask where every row does
        for k in range(count.max(initial=0)):
            b = basis[:, k]
            proj = v - _form(v, g, b)[:, None] * b
            v = proj if k < done else np.where((k < count)[:, None], proj, v)
        nrm = np.sqrt(np.maximum(_form(v, g, v), 0.0))
        take = ~(nrm < 1e-10) & (count < d - 1)
        basis[rows[take], count[take]] = v[take] / nrm[take, None]
        count += take
    return basis.reshape(batch + (d - 1, d)), (count == d - 1).reshape(batch)


def _any(mask: np.ndarray) -> bool:
    """mask.any(), which one point's 0-d mask skips: it costs more than the test."""
    return bool(mask) if mask.ndim == 0 else bool(mask.any())


def _all(mask: np.ndarray) -> bool:
    """mask.all(), as _any; a test written ``x <= tol`` fails on NaN."""
    return bool(mask) if mask.ndim == 0 else bool(mask.all())


def boundary_frame(table: TableSpec, model: AmbientModel, x0) -> LevelSetFrame:
    """Frame of the boundary {f = 0} at the points x0, shape (..., n), in the
    induced metric g on H; every point must be a regular boundary point
    inside U.  The inward normal is g^{-1} Df / |g^{-1} Df|_g."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape[-1:] != (table.n,):
        raise InvalidInputError("x0 has wrong dimension")
    if _any(abs(table.f(x0)) > ON_LEVEL_SET_TOL):
        raise PreconditionError("x0 is not on the boundary {f = 0}")
    if not _all(table.region.contains(x0)):
        raise PreconditionError("x0 lies outside the patch U")
    df = table.grad_f(x0)
    if _any(np.sqrt(_dot(df, df)) < SINGULAR_GRAD_TOL):
        raise DegenerateBoundaryError("boundary gradient vanishes at x0")
    return LevelSetFrame(model_on_table(table, model), x0, df)


def _normal_component(frame: LevelSetFrame, v: np.ndarray, label: str,
                      in_cone: bool = False) -> np.ndarray:
    """g(v, nu) at the frame's points, shape (..., 1) (a scalar for one
    point), for vectors v that must be unit in g, and in the tangent cone if
    in_cone.  v^T g is formed once for g(v, v) and g(v, nu), which round as
    _form's do; one point takes the 1-D products, which round the same."""
    g, nu = frame.metric.g, frame.nu
    if v.ndim == nu.ndim == 1:
        vg = v @ g
        vv, r = vg @ v, vg @ nu
    else:
        vg = v[..., None, :] @ g
        vv, r = (vg @ v[..., :, None])[..., 0], (vg @ nu[..., :, None])[..., 0]
    if not _all(abs(vv - 1.0) <= UNIT_TOL):
        raise PreconditionError(f"{label} is not a unit vector in g")
    if in_cone and not _all(r >= -CONE_TOL):
        raise PreconditionError(f"{label} is not in the tangent cone")
    return r


def is_polar(frame: LevelSetFrame, u, v, tol: float = POLAR_TOL):
    """Whether unit cone vectors u, v, shape (..., n), form a polar pair at
    the frame's points; a bool for one point.

    Runs both equivalent tests and insists they agree:
      (a) g(u + v, w) >= -tol for w in the generating set {+-t_i, nu};
      (b) u + v = s nu with s >= -tol and tangential remainder below tol.
    """
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    _normal_component(frame, u, "u", in_cone=True)
    _normal_component(frame, v, "v", in_cone=True)
    g, s = frame.metric.g, u + v
    r = _form(s, g, frame.nu)
    val = _form(s[..., None, :], g[..., None, :, :], frame.tangent_basis)
    test_a = (r >= -tol) & ((val >= -tol) & (-val >= -tol)).all(axis=-1)
    tangential = s - r[..., None] * frame.nu
    test_b = (r >= -tol) & (np.sqrt(np.maximum(_form(tangential, g, tangential), 0.0)) <= tol)
    if _any(test_a != test_b):
        raise NumericError(
            f"polarity tests disagree for u={u}, v={v}: "
            f"generating-set={test_a}, normal-decomposition={test_b}")
    return test_a if test_a.ndim else bool(test_a)


def polar_vector(frame: LevelSetFrame, u) -> np.ndarray:
    """The unique polar partner: u = u_tan + r nu maps to -u_tan + r nu."""
    u = np.asarray(u, dtype=float)
    r = _normal_component(frame, u, "u", in_cone=True)
    return 2.0 * r * frame.nu - u


def reflect(frame: LevelSetFrame, w_in) -> np.ndarray:
    """Mirror law for incoming unit velocities, shape (..., n): w - 2 g(w, nu) nu.

    Incoming means the normal component g(w_in, nu) is <= 1e-10; an outgoing
    vector is a precondition error.  Grazing vectors reflect to themselves.
    """
    w_in = np.asarray(w_in, dtype=float)
    r = _normal_component(frame, w_in, "w_in")
    if not _all(r <= 1e-10):
        raise PreconditionError("w_in points into the table; not an incoming velocity")
    return w_in - 2.0 * r * frame.nu


def sample_boundary_points(table: TableSpec, model: AmbientModel, k: int,
                           seed: int = 0, max_tries: int = 2000) -> np.ndarray:
    """k boundary points found by bisecting f along random rays inside U:
    of max_tries rays from an interior anchor, the first k in draw order
    whose march (steps of 0.05) meets f < 0 before it leaves U and whose
    bisection ends on a regular boundary point.  The rays march and bisect
    in draw-order blocks of BOUNDARY_BLOCK, and no block starts once k
    points are found."""
    rng = np.random.default_rng(seed)
    anchor = _interior_anchor(table, model)
    d = rng.normal(size=(max_tries, table.n))
    d /= np.sqrt(_dot(d, d))[:, None]
    pts = np.empty((0, table.n))
    for start in range(0, max_tries, BOUNDARY_BLOCK):
        if len(pts) >= k:
            break
        pts = np.concatenate([pts, _boundary_hits(table, anchor, d[start:start + BOUNDARY_BLOCK])])
    if len(pts) < k:
        raise PreconditionError(f"found only {len(pts)} boundary points after {max_tries} tries")
    return pts[:k]


def _boundary_hits(table: TableSpec, anchor: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The regular boundary points that sample_boundary_points finds along
    the unit rays anchor + t d, in the order of d; all rays march and bisect
    at once."""
    lo, hi = np.zeros(len(d)), np.full(len(d), np.nan)
    live = np.arange(len(d))
    t = 0.05
    while t < 2.0 * table.region.radius and len(live):
        x = anchor + t * d[live]
        inside = table.region.contains(x)
        live, x = live[inside], x[inside]
        neg = table.f(x) < 0
        hi[live[neg]] = t
        live = live[~neg]
        lo[live] = t
        t += 0.05
    hit = np.flatnonzero(~np.isnan(hi))
    lo, hi, d = lo[hit], hi[hit], d[hit]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        neg = table.f(anchor + mid[:, None] * d) < 0
        lo, hi = np.where(neg, lo, mid), np.where(neg, mid, hi)
    x0 = anchor + (0.5 * (lo + hi))[:, None] * d
    g = table.grad_f(x0)
    return x0[~(np.abs(table.f(x0)) > ON_LEVEL_SET_TOL) & ~(np.sqrt(_dot(g, g)) < 1e-6)]


def _interior_anchor(table: TableSpec, model: AmbientModel) -> np.ndarray:
    """A point with f > 0 inside U, found by stepping inward from p0."""
    frame = boundary_frame(table, model, table.p0_array)
    for step in (0.3, 0.1, 0.03, 0.01):
        x = table.p0_array + step * frame.nu
        if table.region.contains(x) and table.f(x) > 0:
            return x
    raise PreconditionError("no interior anchor found near p0")


def reflection_iff_polar_check(table: TableSpec, model: AmbientModel,
                               n_samples: int, seed: int = 0) -> dict:
    """Property check: reflected pairs are polar, tangential perturbations
    of the outgoing vector by POLAR_PERTURBATION are not; returns counts.
    All sampled points run as one batch."""
    rng = np.random.default_rng(seed)
    pts = sample_boundary_points(table, model, n_samples, seed=seed)
    frame = boundary_frame(table, model, pts)
    nu, basis = frame.nu, frame.tangent_basis
    model_H = model_on_table(table, model)
    # random incoming unit vectors, kept away from grazing: for nearly
    # tangent vectors the perturbation is parallel to the vector and is
    # absorbed by renormalization, so the breakage property degenerates
    coeffs = rng.normal(size=(len(pts), 1, table.n - 1))
    w = (coeffs @ basis)[:, 0] - (0.1 + np.abs(rng.normal(size=len(pts))))[:, None] * nu
    w = ambient.normalize(model_H, pts, w)
    v_out = reflect(frame, w)
    polar = is_polar(frame, -w, v_out)
    t = basis[np.arange(len(pts)), rng.integers(table.n - 1, size=len(pts))]
    v_pert = ambient.normalize(model_H, pts, v_out + POLAR_PERTURBATION * t)
    # a perturbation that pushed the vector out of the cone tries the other side
    out = _form(v_pert, frame.metric.g, nu) < -CONE_TOL
    v_pert[out] = ambient.normalize(model_H, pts[out], v_out[out] - POLAR_PERTURBATION * t[out])
    broken = ~is_polar(frame, -w, v_pert)
    return {"n": len(pts), "polar_ok": int(polar.sum()), "perturbation_breaks": int(broken.sum())}
