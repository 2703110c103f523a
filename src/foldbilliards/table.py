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

# |f(x)| below this counts as "on the boundary".
ON_BOUNDARY_TOL = 1e-8
# |Df| below this is a degenerate boundary point.
DEGENERATE_GRAD_TOL = 1e-10
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
        if abs(self.shape.f(p0)) > ON_BOUNDARY_TOL:
            raise InvalidInputError("p0 must lie on the boundary {f = 0}")
        if np.linalg.norm(self.shape.grad(p0)) < DEGENERATE_GRAD_TOL:
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


@dataclass
class BoundaryFrame:
    """Inward unit normal at a boundary point, and its g-orthonormal tangent
    basis, built on first read: the reflection law reads only nu."""

    x0: np.ndarray
    nu: np.ndarray
    metric: ambient.MetricAt
    df: np.ndarray  # Df at x0, which orders the Gram-Schmidt axes

    @functools.cached_property
    def tangent_basis(self) -> np.ndarray:
        """Shape (n-1, n): Gram-Schmidt in g over the coordinate axes."""
        basis, spanned = _orthonormal_complement(self.metric.g, self.nu, self.df)
        if not spanned:
            raise DegenerateBoundaryError("could not build a tangent basis")
        return basis


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


def boundary_frame(table: TableSpec, model: AmbientModel, x0) -> BoundaryFrame:
    """Frame of the boundary {f = 0} at x0 in the induced metric g on H.

    The inward normal is g^{-1} Df / |g^{-1} Df|_g; the tangent basis is
    left to its first read (BoundaryFrame.tangent_basis).
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (table.n,):
        raise InvalidInputError("x0 has wrong dimension")
    if abs(table.f(x0)) > ON_BOUNDARY_TOL:
        raise PreconditionError("x0 is not on the boundary {f = 0}")
    if not table.region.contains(x0):
        raise PreconditionError("x0 lies outside the patch U")
    df = table.grad_f(x0)
    if np.linalg.norm(df) < DEGENERATE_GRAD_TOL:
        raise DegenerateBoundaryError("boundary gradient vanishes at x0")
    metric = ambient.metric_tensor(model_on_table(table, model), x0)
    nu = metric.g_inv @ df
    nu = nu / np.sqrt(nu @ metric.g @ nu)
    return BoundaryFrame(x0=x0, nu=nu, metric=metric, df=df)


def _check_unit_cone(frame: BoundaryFrame, v: np.ndarray, label: str) -> None:
    g = frame.metric.g
    if abs(v @ g @ v - 1.0) > 1e-8:
        raise PreconditionError(f"{label} is not a unit vector in g")
    if v @ g @ frame.nu < -CONE_TOL:
        raise PreconditionError(f"{label} is not in the tangent cone")


def is_polar(frame: BoundaryFrame, u, v, tol: float = POLAR_TOL) -> bool:
    """Whether unit cone vectors u, v form a polar pair at the frame point.

    Runs both equivalent tests and insists they agree:
      (a) g(u + v, w) >= -tol for w in the generating set {+-t_i, nu};
      (b) u + v = s nu with s >= -tol and tangential remainder below tol.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    _check_unit_cone(frame, u, "u")
    _check_unit_cone(frame, v, "v")
    g = frame.metric.g
    s = u + v
    test_a = (s @ g @ frame.nu) >= -tol
    for t in frame.tangent_basis:
        val = s @ g @ t
        test_a = test_a and (val >= -tol) and (-val >= -tol)
    r = s @ g @ frame.nu
    tangential = s - r * frame.nu
    test_b = (r >= -tol) and np.sqrt(max(tangential @ g @ tangential, 0.0)) <= tol
    if test_a != test_b:
        raise NumericError(
            f"polarity tests disagree for u={u}, v={v}: "
            f"generating-set={test_a}, normal-decomposition={test_b}")
    return bool(test_a)


def polar_vector(frame: BoundaryFrame, u) -> np.ndarray:
    """The unique polar partner: u = u_tan + r nu maps to -u_tan + r nu."""
    u = np.asarray(u, dtype=float)
    _check_unit_cone(frame, u, "u")
    g = frame.metric.g
    r = u @ g @ frame.nu
    return 2.0 * r * frame.nu - u


def reflect(frame: BoundaryFrame, w_in) -> np.ndarray:
    """Mirror law for an incoming unit velocity: w - 2 g(w, nu) nu.

    Incoming means the normal component g(w_in, nu) is <= 1e-10; an outgoing
    vector is a precondition error.  Grazing vectors reflect to themselves.
    """
    w_in = np.asarray(w_in, dtype=float)
    g = frame.metric.g
    if abs(w_in @ g @ w_in - 1.0) > 1e-8:
        raise PreconditionError("w_in is not a unit vector in g")
    r = w_in @ g @ frame.nu
    if r > 1e-10:
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
    return x0[~(np.abs(table.f(x0)) > ON_BOUNDARY_TOL) & ~(np.sqrt(_dot(g, g)) < 1e-6)]


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
    of the outgoing vector by POLAR_PERTURBATION are not; returns counts."""
    rng = np.random.default_rng(seed)
    pts = sample_boundary_points(table, model, n_samples, seed=seed)
    ok_polar = 0
    ok_broken = 0
    for x0 in pts:
        frame = boundary_frame(table, model, x0)
        g = frame.metric.g
        # random incoming unit vector, kept away from grazing: for nearly
        # tangent vectors the perturbation is parallel to the vector and is
        # absorbed by renormalization, so the breakage property degenerates
        coeffs = rng.normal(size=table.n - 1)
        w = coeffs @ frame.tangent_basis - (0.1 + abs(rng.normal())) * frame.nu
        w = w / np.sqrt(w @ g @ w)
        v_out = reflect(frame, w)
        u = -w
        if is_polar(frame, u, v_out):
            ok_polar += 1
        t = frame.tangent_basis[rng.integers(table.n - 1)]
        v_pert = v_out + POLAR_PERTURBATION * t
        v_pert = v_pert / np.sqrt(v_pert @ g @ v_pert)
        if v_pert @ g @ frame.nu < -CONE_TOL:
            # perturbation pushed the vector out of the cone; try the other side
            v_pert = v_out - POLAR_PERTURBATION * t
            v_pert = v_pert / np.sqrt(v_pert @ g @ v_pert)
        if not is_polar(frame, u, v_pert):
            ok_broken += 1
    return {"n": len(pts), "polar_ok": ok_polar, "perturbation_breaks": ok_broken}
