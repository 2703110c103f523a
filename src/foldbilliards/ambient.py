"""Constant-curvature ambient geometries on R^d.

Three models, all defined by explicit metric tensors on all of R^d:

* ``euclidean``  -- flat metric, curvature 0.
* ``hyperbolic`` -- g_ij(x) = delta_ij - x_i x_j / (1 + |x|^2), curvature -1.
  This is the pullback of the Minkowski metric under the graph chart
  x -> (x, sqrt(1 + |x|^2)) of the upper hyperboloid sheet.
* ``spherical``  -- g_ij(x) = 4 / (1 + |x|^2)^2 delta_ij, curvature +1,
  i.e. the round metric in stereographic coordinates (projection from the
  north pole, so the chart covers the sphere minus one point).

Christoffel symbols, distances and the geodesic flow are closed-form; the
finite-difference route lives in the test suite as an independent oracle.
``distance`` is the one body for distance values: cancellation-free chord
forms, the same bits for a pair, rows or a grid.  ``distance_cross`` is the
same body on a grid; the private ``_nearest_sup`` searches nearest sets with
it (nearest vertices, Hausdorff min / max), evaluating only the pairs that a
bounding-ball bound cannot rule out.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericError

MODEL_KINDS = ("euclidean", "hyperbolic", "spherical")

# Allowed roundoff slack when clamping inverse-trig arguments to their domain.
CLAMP_SLACK = 1e-12

# Output bytes of one distance_cross call of the nearest-set search (at
# least one row a call), so its memory stays bounded when nothing prunes.
BLOCK_BYTES = 16 * 2**20

# Points per cell of the nearest-set search, and its pruning margin relative
# to 1 + d(q, c): above the few-ulp error of the chord forms, including the
# ~1e-8 of arcsin near antipodal points.
NEAR_CELL = 64
NEAR_SLACK = 1e-7


def _check_point(x, dim: int) -> np.ndarray:
    """x as a float array of points, shape (..., dim), all finite."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (dim,):
        raise InvalidInputError(f"expected points of dimension {dim}, got shape {x.shape}")
    if not _all_finite(x):
        raise InvalidInputError("non-finite coordinates")
    return x


def _all_finite(x: np.ndarray) -> bool:
    """Whether every entry of x is finite; one point is checked on Python
    floats, several times faster than a ufunc and a reduction on a few
    coordinates."""
    return all(map(math.isfinite, x.tolist())) if x.ndim == 1 else bool(np.isfinite(x).all())


# Batched products over the last axes.  A batch and a loop of single-point
# calls give bit-identical results in two ways: stacked matmul, which runs the
# same BLAS kernel per row as the 1-D ``@`` of a single point (_dot, _form),
# and elementwise products summed one coordinate at a time in a fixed order,
# with no BLAS call (_coordinate_sum, fold._coordinate_dot).  einsum and sum()
# reductions do not.
def _dot(u, v):
    """u . v, as ``u @ v`` row by row."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _form(u, a, v):
    """u^T a v, as ``u @ a @ v`` row by row."""
    return (u[..., None, :] @ a @ v[..., :, None])[..., 0, 0]


@functools.cache
def _identity(d: int) -> np.ndarray:
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


@dataclass(frozen=True)
class AmbientModel:
    """A constant-curvature model geometry on R^dim."""

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise InvalidInputError(f"unknown model kind {self.kind!r}")
        if self.dim < 1:
            raise InvalidInputError("model dimension must be >= 1")

    @property
    def kappa(self) -> float:
        """Sectional curvature of the model space."""
        return {"euclidean": 0.0, "hyperbolic": -1.0, "spherical": 1.0}[self.kind]

    def restricted(self) -> "AmbientModel":
        """Same geometry one dimension down.

        The coordinate hyperplane H = {x_dim = 0} is totally geodesic in all
        three models and its induced metric is the same model in dimension
        dim - 1, so table-level computations reuse the ambient formulas.
        """
        return AmbientModel(self.kind, self.dim - 1)


def euclidean(dim: int) -> AmbientModel:
    return AmbientModel("euclidean", dim)


def hyperbolic(dim: int) -> AmbientModel:
    return AmbientModel("hyperbolic", dim)


def spherical(dim: int) -> AmbientModel:
    return AmbientModel("spherical", dim)


@dataclass(frozen=True)
class MetricAt:
    """Metric tensors and their inverses at points, both symmetric positive."""

    g: np.ndarray
    g_inv: np.ndarray


def metric_tensor(model: AmbientModel, x) -> MetricAt:
    """Metric tensor of the model at the points x, shape (..., dim), with
    closed-form inverse; g and g_inv have shape (..., dim, dim).  The
    euclidean g and g_inv are the cached read-only identity itself for one
    point and a broadcast view of it for a batch."""
    x = _check_point(x, model.dim)
    eye = _identity(model.dim)
    if model.kind == "euclidean":
        g = g_inv = eye if x.ndim == 1 else np.broadcast_to(eye, x.shape[:-1] + eye.shape)
    elif model.kind == "hyperbolic":
        s = 1.0 + _dot(x, x)
        xx = x[..., :, None] * x[..., None, :]
        g = eye - xx / s[..., None, None]
        g_inv = eye + xx
    else:
        w = 1.0 + _dot(x, x)
        c = (4.0 / (w * w))[..., None, None]
        g = c * eye
        g_inv = eye / c
    return MetricAt(g=g, g_inv=g_inv)


def metric_many(model: AmbientModel, X: np.ndarray) -> np.ndarray:
    """Metric tensors at each row of X, shape (N, dim, dim)."""
    return metric_tensor(model, X).g


def inner(model: AmbientModel, x, u, v):
    """Riemannian inner products g_x(u, v) at the points x, shape (..., dim),
    as ``u @ g @ v`` row by row; a float for one point.  One euclidean point
    skips the metric: ``u @ v`` has the same bits as ``u @ I @ v`` except
    that a zero keeps its sign."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if model.kind == "euclidean" and u.ndim == v.ndim == np.ndim(x) == 1:
        return float(u @ v)
    val = _form(u, metric_tensor(model, x).g, v)
    return float(val) if val.ndim == 0 else val


def norm(model: AmbientModel, x, v):
    """Riemannian norms |v|_g at the points x, shape (..., dim); a float for
    one point."""
    val = inner(model, x, v, v)
    one = isinstance(val, float)
    if val < 0 if one else (val < 0).any():
        raise NumericError("negative squared norm; metric evaluation failed")
    return math.sqrt(val) if one else np.sqrt(val)


def normalize(model: AmbientModel, x, v) -> np.ndarray:
    """v / |v|_g at the points x, shape (..., dim), for finite |v|_g >= 1e-14."""
    n = np.asarray(norm(model, x, v))
    if not ((n >= 1e-14) & (n < np.inf)).all():
        raise InvalidInputError("cannot normalize a (near-)zero or non-finite vector")
    return np.asarray(v, dtype=float) / n[..., None]


def christoffel(model: AmbientModel, x) -> np.ndarray:
    """Christoffel symbols Gamma[..., k, i, j] of the model metric at the
    points x, shape (..., dim).

    Closed forms:
      euclidean   Gamma = 0
      hyperbolic  Gamma^k_ij = -g_ij(x) x_k
      spherical   Gamma^k_ij = -2/(1+|x|^2) (d_ik x_j + d_jk x_i - d_ij x_k)
    """
    x = _check_point(x, model.dim)
    d = model.dim
    if model.kind == "euclidean":
        return np.zeros(x.shape + (d, d))
    if model.kind == "hyperbolic":
        g = metric_tensor(model, x).g
        return -(x[..., :, None, None] * g[..., None, :, :])
    c = -2.0 / (1.0 + _dot(x, x))
    eye = _identity(d)
    # the two product terms contiguous, so the sum walks no strided view
    out = np.einsum("ki,...j->...kij", eye, x) + np.einsum("kj,...i->...kij", eye, x)
    out -= x[..., :, None, None] * eye
    out *= c[..., None, None, None]
    return out


def christoffel_quadratic(model: AmbientModel, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Gamma^k_ij v^i v^j at the points x with velocities v, shape (..., dim),
    without building the full tensor (integrator path).  One point is a
    batch of one: the same stacked row products, so the same bits."""
    if model.kind == "euclidean":
        return np.zeros(np.shape(v))
    xx, xv, vv = (_dot(a, b)[..., None] for a, b in ((x, x), (x, v), (v, v)))
    if model.kind == "hyperbolic":
        s = 1.0 + xx
        gvv = vv - xv ** 2 / s
        return -gvv * x
    c = -2.0 / (1.0 + xx)
    return c * (2.0 * xv * v - vv * x)


def sphere_embedding(X) -> np.ndarray:
    """Inverse stereographic image (2x, |x|^2 - 1) / (1 + |x|^2) on S^dim of
    points of shape (..., dim)."""
    X = np.asarray(X, dtype=float)
    r2 = np.einsum("...i,...i->...", X, X)[..., None]
    out = np.concatenate([2.0 * X, r2 - 1.0], axis=-1)
    out /= 1.0 + r2
    return out


def hyperboloid_embedding(X) -> np.ndarray:
    """Graph chart (x, sqrt(1 + |x|^2)) onto the upper hyperboloid sheet, for
    points of shape (..., dim)."""
    X = np.asarray(X, dtype=float)
    r2 = np.einsum("...i,...i->...", X, X)[..., None]
    return np.concatenate([X, np.sqrt(1.0 + r2)], axis=-1)


def geodesic_flow(model: AmbientModel, x, v, t) -> tuple[np.ndarray, np.ndarray]:
    """Point and velocity at time t of the geodesic through x with velocity v,
    in closed form.  x and v have shape (..., dim) and t broadcasts against
    their batch shape, so a whole scan of times is one call.  With the speed
    s = |v|_g, the embedded point X and velocity V:
      euclidean   x + t v, v
      hyperbolic  the hyperbola cosh(s t) X + sinh(s t) V / s on the
                  hyperboloid, read off the graph chart (its first dim
                  coordinates)
      spherical   the great circle cos(s t) X + sin(s t) V / s through the
                  sphere_embedding of x, projected back stereographically
    InvalidInputError when x or v is not of dimension dim; NumericError
    when the curve reaches the stereographic pole or a result is not
    finite."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.shape[-1:] != (model.dim,) or v.shape[-1:] != (model.dim,):
        raise InvalidInputError(f"expected points and velocities of dimension {model.dim}, "
                                f"got shapes {x.shape} and {v.shape}")
    # one time stays a scalar, so a euclidean step is x + t v and one check;
    # a non-finite input shows in the result
    t = t if isinstance(t, float) else np.asarray(t, dtype=float)[..., None]
    if model.kind == "euclidean":
        xt = x + t * v
        vt = v if v.shape == xt.shape else np.broadcast_to(v, xt.shape).copy()
        finite = _all_finite(xt)
    else:
        # overflow and the 0 / 0 of speed 0 are caught by the check
        with np.errstate(all="ignore"):
            xt, vt = _curved_flow(model, x, v, t)
        finite = _all_finite(xt) and _all_finite(vt)
    if not finite:
        raise NumericError("geodesic flow is not finite")
    return xt, vt


def _curved_flow(model, x, v, t):
    """The hyperbolic and spherical branches of geodesic_flow, for a scalar t
    or t of shape (..., 1); speed 0 takes the limit t of sin(s t) / s."""
    xv = _dot(x, v)[..., None]
    if model.kind == "hyperbolic":
        s = np.sqrt(_dot(v, v)[..., None] - (xv / hyperboloid_embedding(x)[..., -1:]) ** 2)
        ch, sh = np.cosh(s * t), np.sinh(s * t)
        return ch * x + np.where(s > 0, sh / s, t) * v, (s * sh) * x + ch * v
    c = 2.0 / (1.0 + _dot(x, x)[..., None])
    X = sphere_embedding(x)
    V = np.concatenate([c * v - (c * c * xv) * x, c * c * xv], axis=-1)
    s = c * np.sqrt(_dot(v, v)[..., None])
    co, si = np.cos(s * t), np.sin(s * t)
    Xt = co * X + np.where(s > 0, si / s, t) * V
    Vt = co * V - (s * si) * X
    w = 1.0 - Xt[..., -1:]
    if (w < 1e-12).any():
        raise NumericError("geodesic reaches the stereographic pole")
    xt = Xt[..., :-1] / w
    return xt, (Vt[..., :-1] + xt * Vt[..., -1:]) / w


def _points(model: AmbientModel, p, q) -> tuple[np.ndarray, np.ndarray]:
    """p and q as checked points whose batch shapes broadcast."""
    p = _check_point(p, model.dim)
    q = _check_point(q, model.dim)
    try:
        np.broadcast_shapes(p.shape[:-1], q.shape[:-1])
    except ValueError:
        raise InvalidInputError(f"point batches {p.shape} and {q.shape} do not broadcast") from None
    return p, q


def _coordinate_sum(p, q, plus: bool = False) -> np.ndarray:
    """Sum over the last axis of (p_k - q_k)^2, or of (p_k - q_k)(p_k + q_k)
    with plus, over the broadcast batch.  One coordinate at a time into one
    reused temporary and no BLAS call, so a pair, rows and a grid round alike
    and the temporaries stay the size of the output."""
    shape = np.broadcast_shapes(p.shape[:-1], q.shape[:-1])
    acc = np.zeros(shape)
    tmp = np.empty(shape)
    for k in range(p.shape[-1]):
        np.subtract(p[..., k], q[..., k], out=tmp)
        tmp *= (p[..., k] + q[..., k]) if plus else tmp
        acc += tmp
    return acc


def _guard(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The array x clipped to [lo, hi] in place; NumericError beyond
    CLAMP_SLACK of roundoff."""
    if np.any((x < lo - CLAMP_SLACK) | (x > hi + CLAMP_SLACK)):
        raise NumericError(f"argument outside [{lo}, {hi}] beyond slack {CLAMP_SLACK}")
    return np.clip(x, lo, hi, out=x)


def distance(model: AmbientModel, p, q):
    """Geodesic distances between points p and q of shape (..., dim),
    broadcast against each other; a float for one pair.  The one body for
    distance values, in chord forms that do not cancel for nearby points
    (e2 = |p - q|^2; dz = (p - q).(p + q) / (sqrt(1 + |p|^2) + sqrt(1 + |q|^2))
    is the height difference of the hyperboloid images):
      euclidean   sqrt(e2)
      hyperbolic  2 arcsinh(sqrt(e2 - dz^2) / 2), the Minkowski chord
      spherical   2 arcsin(sqrt(e2 / ((1 + |p|^2)(1 + |q|^2)))), the half
                  chord of the stereographic preimages
    """
    return _chord_distance(model, *_points(model, p, q))


def _chord_distance(model: AmbientModel, p: np.ndarray, q: np.ndarray):
    """The chord forms of distance on float arrays whose batches broadcast.
    The curved forms run in place on the buffers of _coordinate_sum, so a
    grid holds at most a few output-sized arrays at once."""
    if model.kind == "euclidean":
        return np.sqrt(_coordinate_sum(p, q))
    p2, q2 = (_coordinate_sum(x, np.zeros(model.dim)) for x in (p, q))
    if model.kind == "hyperbolic":
        # dz first, so that e2 is not yet held while dz's sum holds its temporaries
        dz = _coordinate_sum(p, q, plus=True)
        dz /= np.sqrt(1.0 + p2) + np.sqrt(1.0 + q2)
        e2 = _coordinate_sum(p, q)
        dz *= dz
        np.subtract(e2, dz, out=dz)
        np.sqrt(_guard(dz, 0.0, np.inf), out=dz)
        dz *= 0.5
        return 2.0 * np.arcsinh(dz, out=dz)
    e2 = _coordinate_sum(p, q)
    e2 /= (1.0 + p2) * (1.0 + q2)
    np.sqrt(e2, out=e2)
    return 2.0 * np.arcsin(_guard(e2, 0.0, 1.0), out=e2)


def distance_rowwise(model: AmbientModel, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Distances d(A_i, B_i) for matching rows."""
    if np.shape(A) != np.shape(B):
        raise InvalidInputError("row-wise distance needs equal shapes")
    return distance(model, A, B)


def distance_cross(model: AmbientModel, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Distance matrix d(A_i, B_j) of point rows A (n, dim) and B (m, dim):
    the chord forms of distance on the grid, equal to distance bit for bit in
    every model and independent of the rows per call.  It is the kernel of
    the nearest-set search (_nearest_sup), which keeps each call within
    BLOCK_BYTES of output."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    return _chord_distance(model, A[:, None, :], B[None, :, :])


def _cells(X: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Split the rows of X into chart-coordinate cells of at most size points
    (more only where all of a cell's points coincide): every cell halves at
    the median of its widest coordinate, all cells of a level at once.
    Returns (perm, starts): the row indices grouped cell by cell and the
    offset of each cell in perm.  Neighbouring cells are neighbours in
    space."""
    n = len(X)
    perm, starts = np.arange(n), np.zeros(1, dtype=int)
    while True:
        Xp = X[perm]
        extent = np.maximum.reduceat(Xp, starts) - np.minimum.reduceat(Xp, starts)
        sizes = np.diff(starts, append=n)
        split = (sizes > size) & extent.any(axis=1)
        if not split.any():
            return perm, starts
        cell = np.repeat(np.arange(len(starts)), sizes)
        key = Xp[np.arange(n), extent.argmax(axis=1)[cell]]
        perm = perm[np.lexsort((key, cell))]
        starts = np.sort(np.concatenate([starts, starts[split] + sizes[split] // 2]))


def _row_chunks(rows: np.ndarray, n_cols: int) -> Iterator[np.ndarray]:
    """rows in consecutive pieces of at most BLOCK_BYTES of distance_cross
    output against n_cols columns (at least one row a piece)."""
    step = max(1, BLOCK_BYTES // (8 * max(1, n_cols)))
    for lo in range(0, len(rows), step):
        yield rows[lo:lo + step]


def _balls(model: AmbientModel, X: np.ndarray, cells=None) -> tuple[np.ndarray, ...]:
    """The rows of X (at least one) in cells, as (perm, starts, cell,
    centers, radius): perm and starts, the cell of each entry of perm, and
    per cell the member nearest to its coordinate mean as center and the
    largest distance from the center to a member as radius.  cells is
    (perm, starts) of nonempty cells in the layout of _cells, by default
    _cells of NEAR_CELL points; a caller whose points follow a split it has
    already made, as the fold samples of hausdorff_distance follow the
    table's, passes that one.  Any split keeps a search exact."""
    perm, starts = _cells(X, NEAR_CELL) if cells is None else cells
    sizes = np.diff(starts, append=len(X))
    cell = np.repeat(np.arange(len(starts)), sizes)
    Xp = X[perm]
    off = Xp - (np.add.reduceat(Xp, starts) / sizes[:, None])[cell]
    # per cell, the first entry in perm order at the least squared offset
    r2 = _dot(off, off)
    hit = r2 == np.minimum.reduceat(r2, starts)[cell]
    centers = perm[np.minimum.reduceat(np.where(hit, np.arange(len(X)), len(X)), starts)]
    radius = np.maximum.reduceat(distance(model, Xp, X[centers][cell]), starts)
    return perm, starts, cell, centers, radius


def _nearest_sup(model: AmbientModel, Q: np.ndarray, R: np.ndarray,
                 pair: np.ndarray | None = None, value=None, balls=None) -> float:
    """max over the rows Q_i of their least distance d(Q_i, R_j) to R, or of
    the smaller of that and value(i, j) when value is given.  j is the
    nearest row of R, the first index of the least distance_cross(Q_i, R),
    as argmin over the dense matrix picks it; value takes index arrays.
    pair, if given, names one row of R for each row of Q.  -inf for no rows;
    R must not be empty.  balls, if given, is the query cells (perm and
    starts first) and the _balls of R, for a caller that searches both ways
    between two sets and so splits each set once.

    Exact search on a one-level ball tree (Omohundro 1989): R splits into
    _balls: cells of NEAR_CELL points, each with a member for center c and
    the largest distance from c to a member for radius r.  A row's upper
    bound u is its least distance to a center or to its pair; both are
    entries of its row, so its value is at most u.  Query cells go highest pair
    distance first; a row with u at most the running sup cannot raise it
    and is skipped (Taha & Hanbury 2015).  Every other row is evaluated
    against the cells whose d(q, c) - r is within u plus a rounding margin,
    in ascending column order: by the triangle inequality every other
    column lies above the row's minimum, so the result is that of the dense
    matrix, ties included."""
    if not len(Q):
        return -np.inf
    if balls is None:
        balls = (_cells(Q, NEAR_CELL), _balls(model, R))
    (qperm, qstarts, *_), (perm, _, cell, centers, radius) = balls
    upper = np.full(len(Q), np.inf) if pair is None else distance(model, Q, R[pair])
    qends = np.append(qstarts[1:], len(qperm))
    sup = -np.inf
    for c in np.argsort(-np.maximum.reduceat(upper[qperm], qstarts), kind="stable"):
        rows = qperm[qstarts[c]:qends[c]]
        rows = rows[upper[rows] > sup]
        if not len(rows):
            continue
        dc = np.concatenate([distance_cross(model, Q[part], R[centers])
                             for part in _row_chunks(rows, len(centers))])
        bound = np.minimum(upper[rows], dc.min(axis=1))
        live = bound > sup
        if not live.any():
            continue
        rows, dc, bound = rows[live], dc[live], bound[live]
        near = (dc - radius - bound[:, None] <= NEAR_SLACK * (1.0 + dc)).any(axis=0)
        cols = np.sort(perm[near[cell]])
        for part in _row_chunks(rows, len(cols)):
            D = distance_cross(model, Q[part], R[cols])
            j = D.argmin(axis=1)
            val = D[np.arange(len(part)), j]
            del D  # before the next block's matrix is built
            if value is not None:
                np.minimum(val, value(part, cols[j]), out=val)
            sup = max(sup, float(val.max()))
    return sup


def rho_kappa(kappa: float, r) -> np.ndarray | float:
    """Comparison profile: (1 - cos(r sqrt(k)))/k for k > 0, r^2/2 at k = 0,
    (1 - cosh(r sqrt(-k)))/k for k < 0.  Requires r >= 0."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise InvalidInputError("rho_kappa needs r >= 0")
    if kappa > 0:
        out = (1.0 - np.cos(r * np.sqrt(kappa))) / kappa
    elif kappa < 0:
        out = (1.0 - np.cosh(r * np.sqrt(-kappa))) / kappa
    else:
        out = 0.5 * r * r
    return out if out.shape else float(out)


def alpha_kappa(kappa: float) -> float:
    """Diameter bound pi/sqrt(kappa) for positive kappa, +inf otherwise."""
    if kappa > 0:
        return float(np.pi / np.sqrt(kappa))
    return float("inf")


def geodesic_between(model: AmbientModel, p, q, num: int = 33) -> np.ndarray:
    """num samples, endpoints included, of the connecting geodesics from p to
    q, shape (..., dim) broadcast against each other; shape (..., num, dim).
    A pair with coincident endpoints stays at p; NumericError when any pair is
    antipodal or its geodesic crosses the stereographic pole."""
    p, q = _points(model, p, q)
    if num < 2:
        raise InvalidInputError("need at least two samples")
    t = np.linspace(0.0, 1.0, num)[:, None]
    if model.kind == "euclidean":
        return p[..., None, :] + t * (q - p)[..., None, :]
    d = distance(model, p, q)[..., None, None]
    if model.kind == "spherical" and np.any(d > np.pi - 1e-9):
        raise NumericError("endpoints are antipodal; connecting geodesic not unique")
    embed, cos, sin = ((hyperboloid_embedding, np.cosh, np.sinh) if model.kind == "hyperbolic"
                       else (sphere_embedding, np.cos, np.sin))
    P, Q = embed(p)[..., None, :], embed(q)[..., None, :]
    still = d < 1e-14
    # the great circle / hyperbola through the embedded endpoints; coincident
    # pairs divide 0 by 0 and stay at p below
    with np.errstate(divide="ignore", invalid="ignore"):
        curve = cos(t * d) * P + sin(t * d) * ((Q - cos(d) * P) / sin(d))
        if model.kind == "spherical":
            denom = 1.0 - curve[..., -1:]
            if np.any(~still & (denom < 1e-12)):
                raise NumericError("geodesic passes through the stereographic pole")
            curve /= denom
    return np.where(still, p[..., None, :], curve[..., :-1])
