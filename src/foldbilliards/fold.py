"""Fold hypersurfaces over billiard tables and their curvature.

The fold of a table K = {f >= 0} at thickness lam is the level set

    M = { (x, z) in R^{n+1} : F(x, z) = z^2 - lam^2 f(x) = 0 },

a smooth hypersurface of the ambient model wherever DF != 0 (guaranteed on
{f >= 0} by the regular-boundary assumption).  Its second fundamental form
is h(v, w) = Hess F(v, w) / |grad F|, with the covariant Hessian

    Hess F_ij = D^2 F_ij - Gamma^k_ij  dF_k ,

and sectional curvatures follow from the Gauss equation (do Carmo, Riemannian
Geometry, ch. 6), which in the g-orthonormal tangent basis t of frame_at needs
only the n x n matrix h: for v = a . t and w = b . t,

    sec = kappa_ambient + (h(a,a) h(b,b) - h(a,b)^2) / (|a|^2 |b|^2 - (a.b)^2).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import ambient
from .ambient import AmbientModel, _dot
from .errors import (
    DegeneratePlaneError,
    InvalidInputError,
    OutsideTableError,
    PreconditionError,
    SingularPointError,
)
from .table import (ON_LEVEL_SET_TOL, SINGULAR_GRAD_TOL, LevelSetFrame, TableSpec,
                    sample_boundary_points)

# Curvature sampling stays away from the pinch set by this margin in f.
EDGE_EXCLUSION_F = 1e-6
# sample_table_points: boundary points it steps inward from, and the steps
N_EDGE_POINTS = 24
EDGE_OFFSETS = np.array([1e-6, 1e-5, 1e-4, 1e-3])
# lattice points per axis of check_h_sufficient_conditions
CONDITION_GRID = 24
# hausdorff_distance thins its lattice to at most this many points
HAUSDORFF_MAX_POINTS = 200_000


@dataclass(frozen=True)
class Fold:
    """The fold hypersurface of a table at a fixed thickness lam > 0.

    F and its derivatives take points of shape (..., n + 1)."""

    table: TableSpec
    model: AmbientModel
    lam: float

    def __post_init__(self):
        if not (self.lam > 0) or not np.isfinite(self.lam):
            raise InvalidInputError("fold thickness lam must be positive and finite")
        if self.model.dim != self.table.n + 1:
            raise InvalidInputError("ambient model dimension must be table n + 1")

    def value(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        return q[..., -1] ** 2 - self.lam**2 * self.table.f(q[..., :-1])

    def euclid_grad(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        out = np.empty(q.shape)
        out[..., :-1] = -self.lam**2 * self.table.grad_f(q[..., :-1])
        out[..., -1] = 2.0 * q[..., -1]
        return out

    def euclid_hess(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        out = np.zeros(q.shape + q.shape[-1:])
        out[..., :-1, :-1] = -self.lam**2 * self.table.hess_f(q[..., :-1])
        out[..., -1, -1] = 2.0
        return out


def lift(fold: Fold, x, sign: int = 1) -> np.ndarray:
    """Points (x, sign * lam * sqrt(f(x))) of the fold above the table
    points x, shape (..., n); every point must lie in K n U."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (fold.table.n,):
        raise InvalidInputError("table point has wrong dimension")
    if sign not in (1, -1):
        raise InvalidInputError("sign must be +1 or -1")
    fx = fold.table.f(x)
    if np.any(fx < -1e-12):
        raise OutsideTableError(f"f(x) = {np.min(fx)} < 0; no fold point above x")
    if not np.all(fold.table.region.contains(x)):
        raise OutsideTableError("x lies outside the patch U")
    z = sign * fold.lam * np.sqrt(np.where(fx < 0.0, 0.0, fx))
    return np.concatenate([x, z[..., None]], axis=-1)


def riemannian_hessian(fold: Fold, q: np.ndarray) -> np.ndarray:
    """Covariant Hessian of F at the points q: D^2F_ij - Gamma^k_ij dF_k."""
    df = fold.euclid_grad(q)
    hess = fold.euclid_hess(q)
    if fold.model.kind == "euclidean":
        return hess
    gamma = ambient.christoffel(fold.model, q)
    return hess - np.einsum("...k,...kij->...ij", df, gamma)


def frame_at(fold: Fold, q) -> LevelSetFrame:
    """Normal/tangent frame and second fundamental form of the fold at the
    points q, shape (..., n+1): its tangent basis has shape (..., n, n+1).

    The frame exists where q is on the fold, dF does not vanish and the
    coordinate axes span the tangent space; ``defined`` marks those points
    and the other rows hold no meaningful values.  For a single point
    where the frame does not exist it raises instead.
    """
    q = np.asarray(q, dtype=float)
    if q.shape[-1:] != (fold.model.dim,):
        raise InvalidInputError("fold point has wrong dimension")
    value = fold.value(q)
    df = fold.euclid_grad(q)
    off_fold = np.abs(value) > ON_LEVEL_SET_TOL
    singular = np.sqrt(_dot(df, df)) < SINGULAR_GRAD_TOL
    hessian = riemannian_hessian(fold, q)
    with np.errstate(divide="ignore", invalid="ignore"):
        frame = LevelSetFrame(fold.model, q, df)
        frame.defined = ~off_fold & ~singular & frame.spanned
        tangent = frame.tangent_basis
        h = tangent @ hessian @ tangent.swapaxes(-1, -2) / frame.grad_norm[..., None, None]
    frame.hessian, frame.h = hessian, 0.5 * (h + h.swapaxes(-1, -2))
    if q.ndim == 1:
        if off_fold:
            raise PreconditionError(f"q is not on the fold: F(q) = {value}")
        if singular:
            raise SingularPointError("defining gradient vanishes at q")
        if not frame.spanned:
            raise SingularPointError("could not build a tangent basis")
    return frame


def second_fundamental_form(fold: Fold, q, v, w) -> float:
    """h(v, w) = Hess F(v, w) / |grad F| for tangent vectors v, w at q."""
    frame = frame_at(fold, np.asarray(q, dtype=float))
    return float(np.asarray(v) @ frame.hessian @ np.asarray(w) / frame.grad_norm)


def _coordinate_dot(u, v):
    """sum_k u[k] v[k] over the first axis (v may be any iterable), as one
    product and one sum per coordinate in order, like
    ambient._coordinate_sum: no BLAS call, so one point rounds as its row
    of a batch does."""
    terms = (uk * vk for uk, vk in zip(u, v))
    out = next(terms)
    for term in terms:
        out += term
    return out


def _gauss_equation(h, kappa_ambient: float, a, b):
    """Sectional curvatures of the planes span{a . t, b . t}, for coefficient
    vectors a, b of shape (n, ...), coordinate axis first, in a
    g-orthonormal tangent basis t with second fundamental form h of shape
    (..., n, n), and their Gram determinants; h broadcasts against a[0] and
    b[0].  The dots and the products h a and h b are formed one coordinate
    at a time (_coordinate_dot), so a point of the scan and the same point
    in sectional_curvature get the same bits."""
    h = np.moveaxis(h, (-2, -1), (0, 1))
    ab = _coordinate_dot(a, b)
    gram = _coordinate_dot(a, a) * _coordinate_dot(b, b) - ab * ab
    hbb = _coordinate_dot(b, (_coordinate_dot(row, b) for row in h))
    ha = [_coordinate_dot(row, a) for row in h]
    haa, hab = _coordinate_dot(a, ha), _coordinate_dot(b, ha)
    with np.errstate(divide="ignore", invalid="ignore"):
        return kappa_ambient + (haa * hbb - hab * hab) / gram, gram


def sectional_curvature(fold: Fold, q, v, w) -> float:
    """Sectional curvature of the fold at q for the plane span{v, w}.

    v and w must be tangent: |dF . v| <= 1e-8 (scaled by |v|).
    """
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    frame = frame_at(fold, q)
    df = fold.euclid_grad(q)
    for vec, label in ((v, "v"), (w, "w")):
        scale = max(1.0, float(np.linalg.norm(vec)))
        if abs(df @ vec) > 1e-8 * scale * max(1.0, frame.grad_norm):
            raise PreconditionError(f"{label} is not tangent to the fold")
    tg = frame.tangent_basis @ frame.metric.g   # coefficients a_i = g(t_i, v)
    sec, gram = _gauss_equation(frame.h, fold.model.kappa, tg @ v, tg @ w)
    if gram < 1e-12:
        raise DegeneratePlaneError("tangent vectors do not span a 2-plane")
    return float(sec)


@dataclass
class CurvatureScanReport:
    """Result of sampling sectional curvatures over a family of folds."""

    table_name: str
    model_kind: str
    kappa: float
    tol: float
    lambdas: list[float]
    min_sec_per_lambda: list[float]
    min_sec: float
    argmin_lambda: float
    argmin_point: list[float]
    argmin_plane: list[list[float]]
    n_samples: int
    n_skipped: int
    verdict: str                      # "certified" | "violated" | "inconclusive"
    boundary_clause: str = "unverified"   # behavior of (H) across the dU edge

    def to_dict(self) -> dict:
        d = asdict(self)
        d["table"], d["model"] = d.pop("table_name"), d.pop("model_kind")
        return d


def check_grid(values, lo: float, hi: float, decreasing: bool = True,
               name: str = "values") -> list[float]:
    """values as floats when they are a nonempty list of finite numbers in
    the open interval (lo, hi), strictly decreasing if asked; else
    InvalidInputError naming the list, or the entry at fault."""
    out = [float(v) for v in values]
    if not out:
        raise InvalidInputError(f"{name}: expected a nonempty list of numbers")
    for i, v in enumerate(out):
        if not np.isfinite(v):
            raise InvalidInputError(f"{name}[{i}]: must be finite")
        if not v > lo:
            raise InvalidInputError(f"{name}[{i}]: must be > {lo:g}")
    if any(not v < hi for v in out):
        raise InvalidInputError(f"{name}: values must lie in ({lo:g}, {hi:g})")
    if decreasing and any(b >= a for a, b in zip(out, out[1:])):
        raise InvalidInputError(f"{name}: values must be strictly decreasing")
    return out


def _lattice(table: TableSpec, n_grid: int) -> np.ndarray:
    """The n_grid^n lattice over the bounding box of the patch, centered on
    it, as rows in C order, restricted to the patch."""
    c = np.asarray(table.region.center)
    r = table.region.radius
    axes = [np.linspace(ci - r, ci + r, n_grid) for ci in c]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, table.n)
    return mesh[table.region.contains_many(mesh)]


def sample_table_points(table: TableSpec, n_grid: int, seed: int = 0) -> np.ndarray:
    """Lattice points of K n U with f > EDGE_EXCLUSION_F plus stratified
    near-boundary points: N_EDGE_POINTS sampled boundary points stepped
    inward along the Euclidean gradient direction by each of EDGE_OFFSETS."""
    lattice = _lattice(table, n_grid)
    pts = [lattice[table.f(lattice) > EDGE_EXCLUSION_F]]

    try:
        bpts = sample_boundary_points(table, ambient.AmbientModel("euclidean", table.n + 1),
                                      N_EDGE_POINTS, seed=seed)
    except PreconditionError:
        bpts = np.empty((0, table.n))
    # sampled boundary points are regular: |Df| >= 1e-6
    df = table.grad_f(bpts)
    steps = df / np.sqrt(_dot(df, df))[:, None]
    near = (bpts[:, None, :] + EDGE_OFFSETS[:, None] * steps[:, None, :]).reshape(-1, table.n)
    pts.append(near[table.region.contains(near) & (table.f(near) > EDGE_EXCLUSION_F)])
    out = np.concatenate(pts, axis=0)
    if len(out) == 0:
        raise PreconditionError("no sample points found in K n U")
    return out


def _scan_one_lambda(fold: Fold, points: np.ndarray, n_random_planes: int,
                     seed: int) -> tuple[float, np.ndarray | None, np.ndarray | None, int, int]:
    """Minimum sampled sectional curvature of one fold, its point and plane,
    and the counts of evaluated and skipped samples.

    Frames run over (point, sheet) in order: sample_table_points keeps only
    f > EDGE_EXCLUSION_F, so both sheets lie away from the pinch.  Each
    frame tests its tangent basis pairs, then random pairs drawn in frame
    order, as coefficient vectors in its g-orthonormal tangent basis (the
    random ones orthonormal in R^n); the first minimum wins."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, int(1e6 * fold.lam)]))
    n = fold.table.n
    q = np.stack([lift(fold, points, 1), lift(fold, points, -1)], axis=1).reshape(-1, n + 1)
    frame = frame_at(fold, q)
    ok = frame.defined
    n_skip = int(np.count_nonzero(~ok))
    q, tangent, h = frame.x, frame.tangent_basis, frame.h
    if n_skip:
        q, tangent, h = q[ok], tangent[ok], h[ok]

    # random planes as orthonormal pairs: near-parallel spans amplify
    # roundoff in the Gauss-equation numerator
    normals = rng.normal(size=(len(q), n_random_planes, 2, n))
    a, b = normals[:, :, 0], normals[:, :, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = a / np.sqrt(_dot(a, a))[..., None]
        b = b - _dot(b, a)[..., None] * a
        nb = np.sqrt(_dot(b, b))
        b = b / nb[..., None]
    # coefficient vectors with the coordinate axis first, (n, frames, planes)
    i, j = np.triu_indices(n, 1)
    basis = np.broadcast_to(np.eye(n)[:, None], (n, len(q), n))
    v = np.concatenate([basis[..., i], np.moveaxis(a, -1, 0)], axis=2)
    w = np.concatenate([basis[..., j], np.moveaxis(b, -1, 0)], axis=2)
    planes = np.concatenate([np.ones((len(q), len(i)), dtype=bool), ~(nb < 1e-8)], axis=1)

    sec, gram = _gauss_equation(h[:, None], fold.model.kappa, v, w)
    flat = gram < 1e-12
    n_skip += int(np.count_nonzero(planes & flat))
    evaluated = planes & ~flat
    n_eval = int(np.count_nonzero(evaluated))
    sec = np.where(evaluated & ~np.isnan(sec), sec, np.inf)
    best = float(sec.min(initial=np.inf))
    if not best < np.inf:
        return best, None, None, n_eval, n_skip
    k, p = np.unravel_index(np.argmin(sec), sec.shape)
    return best, q[k], np.array([v[:, k, p], w[:, k, p]]) @ tangent[k], n_eval, n_skip


def scan_curvature(table: TableSpec, model: AmbientModel, lambdas, kappa: float,
                   n_grid: int = 24, n_random_planes: int = 8, seed: int = 0,
                   tol: float = 1e-6) -> CurvatureScanReport:
    """Sample sectional curvatures of the folds at each lam and compare the
    minimum against the declared lower bound kappa.

    Verdicts: "certified" when every sampled value is >= kappa - tol,
    "violated" when some sample dips below, "inconclusive" when any fold
    produced no valid sample.  Certification is sampled evidence over the
    interior of K n U; behavior at the edge dU is reported as unverified.
    Each lam is one batch: all its frames and planes are evaluated at once.
    """
    lambdas = check_grid(lambdas, 0.0, np.inf, decreasing=False, name="lambdas")
    points = sample_table_points(table, n_grid, seed=seed)
    results = [_scan_one_lambda(Fold(table, model, l), points, n_random_planes, seed)
               for l in lambdas]

    mins = [r[0] for r in results]
    n_samples = sum(r[3] for r in results)
    n_skipped = sum(r[4] for r in results)
    empty = any(not np.isfinite(m) for m in mins)
    overall = float(min(mins))
    k_best = int(np.argmin(mins))
    if empty:
        verdict = "inconclusive"
    elif overall < kappa - tol:
        verdict = "violated"
    else:
        verdict = "certified"
    best_q = results[k_best][1]
    best_plane = results[k_best][2]
    return CurvatureScanReport(
        table_name=table.name, model_kind=model.kind, kappa=kappa, tol=tol,
        lambdas=lambdas, min_sec_per_lambda=[float(m) for m in mins],
        min_sec=overall, argmin_lambda=lambdas[k_best],
        argmin_point=[] if best_q is None else [float(v) for v in best_q],
        argmin_plane=[] if best_plane is None else [[float(v) for v in row] for row in best_plane],
        n_samples=n_samples, n_skipped=n_skipped, verdict=verdict)


@dataclass
class SufficientConditionReport:
    """Outcome of the closed-form lower-bound conditions on f."""

    model_kind: str
    max_hess_eigenvalue: float
    min_concavity_defect: float     # min of 2 f - x . Df (hyperbolic clause)
    hess_ok: bool
    defect_ok: bool
    passed: bool


def check_h_sufficient_conditions(table: TableSpec,
                                  model: AmbientModel) -> SufficientConditionReport:
    """Check the closed-form conditions under which the fold family has a
    uniform curvature lower bound: D^2 f <= 0 everywhere on K n U, and for
    the hyperbolic model additionally 2 f - x . Df >= 0, on
    sample_table_points at CONDITION_GRID."""
    if model.kind == "spherical":
        raise PreconditionError("no closed-form sufficient condition for the spherical model")
    pts = sample_table_points(table, CONDITION_GRID)
    max_eig = float(np.linalg.eigvalsh(table.hess_f(pts))[:, -1].max())
    min_defect = float((2.0 * table.f(pts) - _dot(pts, table.grad_f(pts))).min())
    hess_ok = max_eig <= 1e-9
    defect_ok = min_defect >= -1e-9
    passed = hess_ok and (defect_ok if model.kind == "hyperbolic" else True)
    return SufficientConditionReport(
        model_kind=model.kind, max_hess_eigenvalue=max_eig,
        min_concavity_defect=min_defect, hess_ok=hess_ok,
        defect_ok=defect_ok, passed=passed)


@dataclass
class HausdorffResult:
    """Sampled one-sided sup-distances between the fold and the table."""

    lam: float
    sup_fold_to_table: float
    sup_table_to_fold: float
    d_max: float          # max sqrt(f) over the sampled table
    c_model: float        # metric comparison constant of the sample region
    n_fold_samples: int
    n_table_samples: int

    @property
    def bound(self) -> float:
        return self.d_max * self.lam * self.c_model


def _table_samples(table: TableSpec, n_grid: int) -> tuple[np.ndarray, np.ndarray]:
    """The table samples of hausdorff_distance, as points (x, 0), and f on
    them."""
    # the next odd count per axis, or the largest odd one within
    # HAUSDORFF_MAX_POINTS if that is smaller
    n_grid = min(n_grid | 1, (int(HAUSDORFF_MAX_POINTS ** (1.0 / table.n)) - 1) | 1)
    lattice = _lattice(table, n_grid)
    f = table.f(lattice)
    tbl, fvals = lattice[f >= 0.0], f[f >= 0.0]
    if len(tbl) == 0:
        raise PreconditionError("empty table sample; patch and table do not intersect")
    return np.concatenate([tbl, np.zeros((len(tbl), 1))], axis=1), fvals


def _eig_max(model: AmbientModel, X: np.ndarray) -> float:
    """The largest eigenvalue of the metric over the rows of X: 1 in the
    hyperbolic model, whose metric I - x x^T / (1 + |x|^2) has eigenvalues 1
    and 1 / (1 + |x|^2); in the others the metric is c I, with c falling as
    |x|^2 grows, so c at the row of least |x|^2 (as metric_tensor rounds it)."""
    if model.kind == "hyperbolic":
        return 1.0
    i = np.argmin(_dot(X, X))
    return ambient.metric_many(model, X[i:i + 1])[0, 0, 0]


def _hausdorff_samples(lam: float, table_pts: np.ndarray, fvals: np.ndarray):
    """The fold samples of hausdorff_distance at lam over the table samples
    table_pts, f on them fvals, and the footpoint of each: the index of the
    table sample below it.  The upper lifts of the table samples come first,
    in their order, then the lower lifts of those with z > 0."""
    tbl = table_pts[:, :-1]
    z = lam * np.sqrt(np.maximum(fvals, 0.0))
    fold_pts = np.concatenate([
        np.concatenate([tbl, z[:, None]], axis=1),
        np.concatenate([tbl[z > 0], -z[z > 0, None]], axis=1),
    ], axis=0)
    foot = np.concatenate([np.arange(len(tbl)), np.flatnonzero(z > 0)])
    return fold_pts, foot


def _lifted_cells(perm: np.ndarray, starts: np.ndarray,
                  foot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The fold samples in cells that follow the split (perm, starts) of the
    table samples: the upper lifts of each table cell form one cell, and its
    lower lifts, if any, another; all upper cells come first.  foot is that
    of _hausdorff_samples.  Returns (perm, starts) over the fold samples, as
    ambient._cells does."""
    n = len(perm)
    lower = np.full(n, -1)
    lower[foot[n:]] = np.arange(n, len(foot))
    low = lower[perm]
    has = low >= 0
    counts = np.add.reduceat(has.astype(int), starts)
    first = n + np.cumsum(counts) - counts
    return np.concatenate([perm, low[has]]), np.concatenate([starts, first[counts > 0]])


def hausdorff_distance(table: TableSpec, model: AmbientModel, lambdas,
                       n_grid: int = 121) -> list[HausdorffResult]:
    """Estimate both one-sided Hausdorff distances between K n U and the fold
    at each lam of lambdas (as subsets of model) on matching lattice grids.

    The fold samples are the lifts (both signs) of the table grid, so each
    fold point has its own footpoint among the table samples and the
    estimates are grid-consistent.  n_grid is points per axis, made odd and
    thinned to at most HAUSDORFF_MAX_POINTS; the lattice is centered on the
    patch so the center is always sampled.

    Each side is one exact nearest-set search (ambient._nearest_sup) that
    shares the bounding balls of both sample sets with the other side and
    starts from a known pair: a fold sample's footpoint, a table sample's
    upper lift.  A sample no farther from that pair than the running sup
    cannot raise it and is skipped, so most of the N x M pairs are never
    evaluated; the sups equal those of the full distance matrix, and memory
    stays bounded by ambient.BLOCK_BYTES.

    The table side (samples, f on them, their balls and the metric maximum)
    does not depend on lam and is built once for the family.  Each lam's
    fold samples are split along the table's cells (_lifted_cells), so no
    lam splits a sample set.
    """
    lambdas = check_grid(lambdas, 0.0, np.inf, decreasing=False, name="lambdas")
    folds = [Fold(table, model, lam) for lam in lambdas]
    table_pts, fvals = _table_samples(table, n_grid)
    table_balls = ambient._balls(model, table_pts)
    table_eig = _eig_max(model, table_pts)
    results = []
    for fold in folds:
        fold_pts, foot = _hausdorff_samples(fold.lam, table_pts, fvals)
        fold_balls = ambient._balls(model, fold_pts, cells=_lifted_cells(*table_balls[:2], foot))
        sup_fold = ambient._nearest_sup(model, fold_pts, table_pts, pair=foot,
                                        balls=(fold_balls, table_balls))
        sup_table = ambient._nearest_sup(model, table_pts, fold_pts,
                                         pair=np.arange(len(table_pts)),
                                         balls=(table_balls, fold_balls))
        eig_max = max(_eig_max(model, fold_pts), table_eig)
        results.append(HausdorffResult(
            lam=fold.lam, sup_fold_to_table=sup_fold, sup_table_to_fold=sup_table,
            d_max=float(np.sqrt(fvals.max())), c_model=float(np.sqrt(eig_max)),
            n_fold_samples=len(fold_pts), n_table_samples=len(table_pts)))
    return results
