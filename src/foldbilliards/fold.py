"""Fold hypersurfaces over billiard tables and their curvature.

The fold of a table K = {f >= 0} at thickness lam is the level set

    M = { (x, z) in R^{n+1} : F(x, z) = z^2 - lam^2 f(x) = 0 },

a smooth hypersurface of the ambient model wherever DF != 0 (guaranteed on
{f >= 0} by the regular-boundary assumption).  Its second fundamental form
is h(v, w) = Hess F(v, w) / |grad F|, with the covariant Hessian

    Hess F_ij = D^2 F_ij - Gamma^k_ij  dF_k ,

and sectional curvatures follow from the Gauss equation

    sec(v, w) = kappa_ambient + (h(v,v) h(w,w) - h(v,w)^2) / gram(v, w).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import ambient
from .ambient import AmbientModel
from .errors import (
    ConfigError,
    DegeneratePlaneError,
    InvalidInputError,
    OutsideTableError,
    PreconditionError,
    SingularPointError,
)
from .table import TableSpec, _orthonormal_complement

ON_FOLD_TOL = 1e-8
SINGULAR_GRAD_TOL = 1e-10
# Curvature sampling stays away from the pinch set by this margin in f.
EDGE_EXCLUSION_F = 1e-6


@dataclass(frozen=True)
class Fold:
    """The fold hypersurface of a table at a fixed thickness lam > 0."""

    table: TableSpec
    model: AmbientModel
    lam: float

    def __post_init__(self):
        if not (self.lam > 0) or not np.isfinite(self.lam):
            raise InvalidInputError("fold thickness lam must be positive and finite")
        if self.model.dim != self.table.n + 1:
            raise InvalidInputError("ambient model dimension must be table n + 1")

    def value(self, q: np.ndarray) -> float:
        q = np.asarray(q, dtype=float)
        return float(q[-1] ** 2 - self.lam**2 * self.table.f(q[:-1]))

    def euclid_grad(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        out = np.empty(len(q))
        out[:-1] = -self.lam**2 * self.table.grad_f(q[:-1])
        out[-1] = 2.0 * q[-1]
        return out

    def euclid_hess(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        d = len(q)
        out = np.zeros((d, d))
        out[:-1, :-1] = -self.lam**2 * self.table.hess_f(q[:-1])
        out[-1, -1] = 2.0
        return out


@dataclass
class FoldPointFrame:
    """Differential data of the fold at one of its points."""

    q: np.ndarray
    grad_F: np.ndarray          # ambient Riemannian gradient g^{-1} dF
    grad_norm: float            # |grad F| in the ambient metric
    unit_normal: np.ndarray
    tangent_basis: np.ndarray   # (n, n+1), g-orthonormal
    h: np.ndarray               # second fundamental form in tangent_basis
    hessian: np.ndarray         # covariant Hessian of F (full ambient matrix)
    metric: ambient.MetricAt


def lift(fold: Fold, x, sign: int = 1) -> np.ndarray:
    """Point (x, sign * lam * sqrt(f(x))) of the fold above a table point."""
    x = np.asarray(x, dtype=float)
    if x.shape != (fold.table.n,):
        raise InvalidInputError("table point has wrong dimension")
    if sign not in (1, -1):
        raise InvalidInputError("sign must be +1 or -1")
    fx = fold.table.f(x)
    if fx < -1e-12:
        raise OutsideTableError(f"f(x) = {fx} < 0; no fold point above x")
    if not fold.table.region.contains(x):
        raise OutsideTableError("x lies outside the patch U")
    return np.concatenate([x, [sign * fold.lam * np.sqrt(max(fx, 0.0))]])


def riemannian_hessian(fold: Fold, q: np.ndarray) -> np.ndarray:
    """Covariant Hessian of F at q: D^2F_ij - Gamma^k_ij dF_k."""
    df = fold.euclid_grad(q)
    hess = fold.euclid_hess(q)
    if fold.model.kind == "euclidean":
        return hess
    gamma = ambient.christoffel(fold.model, q)
    return hess - np.einsum("k,kij->ij", df, gamma)


def frame_at(fold: Fold, q) -> FoldPointFrame:
    """Normal/tangent frame and second fundamental form of the fold at q."""
    q = np.asarray(q, dtype=float)
    if q.shape != (fold.model.dim,):
        raise InvalidInputError("fold point has wrong dimension")
    if abs(fold.value(q)) > ON_FOLD_TOL:
        raise PreconditionError(f"q is not on the fold: F(q) = {fold.value(q)}")
    df = fold.euclid_grad(q)
    if np.linalg.norm(df) < SINGULAR_GRAD_TOL:
        raise SingularPointError("defining gradient vanishes at q")
    metric = ambient.metric_tensor(fold.model, q)
    grad_F = metric.g_inv @ df
    grad_norm2 = float(df @ grad_F)
    grad_norm = float(np.sqrt(grad_norm2))
    unit_normal = grad_F / grad_norm

    hess = riemannian_hessian(fold, q)

    tangent = _orthonormal_complement(metric.g, unit_normal, grad_F)
    if tangent is None:
        raise SingularPointError("could not build a tangent basis")
    h = tangent @ hess @ tangent.T / grad_norm
    h = 0.5 * (h + h.T)
    return FoldPointFrame(q=q, grad_F=grad_F, grad_norm=grad_norm,
                          unit_normal=unit_normal, tangent_basis=tangent,
                          h=h, hessian=hess, metric=metric)


def second_fundamental_form(fold: Fold, q, v, w) -> float:
    """h(v, w) = Hess F(v, w) / |grad F| for tangent vectors v, w at q."""
    frame = frame_at(fold, np.asarray(q, dtype=float))
    return float(np.asarray(v) @ frame.hessian @ np.asarray(w) / frame.grad_norm)


def _sectional_from_frame(frame: FoldPointFrame, kappa_ambient: float,
                          v: np.ndarray, w: np.ndarray) -> float:
    g = frame.metric.g
    gvv = v @ g @ v
    gww = w @ g @ w
    gvw = v @ g @ w
    gram = gvv * gww - gvw * gvw
    if gram < 1e-12:
        raise DegeneratePlaneError("tangent vectors do not span a 2-plane")
    hv = frame.hessian @ v
    hvv = (v @ hv) / frame.grad_norm
    hvw = (w @ hv) / frame.grad_norm
    hww = (w @ frame.hessian @ w) / frame.grad_norm
    return float(kappa_ambient + (hvv * hww - hvw * hvw) / gram)


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
    return _sectional_from_frame(frame, fold.model.kappa, v, w)


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
        return {
            "table": self.table_name,
            "model": self.model_kind,
            "kappa": self.kappa,
            "tol": self.tol,
            "lambdas": self.lambdas,
            "min_sec_per_lambda": self.min_sec_per_lambda,
            "min_sec": self.min_sec,
            "argmin_lambda": self.argmin_lambda,
            "argmin_point": self.argmin_point,
            "argmin_plane": self.argmin_plane,
            "n_samples": self.n_samples,
            "n_skipped": self.n_skipped,
            "verdict": self.verdict,
            "boundary_clause": self.boundary_clause,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def sample_table_points(table: TableSpec, n_grid: int, seed: int = 0,
                        edge_offsets=(1e-6, 1e-5, 1e-4, 1e-3),
                        n_boundary: int = 24) -> np.ndarray:
    """Interior grid points of K n U with f > edge margin plus stratified
    near-boundary points obtained by stepping inward from sampled boundary
    points along the Euclidean gradient direction."""
    c = np.asarray(table.region.center)
    r = table.region.radius
    axes = [np.linspace(ci - r, ci + r, n_grid) for ci in c]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, table.n)
    keep = table.region.contains_many(mesh) & (table.f_many(mesh) > EDGE_EXCLUSION_F)
    pts = [mesh[keep]]

    from .table import sample_boundary_points
    try:
        bpts = sample_boundary_points(table, ambient.AmbientModel("euclidean", table.n + 1),
                                      n_boundary, seed=seed)
    except ConfigError:
        bpts = np.empty((0, table.n))
    near = []
    for x0 in bpts:
        df = table.grad_f(x0)
        nrm = np.linalg.norm(df)
        if nrm < 1e-10:
            continue
        d = df / nrm
        for off in edge_offsets:
            x = x0 + off * d
            if table.region.contains(x) and table.f(x) > EDGE_EXCLUSION_F:
                near.append(x)
    if near:
        pts.append(np.array(near))
    out = np.concatenate(pts, axis=0)
    if len(out) == 0:
        raise ConfigError("no sample points found in K n U")
    return out


def _scan_one_lambda(fold: Fold, points: np.ndarray, n_random_planes: int,
                     seed: int) -> tuple[float, np.ndarray | None, np.ndarray | None, int, int]:
    rng = np.random.default_rng(np.random.SeedSequence([seed, int(1e6 * fold.lam)]))
    best = np.inf
    best_q = None
    best_plane = None
    n_eval = 0
    n_skip = 0
    kap = fold.model.kappa
    n = fold.table.n
    for x in points:
        for sign in (1, -1):
            if sign == -1 and fold.table.f(x) <= EDGE_EXCLUSION_F:
                continue
            try:
                q = lift(fold, x, sign)
                frame = frame_at(fold, q)
            except (OutsideTableError, SingularPointError, PreconditionError):
                n_skip += 1
                continue
            planes = []
            for i in range(n):
                for j in range(i + 1, n):
                    planes.append((frame.tangent_basis[i], frame.tangent_basis[j]))
            g = frame.metric.g
            for _ in range(n_random_planes):
                # random planes as g-orthonormal pairs: near-parallel spans
                # amplify roundoff in the Gauss-equation numerator
                a = rng.normal(size=n) @ frame.tangent_basis
                a = a / np.sqrt(a @ g @ a)
                b = rng.normal(size=n) @ frame.tangent_basis
                b = b - (b @ g @ a) * a
                nb = np.sqrt(b @ g @ b)
                if nb < 1e-8:
                    continue
                planes.append((a, b / nb))
            for v, w in planes:
                try:
                    sec = _sectional_from_frame(frame, kap, v, w)
                except DegeneratePlaneError:
                    n_skip += 1
                    continue
                n_eval += 1
                if sec < best:
                    best = sec
                    best_q = q
                    best_plane = np.array([v, w])
    return best, best_q, best_plane, n_eval, n_skip


def scan_curvature(table: TableSpec, model: AmbientModel, lambdas, kappa: float,
                   n_grid: int = 24, n_random_planes: int = 8, seed: int = 0,
                   tol: float = 1e-6, workers: int = 1) -> CurvatureScanReport:
    """Sample sectional curvatures of the folds at each lam and compare the
    minimum against the declared lower bound kappa.

    Verdicts: "certified" when every sampled value is >= kappa - tol,
    "violated" when some sample dips below, "inconclusive" when any fold
    produced no valid sample.  Certification is sampled evidence over the
    interior of K n U; behavior at the edge dU is reported as unverified.
    """
    lambdas = [float(l) for l in lambdas]
    if not lambdas or any(l <= 0 for l in lambdas):
        raise ConfigError("lambda grid must be nonempty and positive")
    points = sample_table_points(table, n_grid, seed=seed)
    folds = [Fold(table, model, l) for l in lambdas]
    jobs = [(f, points, n_random_planes, seed) for f in folds]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_scan_one_lambda_star, jobs))
    else:
        results = [_scan_one_lambda(*j) for j in jobs]

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


def _scan_one_lambda_star(args):
    return _scan_one_lambda(*args)


@dataclass
class SufficientConditionReport:
    """Outcome of the closed-form lower-bound conditions on f."""

    model_kind: str
    max_hess_eigenvalue: float
    min_concavity_defect: float     # min of 2 f - x . Df (hyperbolic clause)
    hess_ok: bool
    defect_ok: bool
    passed: bool


def check_h_sufficient_conditions(table: TableSpec, model: AmbientModel,
                                  n_grid: int = 24, seed: int = 0) -> SufficientConditionReport:
    """Check the closed-form conditions under which the fold family has a
    uniform curvature lower bound: D^2 f <= 0 everywhere on K n U, and for
    the hyperbolic model additionally 2 f - x . Df >= 0."""
    if model.kind == "spherical":
        raise PreconditionError("no closed-form sufficient condition for the spherical model")
    pts = sample_table_points(table, n_grid, seed=seed)
    max_eig = -np.inf
    min_defect = np.inf
    for x in pts:
        eigs = np.linalg.eigvalsh(table.hess_f(x))
        max_eig = max(max_eig, float(eigs[-1]))
        min_defect = min(min_defect, float(2.0 * table.f(x) - x @ table.grad_f(x)))
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


def _hausdorff_samples(fold: Fold, n_grid: int, max_points: int):
    """Fold and table sample points of hausdorff_distance, plus f on the
    table samples."""
    table = fold.table
    if n_grid % 2 == 0:
        n_grid += 1
    if n_grid**table.n > max_points:
        n_grid = int(max_points ** (1.0 / table.n))
        if n_grid % 2 == 0:
            n_grid -= 1
    c = np.asarray(table.region.center)
    r = table.region.radius
    axes = [np.linspace(ci - r, ci + r, n_grid) for ci in c]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, table.n)
    keep = table.region.contains_many(mesh) & (table.f_many(mesh) >= 0.0)
    tbl = mesh[keep]
    if len(tbl) == 0:
        raise ConfigError("empty table sample; patch and table do not intersect")
    fvals = table.f_many(tbl)
    z = fold.lam * np.sqrt(np.maximum(fvals, 0.0))
    table_pts = np.concatenate([tbl, np.zeros((len(tbl), 1))], axis=1)
    fold_pts = np.concatenate([
        np.concatenate([tbl, z[:, None]], axis=1),
        np.concatenate([tbl[z > 0], -z[z > 0, None]], axis=1),
    ], axis=0)
    return fold_pts, table_pts, fvals


def hausdorff_distance(fold: Fold, n_grid: int = 121,
                       max_points: int = 200_000) -> HausdorffResult:
    """Estimate both one-sided Hausdorff distances between the fold and
    K n U (as subsets of the ambient model) on matching lattice grids.

    The fold samples are the lifts (both signs) of the table grid, so each
    fold point has its own footpoint among the table samples and the
    estimates are grid-consistent.  n_grid is points per axis; the lattice
    is centered on the patch so the center is always sampled.

    The fold samples stream through ambient.distance_blocks, keeping the
    running max of the row minima and the running column minima, so memory
    depends on the block size and not on the N x M sample product;
    max_points only bounds the time.
    """
    fold_pts, table_pts, fvals = _hausdorff_samples(fold, n_grid, max_points)
    sup_fold = -np.inf
    col_min = np.full(len(table_pts), np.inf)
    for _, dist in ambient.distance_blocks(fold.model, fold_pts, table_pts):
        sup_fold = np.maximum(sup_fold, dist.min(axis=1).max())
        np.minimum(col_min, dist.min(axis=0), out=col_min)

    gs = ambient.metric_many(fold.model, np.concatenate([fold_pts, table_pts]))
    eig_max = np.linalg.eigvalsh(gs)[:, -1].max()
    return HausdorffResult(
        lam=fold.lam, sup_fold_to_table=float(sup_fold),
        sup_table_to_fold=float(col_min.max()),
        d_max=float(np.sqrt(fvals.max())), c_model=float(np.sqrt(eig_max)),
        n_fold_samples=len(fold_pts), n_table_samples=len(table_pts))
