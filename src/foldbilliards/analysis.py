"""Quasigeodesic checks and convergence experiments.

The comparison test: a unit-speed curve c in a table with curvature bounded
below by kappa is a quasigeodesic when, for every admissible reference
point p, the profile f_p(t) = rho_kappa(d_g(p, c(t))) satisfies the barrier
inequality f_p'' <= 1 - kappa f_p.  On a uniform grid the second difference
makes this testable directly, and it is one-sided-safe at billiard bounces:
a bounce is a concave kink of f_p, which pushes the second difference
toward minus infinity rather than violating the bound.

Two experiment harnesses build on it: fold geodesics projected to the table
against the limiting billiard trajectory (lam -> 0), and shallow billiards
against the boundary geodesic (incidence angle -> 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from . import ambient
from .ambient import AmbientModel, _dot
from .errors import InvalidInputError, PreconditionError
from .table import (
    TableSpec,
    boundary_frame,
    model_on_table,
    _interior_anchor,
)
from .fold import Fold, check_grid, check_h_sufficient_conditions, scan_curvature
from .dynamics import (
    SampledCurve,
    _grid,
    billiard_trajectory,
    integrate_boundary_geodesic,
    integrate_fold_geodesic,
    integrate_table_geodesic,
)

TOL_QG_FACTOR = 10.0
VISIBILITY_F_TOL = 1e-6
# curve samples whose sight lines _visible checks
VISIBILITY_CHECKS = 256
MIN_REFERENCE_DISTANCE = 1e-9
# reference_points_for_table: fan and random points kept, and their least f
N_FAN_REFERENCES = 8
N_RANDOM_REFERENCES = 8
REFERENCE_MARGIN_F = 0.02
DEFAULT_KAPPA = {"euclidean": 0.0, "hyperbolic": -1.0, "spherical": 1.0}
# fold_convergence_experiment's direction needs a vertical component above this
MIN_DIRECTION_VERTICAL = 1e-9


# --------------------------------------------------------------------------
# quasigeodesic residual


@dataclass
class QuasigeodesicReport:
    """Worst violation of the discrete barrier inequality over a point set."""

    kappa: float
    tol: float
    n_curve_samples: int
    n_reference_points: int
    n_used: int
    visibility_failures: int
    rejected_points: int
    max_residual: float
    residual_per_point: list[float]
    worst_point: list[float]
    worst_time: float
    verdict: str

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return asdict(self)


def _uniform_dt(times: np.ndarray) -> float:
    if len(times) < 3:
        raise InvalidInputError("need at least three samples for second differences")
    steps = np.diff(times)
    dt = float(steps.mean())
    if np.abs(steps - dt).max() > 1e-9 * max(1.0, abs(dt)):
        raise InvalidInputError("curve is not sampled on a uniform grid")
    return dt


def _visible(model: AmbientModel, table: TableSpec, refs: np.ndarray,
             pts: np.ndarray) -> np.ndarray:
    """Per reference point, whether the connecting model geodesics to the
    curve stay in K (f >= -VISIBILITY_F_TOL along them), checked on
    VISIBILITY_CHECKS curve samples; one geodesic_between call per block of
    references within ambient.BLOCK_BYTES of chain samples."""
    m = len(pts)
    q = pts[np.unique(np.linspace(0, m - 1, min(m, VISIBILITY_CHECKS)).astype(int))]
    out = [table.f(ambient.geodesic_between(model, block[:, None], q, 11)[..., 1:-1, :])
           .min(axis=(1, 2)) >= -VISIBILITY_F_TOL
           for block in ambient._row_chunks(refs, 11 * q.size)]
    return np.concatenate([np.zeros(0, dtype=bool), *out])


def quasigeodesic_residual(curve: SampledCurve, model: AmbientModel,
                           table: TableSpec | None, kappa: float,
                           reference_points, tol: float | None = None) -> QuasigeodesicReport:
    """Test the barrier inequality along the curve against reference points.

    model is the geometry of the curve (dimension of its points).  When a
    table is given, reference points whose sight lines leave the table are
    counted and skipped; points on the curve or beyond the comparison
    diameter are rejected.  The verdict is pass when the largest residual

        (f_p(t-dt) - 2 f_p(t) + f_p(t+dt)) / dt^2 - (1 - kappa f_p(t))

    over used points stays within tol (default 10 * dt); the worst point is
    the first to reach it.  The profiles of a block of references are one
    ambient.distance grid of at most ambient.BLOCK_BYTES.
    """
    pts = np.asarray(curve.points, dtype=float)
    dt = _uniform_dt(np.asarray(curve.times, dtype=float))
    if tol is None:
        tol = TOL_QG_FACTOR * dt
    refs = np.atleast_2d(np.asarray(reference_points, dtype=float))
    if refs.shape[1] != pts.shape[1]:
        raise InvalidInputError("reference points and curve have different dimensions")
    alpha = ambient.alpha_kappa(kappa)

    admissible, worst, at = [], [], []
    for block in ambient._row_chunks(refs, len(pts)):
        d = ambient.distance(model, block[:, None], pts)
        ok = ~((d.min(axis=1) < MIN_REFERENCE_DISTANCE) | (d.max(axis=1) >= alpha - 1e-9))
        f_p = ambient.rho_kappa(kappa, d[ok])
        res = ((f_p[:, :-2] - 2 * f_p[:, 1:-1] + f_p[:, 2:]) / dt**2
               - (1 - kappa * f_p[:, 1:-1]))
        admissible.append(ok)
        worst.append(res.max(axis=1))
        at.append(res.argmax(axis=1))
    candidates = np.flatnonzero(np.concatenate(admissible))
    visible = (np.ones(len(candidates), dtype=bool) if table is None
               else _visible(model, table, refs[candidates], pts))
    if not visible.any():
        raise PreconditionError("no admissible reference points (all rejected or blocked)")
    per_point = np.concatenate(worst)[visible]
    k = int(per_point.argmax())
    max_residual = float(per_point[k])
    return QuasigeodesicReport(
        kappa=kappa, tol=float(tol), n_curve_samples=len(pts),
        n_reference_points=len(refs), n_used=len(per_point),
        visibility_failures=int(np.count_nonzero(~visible)),
        rejected_points=len(refs) - len(candidates),
        max_residual=max_residual, residual_per_point=per_point.tolist(),
        worst_point=refs[candidates[visible][k]].tolist(),
        worst_time=float(curve.times[1 + np.concatenate(at)[visible][k]]),
        verdict="pass" if max_residual <= tol else "fail")


def _directions(n: int) -> np.ndarray:
    """Unit directions +e_0, -e_0, +e_1, ..., then +-(1, ..., 1) / sqrt(n), as rows."""
    eye = np.eye(n)
    diag = np.ones(n) / np.sqrt(n)
    return np.concatenate([np.stack([eye, -eye], axis=1).reshape(-1, n), [diag, -diag]])


def reference_points_for_table(table: TableSpec, model: AmbientModel,
                               seed: int = 0) -> np.ndarray:
    """Interior reference points, all inside the patch with f >=
    REFERENCE_MARGIN_F: a fan of N_FAN_REFERENCES around an anchor (along each
    of _directions in turn, the first of a few steps that qualifies), the
    anchor, and seeded uniform draws from the patch's bounding box up to
    N_RANDOM_REFERENCES more."""
    anchor = _interior_anchor(table, model)

    def admissible(x):
        return table.region.contains(x) & (table.f(x) >= REFERENCE_MARGIN_F)

    steps = np.array([0.5, 0.25, 0.1, 0.04])
    fan = anchor + steps[:, None] * _directions(table.n)[:, None, :]
    ok = admissible(fan)
    hit = np.flatnonzero(ok.any(axis=1))[:N_FAN_REFERENCES]
    points = list(fan[hit, ok[hit].argmax(axis=1)])
    total = N_FAN_REFERENCES + N_RANDOM_REFERENCES
    if table.f(anchor) >= REFERENCE_MARGIN_F:
        points.append(anchor)
    draws = np.random.default_rng(seed).uniform(-1, 1, size=(4000, table.n))
    draws = np.asarray(table.region.center, dtype=float) + table.region.radius * draws
    points.extend(draws[admissible(draws)][:total - len(points)])
    if not points:
        raise PreconditionError("found no interior reference points")
    return np.array(points)


# --------------------------------------------------------------------------
# distances between sampled curves


def sup_distance(a: SampledCurve, b: SampledCurve, model: AmbientModel) -> float:
    """Uniform distance over identical time grids."""
    ta, tb = np.asarray(a.times), np.asarray(b.times)
    if ta.shape != tb.shape or np.abs(ta - tb).max() > 1e-9:
        raise InvalidInputError("sup_distance needs identical time grids")
    return float(ambient.distance_rowwise(model, a.points, b.points).max())


def curve_to_set_sup(model: AmbientModel, points, ref_points):
    """Sup over points, shape (..., N, d), of the distance to a densely
    sampled reference curve, one sup per curve: a float for one curve of
    shape (N, d), else an array of shape (...).

    A point's distance is the least distance to the nearest vertex and to
    its projections onto the two coordinate segments next to it, so segment
    spacing controls the residual error.  In the curved models a coordinate
    projection can lie farther than the vertex, so the vertex stays a
    candidate; that also keeps each point's value at most its distance to
    any vertex, which lets the nearest-set search (ambient._nearest_sup)
    skip points that cannot raise the sup.  The nearest vertex is the first
    one at the least distance_cross, as in a dense search.  The reference's
    bounding balls are built once for all curves."""
    P = np.asarray(points, dtype=float)
    R = np.asarray(ref_points, dtype=float)
    if len(R) == 0:
        raise InvalidInputError("curve_to_set_sup needs a non-empty reference")
    last = len(R) - 1
    ref_balls = ambient._balls(model, R)

    def sup(Pc):
        def value(i, j):
            p = Pc[i, None, :]
            # segments j - 1 and j; one past either end has length zero, and a
            # segment of length zero projects onto its first vertex
            seg = j[:, None] + np.array([-1, 0])
            a = R[np.clip(seg, 0, last)]
            ab = R[np.clip(seg + 1, 0, last)] - a
            den = _dot(ab, ab)
            with np.errstate(divide="ignore", invalid="ignore"):
                s = np.clip(_dot(p - a, ab) / den, 0.0, 1.0)
            s[den < 1e-300] = 0.0
            proj = a + s[..., None] * ab
            return ambient.distance(model, p, proj).min(axis=1)

        if not len(Pc):
            return 0.0
        balls = (ambient._cells(Pc, ambient.NEAR_CELL), ref_balls)
        return max(0.0, ambient._nearest_sup(model, Pc, R, value=value, balls=balls))

    if P.ndim == 2:
        return sup(P)
    curves = P.reshape((-1,) + P.shape[-2:])
    return np.array([sup(Pc) for Pc in curves]).reshape(P.shape[:-2])


# --------------------------------------------------------------------------
# convergence reports


@dataclass
class ConvergenceRow:
    param_name: str
    param: float
    sup_distance: float
    sup_samegrid: float | None = None
    angle_error: float | None = None
    residual: float | None = None
    expected: float | None = None
    truncated: bool = False


@dataclass
class ConvergenceReport:
    experiment: str
    table_name: str
    model_kind: str
    T: float
    dt: float
    rows: list[ConvergenceRow]
    verdict: str
    details: dict = field(default_factory=dict)

    @property
    def final_sup(self) -> float:
        return self.rows[-1].sup_distance

    @property
    def strictly_decreasing(self) -> bool:
        s = [r.sup_distance for r in self.rows]
        return all(s[i + 1] < s[i] for i in range(len(s) - 1))

    def to_dict(self) -> dict:
        d = asdict(self)
        d["final_sup"] = self.final_sup if self.rows else None
        d["strictly_decreasing"] = self.strictly_decreasing
        return d


# --------------------------------------------------------------------------
# fold geodesics -> billiard trajectory


def _patch_holds_ball(table: TableSpec, model_H: AmbientModel, p0, radius, dt) -> bool:
    """Whether the geodesic rays of length radius from p0 along each of
    _directions stay inside U at their samples; all rays are one flow call."""
    dirs = ambient.normalize(model_H, p0, _directions(table.n))
    rays = integrate_table_geodesic(model_H, p0, dirs[:, None], radius, max(radius / 32, dt))
    return bool(table.region.contains_many(rays.points).all())


def _angle_g(g: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    c = (u @ g @ v) / np.sqrt((u @ g @ u) * (v @ g @ v))
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def _fold_convergence_row(fold: Fold, q0, v0, T, dt, bil_p: SampledCurve,
                          bil_m: SampledCurve, frame, refs, kappa, tol_qg) -> ConvergenceRow:
    """One lam of fold_convergence_experiment: the two-sided fold geodesic,
    split at t = 0 into its forward half and its backward half (the run from
    -v0), against the billiards bil_p and bil_m, and the residual of its
    projection over the times both billiards cover."""
    model_H = fold.model.restricted()
    n = fold.table.n
    crv = integrate_fold_geodesic(fold, q0, v0, T, dt)
    i0 = int(np.searchsorted(crv.times, 0.0))
    fwd, bwd = crv.points[i0:, :n], crv.points[i0::-1, :n]
    nf = min(len(fwd), len(bil_p.points))
    nb = min(len(bwd), len(bil_m.points))
    sup_f = float(ambient.distance_rowwise(model_H, fwd[:nf], bil_p.points[:nf]).max())
    sup_b = float(ambient.distance_rowwise(model_H, bwd[:nb], bil_m.points[:nb]).max())

    # direction estimates just outside the pinch layer, on the grid step
    g, nu = frame.metric.g, frame.nu
    t_probe = min(max(25 * dt, 4 * fold.lam * fold.lam), T / 3)
    ip = min(int(round(t_probe / (T / (len(_grid(T, dt)) - 1)))), min(nf, nb) - 1)
    u_est_p, u_est_m = (u / np.sqrt(u @ g @ u) for u in (crv.velocities[i0 + ip, :n],
                                                         -crv.velocities[i0 - ip, :n]))
    # mirror law at the pinch passage: reversed incoming and outgoing
    # directions must be polar
    pol = 2 * (u_est_m @ g @ nu) * nu - u_est_m
    angle_err = _angle_g(g, pol, u_est_p)

    window = slice(i0 + 1 - nb, i0 + nf)
    proj = SampledCurve(times=crv.times[window], points=crv.points[window, :n])
    rep = quasigeodesic_residual(proj, model_H, fold.table, kappa, refs, tol=tol_qg)
    return ConvergenceRow(param_name="lambda", param=fold.lam,
                          sup_distance=max(sup_f, sup_b), angle_error=angle_err,
                          residual=rep.max_residual, truncated=crv.truncated)


def fold_convergence_experiment(table: TableSpec, model: AmbientModel,
                                p0=None, direction=(0.8, 0.6), lambdas=None,
                                T: float = 0.5, dt: float = 1e-3,
                                kappa: float | None = None,
                                tol_conv: float = 5e-3,
                                tol_qg: float | None = None,
                                seed: int = 0, workers: int = 1,
                                scan_grid: int = 12, scan_planes: int = 4) -> ConvergenceReport:
    """Fold geodesics through the lifted boundary point against the limiting
    billiard trajectory.  model is the ambient model or the one on H.

    For each lam the geodesic of the fold starts at the pinch lift of p0
    with velocity a * boundary tangent + b * vertical, runs on [-T, T], and
    its projection to H is compared on the shared grid with the billiard
    launched along a t_hat + b nu (forward) and -a t_hat + b nu (backward);
    these two cone directions are the polar pair the projected velocities
    converge to.  Rows report the uniform distance, the mirror-law angle
    error of the measured pinch passage, and the quasigeodesic residual of
    the projected curve at the declared kappa.

    The scan certification gates the verdict: without a certified lower
    bound the report is marked inconclusive, as is a single-row run.
    workers is accepted for compatibility and has no effect: each lam is one
    batched integration of both sides.
    """
    if not T > 0:
        raise InvalidInputError(f"T must be positive (got {T})")
    lambdas = check_grid([2.0 ** -k for k in range(1, 9)] if lambdas is None else lambdas,
                         0.0, 1.0, name="lambdas")
    model_H = model_on_table(table, model)
    model_amb = AmbientModel(model.kind, table.n + 1)
    if kappa is None:
        kappa = DEFAULT_KAPPA[model_amb.kind]
    if tol_qg is None:
        tol_qg = TOL_QG_FACTOR * dt
    p0 = np.asarray(table.p0 if p0 is None else p0, dtype=float)
    a, b = float(direction[0]), float(direction[1])
    if b <= MIN_DIRECTION_VERTICAL:
        raise InvalidInputError("the direction needs a positive vertical component")
    r = float(np.hypot(a, b))
    a, b = a / r, b / r

    frame = boundary_frame(table, model_amb, p0)
    t_hat = frame.tangent_basis[0]
    nu = frame.nu
    if not _patch_holds_ball(table, model_H, p0, 2 * T, dt):
        raise PreconditionError("the 2T-ball around p0 is not contained in the patch U")

    scan = scan_curvature(table, model_amb, lambdas, kappa=kappa,
                          n_grid=scan_grid, n_random_planes=scan_planes, seed=seed)
    certified = scan.verdict == "certified"

    # lifted initial data: vertical and horizontal directions are
    # g-orthogonal at points of H in all three models
    q0 = np.concatenate([p0, [0.0]])
    e_vert = ambient.normalize(model_amb, q0, np.eye(table.n + 1)[-1])
    v0 = ambient.normalize(model_amb, q0, a * np.concatenate([t_hat, [0.0]]) + b * e_vert)

    bil_p = billiard_trajectory(table, model_H, p0, a * t_hat + b * nu, T, dt)
    bil_m = billiard_trajectory(table, model_H, p0, -a * t_hat + b * nu, T, dt)

    refs = reference_points_for_table(table, model_amb, seed=seed)
    rows = [_fold_convergence_row(Fold(table=table, model=model_amb, lam=lam), q0, v0, T, dt,
                                  bil_p.base, bil_m.base, frame, refs, kappa, tol_qg)
            for lam in lambdas]

    final_row = rows[-1]
    if not certified or len(rows) < 2:
        verdict = "inconclusive"
    else:
        ok = (not final_row.truncated and final_row.sup_distance <= tol_conv
              and final_row.residual <= tol_qg)
        verdict = "pass" if ok else "fail"
    details = {
        "direction": [a, b],
        "p0": [float(v) for v in p0],
        "kappa": kappa,
        "tol_conv": tol_conv,
        "tol_qg": tol_qg,
        "curvature_verdict": scan.verdict,
        "scan_min_sec": scan.min_sec,
        "reference_bounces_forward": len(bil_p.bounces),
        "reference_bounces_backward": len(bil_m.bounces),
        "polar_angle_final": final_row.angle_error,
        "seed": seed,
    }
    return ConvergenceReport(experiment="fold-convergence", table_name=table.name,
                             model_kind=model_amb.kind, T=T, dt=dt, rows=rows,
                             verdict=verdict, details=details)


# --------------------------------------------------------------------------
# shallow billiards -> boundary geodesic


def boundary_geodesic_experiment(table: TableSpec, model: AmbientModel,
                                 p0=None, angles=None, T: float = np.pi / 2,
                                 dt: float = 1e-3, tol_rel: float = 0.10,
                                 ref_refine: int = 8,
                                 extend: float = 0.1) -> ConvergenceReport:
    """Billiards launched at shrinking incidence angles against the boundary
    geodesic from the same point and tangent.

    The headline distance per angle is the sup over billiard samples of the
    distance to the boundary geodesic as a set (the cubic Hermite interpolant
    of one run at ref_refine points per step, extended past T by a margin,
    since the billiard covers slightly more boundary angle than arclength
    T); the same-grid sup over the run's first samples is reported
    alongside.  The expected column is the flat sagitta 1 - cos(theta),
    exact for the unit disk in the Euclidean model.
    """
    angles = check_grid([0.2 / 2 ** k for k in range(6)] if angles is None else angles,
                        0.0, np.pi / 2, name="angles")
    if not T > 0:
        raise InvalidInputError(f"T must be positive (got {T})")
    conv = check_h_sufficient_conditions(table, ambient.euclidean(table.n + 1))
    if not conv.hess_ok:
        raise PreconditionError(
            "table is not convex (D^2 f has a positive eigenvalue); the "
            "boundary-geodesic comparison needs a convex table")
    model_H = model_on_table(table, model)
    p0 = np.asarray(table.p0 if p0 is None else p0, dtype=float)
    frame = boundary_frame(table, model, p0)
    t_hat = frame.tangent_basis[0]
    nu = frame.nu

    # one run sampled on the output grid's own step, n_ext samples long; its
    # first n + 1 samples are the same-grid reference
    n = len(_grid(T, dt)) - 1
    h = T / n
    n_ext = int(np.ceil(n * (1 + extend)))
    run = integrate_boundary_geodesic(table, model, p0, t_hat, n_ext * h, h)
    if len(run) <= n:
        raise PreconditionError("boundary geodesic leaves the patch U before T")
    if run.truncated:
        raise PreconditionError(
            f"boundary geodesic leaves the patch U before T (1 + extend) = {n_ext * h}")
    ref_grid = SampledCurve(times=run.times[:n + 1], points=run.points[:n + 1],
                            velocities=run.velocities[:n + 1])
    ref_set = run.hermite(ref_refine)

    v0s = [ambient.normalize(model_H, p0, np.cos(th) * t_hat + np.sin(th) * nu) for th in angles]
    bases = [billiard_trajectory(table, model_H, p0, v0, T, dt).base for v0 in v0s]
    c2s = curve_to_set_sup(model_H, np.stack([b.points for b in bases]), ref_set)
    rows = [ConvergenceRow(param_name="theta", param=th, sup_distance=float(c),
                           sup_samegrid=sup_distance(b, ref_grid, model_H),
                           expected=1 - np.cos(th))
            for th, b, c in zip(angles, bases, c2s)]
    rels = [abs(r.sup_distance / r.expected - 1) for r in rows]
    ratios = [rows[i].sup_distance / rows[i + 1].sup_distance
              for i in range(len(rows) - 1)]
    verdict = "pass" if all(r <= tol_rel for r in rels) else "fail"
    details = {
        "p0": [float(v) for v in p0],
        "tol_rel": tol_rel,
        "rel_errors": rels,
        "ratios": ratios,
        "convexity_max_hess_eigenvalue": conv.max_hess_eigenvalue,
    }
    return ConvergenceReport(experiment="boundary-geodesic", table_name=table.name,
                             model_kind=model_H.kind, T=T, dt=dt, rows=rows,
                             verdict=verdict, details=details)
