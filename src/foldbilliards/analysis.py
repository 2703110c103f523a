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

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from . import ambient
from .ambient import AmbientModel, _dot
from .errors import ConfigError, InvalidInputError, PreconditionError
from .table import (
    TableSpec,
    boundary_frame,
    model_on_table,
    polar_vector,
    _interior_anchor,
)
from .fold import Fold, check_h_sufficient_conditions, scan_curvature
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
MIN_REFERENCE_DISTANCE = 1e-9
DEFAULT_KAPPA = {"euclidean": 0.0, "hyperbolic": -1.0, "spherical": 1.0}


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
    worst_point: list[float] | None
    worst_time: float | None
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


def _visible(model: AmbientModel, table: TableSpec, p: np.ndarray,
             pts: np.ndarray, max_checks: int = 256) -> bool:
    """Whether the connecting model geodesics from p to the curve stay in K
    (f >= -1e-6 along them), checked on a subsample of the curve."""
    m = len(pts)
    idx = np.unique(np.linspace(0, m - 1, min(m, max_checks)).astype(int))
    chains = ambient.geodesic_between(model, p, pts[idx], num=11)
    return bool(table.f(chains[:, 1:-1]).min() >= -VISIBILITY_F_TOL)


def quasigeodesic_residual(curve: SampledCurve, model: AmbientModel,
                           table: TableSpec | None, kappa: float,
                           reference_points, tol: float | None = None) -> QuasigeodesicReport:
    """Test the barrier inequality along the curve against reference points.

    model is the geometry of the curve (dimension of its points).  When a
    table is given, reference points whose sight lines leave the table are
    counted and skipped; points on the curve or beyond the comparison
    diameter are rejected.  The verdict is pass when the largest residual

        (f_p(t-dt) - 2 f_p(t) + f_p(t+dt)) / dt^2 - (1 - kappa f_p(t))

    over used points stays within tol (default 10 * dt).
    """
    pts = np.asarray(curve.points, dtype=float)
    dt = _uniform_dt(np.asarray(curve.times, dtype=float))
    if tol is None:
        tol = TOL_QG_FACTOR * dt
    refs = np.atleast_2d(np.asarray(reference_points, dtype=float))
    if refs.shape[1] != pts.shape[1]:
        raise InvalidInputError("reference points and curve have different dimensions")
    alpha = ambient.alpha_kappa(kappa)

    max_residual = -np.inf
    per_point: list[float] = []
    worst_point = None
    worst_time = None
    visibility_failures = 0
    rejected = 0
    used = 0
    for p in refs:
        d = ambient.distance(model, p, pts)
        if d.min() < MIN_REFERENCE_DISTANCE or d.max() >= alpha - 1e-9:
            rejected += 1
            continue
        if table is not None and not _visible(model, table, p, pts):
            visibility_failures += 1
            continue
        f_p = ambient.rho_kappa(kappa, d)
        res = (f_p[:-2] - 2 * f_p[1:-1] + f_p[2:]) / dt**2 - (1 - kappa * f_p[1:-1])
        r = float(res.max())
        per_point.append(r)
        used += 1
        if r > max_residual:
            max_residual = r
            worst_point = [float(v) for v in p]
            worst_time = float(curve.times[1 + int(res.argmax())])
    if used == 0:
        raise ConfigError("no admissible reference points (all rejected or blocked)")
    return QuasigeodesicReport(
        kappa=kappa, tol=float(tol), n_curve_samples=len(pts),
        n_reference_points=len(refs), n_used=used,
        visibility_failures=visibility_failures, rejected_points=rejected,
        max_residual=max_residual, residual_per_point=per_point,
        worst_point=worst_point, worst_time=worst_time,
        verdict="pass" if max_residual <= tol else "fail")


def reference_points_for_table(table: TableSpec, model: AmbientModel,
                               n_deterministic: int = 8, n_random: int = 8,
                               seed: int = 0, margin: float = 0.02) -> np.ndarray:
    """Interior reference points: a deterministic fan around an anchor plus
    seeded random draws, all with f >= margin and inside the patch."""
    anchor = _interior_anchor(table, model)
    points = []
    k = 0
    direction_bank = []
    for i in range(table.n):
        for s in (+1.0, -1.0):
            e = np.zeros(table.n)
            e[i] = s
            direction_bank.append(e)
    diag = np.ones(table.n) / np.sqrt(table.n)
    direction_bank.append(diag)
    direction_bank.append(-diag)
    while len(points) < n_deterministic and k < len(direction_bank):
        d = direction_bank[k]
        k += 1
        for step in (0.5, 0.25, 0.1, 0.04):
            x = anchor + step * d
            if table.region.contains(x) and table.f(x) >= margin:
                points.append(x)
                break
    if table.f(anchor) >= margin and len(points) < n_deterministic + n_random:
        points.append(anchor)
    rng = np.random.default_rng(seed)
    tries = 0
    center = np.asarray(table.region.center, dtype=float)
    while len(points) < n_deterministic + n_random and tries < 4000:
        tries += 1
        x = center + table.region.radius * rng.uniform(-1, 1, size=table.n)
        if table.region.contains(x) and table.f(x) >= margin:
            points.append(x)
    if not points:
        raise ConfigError("found no interior reference points")
    return np.array(points)


# --------------------------------------------------------------------------
# distances between sampled curves


def sup_distance(a: SampledCurve, b: SampledCurve, model: AmbientModel) -> float:
    """Uniform distance over identical time grids."""
    ta, tb = np.asarray(a.times), np.asarray(b.times)
    if ta.shape != tb.shape or np.abs(ta - tb).max() > 1e-9:
        raise ConfigError("sup_distance needs identical time grids")
    return float(ambient.distance_rowwise(model, a.points, b.points).max())


def curve_to_set_sup(model: AmbientModel, points, ref_points) -> float:
    """Sup over points of the distance to a densely sampled reference curve:
    the least distance to the projections onto the two coordinate segments
    next to the nearest vertex (picked by distance_cross), so segment
    spacing controls the residual error.  A projection clipped to an end of
    its segment is that vertex, so the nearest vertex is no separate
    candidate."""
    P = np.asarray(points, dtype=float)
    R = np.asarray(ref_points, dtype=float)
    if len(R) == 0:
        raise InvalidInputError("curve_to_set_sup needs a non-empty reference")
    last = len(R) - 1
    sup = 0.0
    for lo, D in ambient.distance_blocks(model, P, R):
        p = P[lo:lo + len(D), None, :]
        j = D.argmin(axis=1)[:, None]
        # segments j - 1 and j; one past either end has length zero, and a
        # segment of length zero projects onto its first vertex
        seg = j + np.array([-1, 0])
        a = R[np.clip(seg, 0, last)]
        ab = R[np.clip(seg + 1, 0, last)] - a
        den = _dot(ab, ab)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.clip(_dot(p - a, ab) / den, 0.0, 1.0)
        s[den < 1e-300] = 0.0
        proj = a + s[..., None] * ab
        sup = max(sup, float(ambient.distance(model, p, proj).min(axis=1).max()))
    return sup


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

    def to_dict(self) -> dict:
        return asdict(self)


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

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, **kw)


# --------------------------------------------------------------------------
# fold geodesics -> billiard trajectory


def _patch_holds_ball(table: TableSpec, model_H: AmbientModel, p0, radius, dt) -> bool:
    """Sample geodesic rays from p0 and check the ball stays inside U."""
    n = table.n
    dirs = []
    for i in range(n):
        for s in (+1.0, -1.0):
            e = np.zeros(n)
            e[i] = s
            dirs.append(e)
    dirs.append(np.ones(n))
    dirs.append(-np.ones(n))
    for d in dirs:
        v = d / ambient.norm(model_H, np.asarray(p0, float), d)
        ray = integrate_table_geodesic(model_H, p0, v, radius, max(radius / 32, dt))
        if not table.region.contains_many(ray.points).all():
            return False
    return True


def _angle_g(g: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    c = (u @ g @ v) / np.sqrt((u @ g @ u) * (v @ g @ v))
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def _fold_convergence_row(fold: Fold, q0, v0, T, dt, bil_p: SampledCurve,
                          bil_m: SampledCurve, frame, refs, kappa, tol_qg) -> ConvergenceRow:
    """One lam of fold_convergence_experiment: the two-sided fold geodesic,
    split at t = 0 into its forward half and its backward half (the run from
    -v0), against the billiards bil_p and bil_m."""
    model_H = fold.model.restricted()
    n = fold.table.n
    crv = integrate_fold_geodesic(fold, q0, v0, T, dt)
    i0 = int(np.searchsorted(crv.times, 0.0))
    fwd_p, fwd_v = crv.points[i0:], crv.velocities[i0:]
    bwd_p, bwd_v = crv.points[i0::-1], -crv.velocities[i0::-1]
    nf = min(len(fwd_p), len(bil_p.points))
    nb = min(len(bwd_p), len(bil_m.points))
    sup_f = float(ambient.distance_rowwise(model_H, fwd_p[:nf, :n], bil_p.points[:nf]).max())
    sup_b = float(ambient.distance_rowwise(model_H, bwd_p[:nb, :n], bil_m.points[:nb]).max())

    # direction estimates just outside the pinch layer
    g, nu = frame.metric.g, frame.nu
    t_probe = min(max(25 * dt, 4 * fold.lam * fold.lam), T / 3)
    ip = min(int(round(t_probe / dt)), min(nf, nb) - 1)
    u_est_p = fwd_v[ip, :n]
    u_est_m = bwd_v[ip, :n]
    u_est_p = u_est_p / np.sqrt(u_est_p @ g @ u_est_p)
    u_est_m = u_est_m / np.sqrt(u_est_m @ g @ u_est_m)
    # mirror law at the pinch passage: reversed incoming and outgoing
    # directions must be polar
    pol = 2 * (u_est_m @ g @ nu) * nu - u_est_m
    angle_err = _angle_g(g, pol, u_est_p)

    res = None
    if refs is not None:
        t_f = np.arange(nf) * dt
        t_b = -np.arange(nb)[::-1] * dt
        proj = SampledCurve(times=np.concatenate([t_b[:-1], t_f]),
                            points=np.concatenate([bwd_p[:nb][::-1][:-1, :n], fwd_p[:nf, :n]]),
                            velocities=None)
        rep = quasigeodesic_residual(proj, model_H, fold.table, kappa, refs, tol=tol_qg)
        res = rep.max_residual
    return ConvergenceRow(param_name="lambda", param=fold.lam,
                          sup_distance=max(sup_f, sup_b),
                          angle_error=angle_err, residual=res, truncated=crv.truncated)


def fold_convergence_experiment(table: TableSpec, model: AmbientModel,
                                p0=None, direction=(0.8, 0.6), lambdas=None,
                                T: float = 0.5, dt: float = 1e-3,
                                kappa: float | None = None,
                                tol_conv: float = 5e-3,
                                tol_qg: float | None = None,
                                seed: int = 0, workers: int = 1,
                                scan_grid: int = 12, scan_planes: int = 4) -> ConvergenceReport:
    """Fold geodesics through the lifted boundary point against the limiting
    billiard trajectory.

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
    if lambdas is None:
        lambdas = [2.0 ** -k for k in range(1, 9)]
    lambdas = [float(l) for l in lambdas]
    if any(not 0 < l < 1 for l in lambdas):
        raise ConfigError("lambda values must lie in (0, 1)")
    if sorted(lambdas, reverse=True) != lambdas:
        raise ConfigError("lambda values must be strictly decreasing")
    if model.dim == table.n:
        model_amb = AmbientModel(model.kind, table.n + 1)
    elif model.dim == table.n + 1:
        model_amb = model
    else:
        raise InvalidInputError("model dimension does not match the table")
    model_H = model_amb.restricted()
    if kappa is None:
        kappa = DEFAULT_KAPPA[model_amb.kind]
    if tol_qg is None:
        tol_qg = TOL_QG_FACTOR * dt
    p0 = np.asarray(table.p0 if p0 is None else p0, dtype=float)
    a, b = float(direction[0]), float(direction[1])
    if b <= 1e-9:
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
    e_vert = np.zeros(table.n + 1)
    e_vert[-1] = 1.0
    e_vert = e_vert / ambient.norm(model_amb, q0, e_vert)
    v0 = a * np.concatenate([t_hat, [0.0]]) + b * e_vert
    v0 = v0 / ambient.norm(model_amb, q0, v0)

    u_plus = a * t_hat + b * nu
    u_minus = -a * t_hat + b * nu
    bil_p = billiard_trajectory(table, model_H, p0, u_plus, T, dt)
    bil_m = billiard_trajectory(table, model_H, p0, u_minus, T, dt)

    refs = reference_points_for_table(table, model_amb, seed=seed)
    rows = [_fold_convergence_row(Fold(table=table, model=model_amb, lam=lam), q0, v0, T, dt,
                                  bil_p.base, bil_m.base, frame, refs, kappa, tol_qg)
            for lam in lambdas]

    final_row = rows[-1]
    ok = (certified and len(rows) >= 2 and not final_row.truncated
          and final_row.sup_distance <= tol_conv
          and final_row.residual is not None and final_row.residual <= tol_qg)
    if not certified or len(rows) < 2:
        verdict = "inconclusive"
    else:
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
    if angles is None:
        angles = [0.2 / 2 ** k for k in range(6)]
    angles = [float(t) for t in angles]
    if any(not 0 < t < np.pi / 2 for t in angles):
        raise ConfigError("incidence angles must lie in (0, pi/2)")
    if sorted(angles, reverse=True) != angles:
        raise ConfigError("incidence angles must be strictly decreasing")
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

    rows = []
    for th in angles:
        v0 = np.cos(th) * t_hat + np.sin(th) * nu
        v0 = v0 / ambient.norm(model_H, p0, v0)
        bil = billiard_trajectory(table, model_H, p0, v0, T, dt)
        same = sup_distance(bil.base, ref_grid, model_H)
        c2s = curve_to_set_sup(model_H, bil.base.points, ref_set)
        expected = 1 - np.cos(th)
        rows.append(ConvergenceRow(param_name="theta", param=th,
                                   sup_distance=c2s, sup_samegrid=same,
                                   expected=expected))
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
