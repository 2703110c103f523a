"""Geodesic and billiard trajectory integration.

Geodesics are integrated in ambient coordinates with classical RK4.  On a
level set (a fold, or the table boundary) the geodesic equation gains a
normal forcing term:

    x'' = -Gamma(x', x') + mu grad F,   mu = -Hess F(x', x') / |grad F|^2,

and each step ends with a Newton projection back onto the level set plus a
tangential re-projection and renormalization of the velocity.

A fold curls up with extrinsic curvature of order 1/lam^2 where it crosses
the pinch set {f = 0}, so a fixed step cannot resolve that layer for small
lam.  Steps are therefore refined recursively (step-doubling error control)
inside each fixed output interval; sample times stay on the uniform grid.

Billiard trajectories are table geodesics with event detection on f: sign
changes are bracketed by re-integration within the step and bisected to
|f| <= 1e-10, then the velocity reflects by the mirror law.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ambient
from .ambient import AmbientModel
from .errors import (
    BounceAccumulationError,
    InvalidInputError,
    NumericError,
    PreconditionError,
)
from .table import TableSpec, boundary_frame, model_on_table, reflect

REFINE_TOL = 1e-9
MAX_REFINE_DEPTH = 45
BISECT_F_TOL = 1e-10
DELTA_MIN = 1e-4
GRAZING_TOL = 1e-8


@dataclass
class SampledCurve:
    """A curve sampled on a uniform time grid with its velocities."""

    times: np.ndarray
    points: np.ndarray
    velocities: np.ndarray | None = None
    truncated: bool = False
    exit_forward: float | None = None
    exit_backward: float | None = None

    @property
    def dt(self) -> float:
        if len(self.times) < 2:
            return 0.0
        return float(self.times[1] - self.times[0])

    def __len__(self) -> int:
        return len(self.times)


@dataclass
class Bounce:
    t: float
    x: np.ndarray
    w_in: np.ndarray
    w_out: np.ndarray
    grazing: bool = False


@dataclass
class BilliardTrajectory:
    base: SampledCurve
    bounces: list[Bounce] = field(default_factory=list)


class LevelSetConstraint:
    """Callable bundle (value, Euclidean gradient/Hessian) of a level set."""

    def __init__(self, value, egrad, ehess):
        self.value = value
        self.egrad = egrad
        self.ehess = ehess


def fold_constraint(fold) -> LevelSetConstraint:
    return LevelSetConstraint(fold.value, fold.euclid_grad, fold.euclid_hess)


def table_constraint(table: TableSpec) -> LevelSetConstraint:
    return LevelSetConstraint(lambda x: table.f(x), table.grad_f, table.hess_f)


def _acceleration(model: AmbientModel, constraint, x, v):
    gamma_vv = ambient.christoffel_quadratic(model, x, v)
    acc = -gamma_vv
    if constraint is not None:
        df = constraint.egrad(x)
        g_inv = ambient.metric_tensor(model, x).g_inv
        grad = g_inv @ df
        gn2 = df @ grad
        if gn2 < 1e-20:
            raise NumericError("constraint gradient vanished during integration")
        hess_vv = v @ constraint.ehess(x) @ v - df @ gamma_vv
        acc = acc - (hess_vv / gn2) * grad
    return acc


def _project(model: AmbientModel, constraint, x, v, speed):
    """Newton-project x onto the level set along grad F, make v tangent and
    rescale it to the prescribed speed."""
    if constraint is not None:
        for _ in range(3):
            val = constraint.value(x)
            if abs(val) < 1e-14:
                break
            df = constraint.egrad(x)
            g_inv = ambient.metric_tensor(model, x).g_inv
            grad = g_inv @ df
            denom = df @ grad
            if denom < 1e-20:
                raise NumericError("projection failed: vanishing gradient")
            x = x - (val / denom) * grad
        df = constraint.egrad(x)
        g_inv = ambient.metric_tensor(model, x).g_inv
        grad = g_inv @ df
        denom = df @ grad
        v = v - ((df @ v) / denom) * grad
    nrm = ambient.norm(model, x, v)
    if nrm < 1e-14:
        raise NumericError("velocity collapsed during integration")
    return x, (speed / nrm) * v


def _rk4_step(model, constraint, x, v, h, speed):
    k1x = v
    k1v = _acceleration(model, constraint, x, v)
    k2x = v + 0.5 * h * k1v
    k2v = _acceleration(model, constraint, x + 0.5 * h * k1x, k2x)
    k3x = v + 0.5 * h * k2v
    k3v = _acceleration(model, constraint, x + 0.5 * h * k2x, k3x)
    k4x = v + h * k3v
    k4v = _acceleration(model, constraint, x + h * k3x, k4x)
    xn = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
    vn = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
    return _project(model, constraint, xn, vn, speed)


def _refined_step(model, constraint, x, v, h, speed, refine_tol, depth=0):
    """One step of size h with recursive step-doubling error control."""
    x1, v1 = _rk4_step(model, constraint, x, v, h, speed)
    if refine_tol is None:
        return x1, v1
    xa, va = _rk4_step(model, constraint, x, v, 0.5 * h, speed)
    x2, v2 = _rk4_step(model, constraint, xa, va, 0.5 * h, speed)
    err = max(np.abs(x1 - x2).max(), np.abs(v1 - v2).max())
    if err <= refine_tol or depth >= MAX_REFINE_DEPTH:
        return x2, v2
    xm, vm = _refined_step(model, constraint, x, v, 0.5 * h, speed, refine_tol, depth + 1)
    return _refined_step(model, constraint, xm, vm, 0.5 * h, speed, refine_tol, depth + 1)


def _advance(model, constraint, x, v, h, refine_tol):
    """Advance by h; exact for free Euclidean motion."""
    if constraint is None and model.kind == "euclidean":
        return x + h * v, v
    return _refined_step(model, constraint, x, v, h, 1.0, refine_tol)


def _grid(T: float, dt: float) -> np.ndarray:
    """Uniform grid on [0, T].  dt is a target; the actual step divides T."""
    if T < 0 or dt <= 0:
        raise InvalidInputError("need T >= 0 and dt > 0")
    if T == 0:
        return np.array([0.0])
    n = max(1, int(round(T / dt)))
    return np.linspace(0.0, T, n + 1)


def _integrate_one_direction(model, constraint, x0, v0, T, dt, refine_tol,
                             patch=None, project_for_patch=None):
    """Integrate forward on [0, T]; returns times, points, velocities and the
    exit time if the patch was left."""
    times = _grid(T, dt)
    pts = [np.array(x0, dtype=float)]
    vels = [np.array(v0, dtype=float)]
    exit_time = None
    x, v = pts[0], vels[0]
    for i in range(1, len(times)):
        h = times[i] - times[i - 1]
        x, v = _advance(model, constraint, x, v, h, refine_tol)
        if patch is not None:
            probe = x if project_for_patch is None else project_for_patch(x)
            if not patch.contains(probe):
                exit_time = float(times[i])
                break
        pts.append(x)
        vels.append(v)
    n = len(pts)
    return times[:n], np.array(pts), np.array(vels), exit_time


def _check_unit(model, x, v, label="v0"):
    nrm = ambient.norm(model, x, v)
    if abs(nrm - 1.0) > 1e-8:
        raise PreconditionError(f"{label} must be a unit vector (got |v| = {nrm})")


def integrate_fold_geodesic(fold, q0, v0, T, dt, two_sided: bool = True,
                            refine_tol: float | None = REFINE_TOL) -> SampledCurve:
    """Geodesic of the fold through q0 with initial velocity v0.

    Integrates on [-T, T] when two_sided (the default), else on [0, T].
    Requires q0 on the fold, v0 tangent and of unit ambient norm.  If the
    projected base point leaves the patch U the curve is truncated on that
    side and flagged.
    """
    q0 = np.asarray(q0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if abs(fold.value(q0)) > 1e-8:
        raise PreconditionError("q0 is not on the fold")
    df = fold.euclid_grad(q0)
    if np.linalg.norm(df) < 1e-10:
        raise PreconditionError("fold is singular at q0")
    if abs(df @ v0) > 1e-8 * max(1.0, float(np.linalg.norm(df))):
        raise PreconditionError("v0 is not tangent to the fold")
    _check_unit(fold.model, q0, v0)
    constraint = fold_constraint(fold)
    patch = fold.table.region
    proj = lambda q: q[:-1]

    t_f, p_f, v_f, exit_f = _integrate_one_direction(
        fold.model, constraint, q0, v0, T, dt, refine_tol, patch, proj)
    if not two_sided or T == 0:
        return SampledCurve(times=t_f, points=p_f, velocities=v_f,
                            truncated=exit_f is not None, exit_forward=exit_f)
    t_b, p_b, v_b, exit_b = _integrate_one_direction(
        fold.model, constraint, q0, -v0, T, dt, refine_tol, patch, proj)
    times = np.concatenate([-t_b[::-1][:-1], t_f])
    points = np.concatenate([p_b[::-1][:-1], p_f])
    vels = np.concatenate([-v_b[::-1][:-1], v_f])
    return SampledCurve(times=times, points=points, velocities=vels,
                        truncated=exit_f is not None or exit_b is not None,
                        exit_forward=exit_f,
                        exit_backward=None if exit_b is None else -exit_b)


def integrate_table_geodesic(model: AmbientModel, x0, v0, T, dt,
                             refine_tol: float | None = REFINE_TOL) -> SampledCurve:
    """Unconstrained geodesic of the model through (x0, v0) on [0, T].

    model is the geometry the curve lives in (for a table, the induced
    model on H, i.e. ambient.restricted()).  Euclidean curves are exact
    straight lines.
    """
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    _check_unit(model, x0, v0)
    t, p, v, _ = _integrate_one_direction(model, None, x0, v0, T, dt, refine_tol)
    return SampledCurve(times=t, points=p, velocities=v)


def integrate_boundary_geodesic(table: TableSpec, model: AmbientModel, x0, v0,
                                T, dt, refine_tol: float | None = REFINE_TOL) -> SampledCurve:
    """Geodesic of the boundary hypersurface {f = 0} inside (H, g).

    model is the ambient model; the curve runs in the induced geometry on H
    constrained to the table boundary.  v0 must be tangent to the boundary.
    """
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    model_H = model_on_table(table, model)
    if abs(table.f(x0)) > 1e-8:
        raise PreconditionError("x0 is not on the table boundary")
    df = table.grad_f(x0)
    if abs(df @ v0) > 1e-8 * max(1.0, float(np.linalg.norm(df))):
        raise PreconditionError("v0 is not tangent to the boundary")
    _check_unit(model_H, x0, v0)
    constraint = table_constraint(table)
    t, p, v, exit_t = _integrate_one_direction(
        model_H, constraint, x0, v0, T, dt, refine_tol, table.region, None)
    return SampledCurve(times=t, points=p, velocities=v,
                        truncated=exit_t is not None, exit_forward=exit_t)


def _flow_f_curvature_bound(table, model_H, x, v):
    """Bound on |d^2/dt^2 f(x(t))| at the state, used to rule out hidden
    boundary crossings inside a step."""
    acc = _acceleration(model_H, None, x, v)
    return abs(v @ table.hess_f(x) @ v) + abs(table.grad_f(x) @ acc)


def billiard_trajectory(table: TableSpec, model: AmbientModel, x0, v0, T, dt,
                        delta_min: float = DELTA_MIN,
                        grazing_tol: float = GRAZING_TOL,
                        refine_tol: float | None = REFINE_TOL) -> BilliardTrajectory:
    """Billiard trajectory in (K, g) from x0 with unit velocity v0 on [0, T].

    Follows table geodesics, bisects boundary crossings of f to
    |f| <= 1e-10 and applies the mirror reflection law.  Grazing impacts
    (normal velocity below grazing_tol) continue unreflected and are
    flagged.  Two bounces closer than delta_min in time abort the run.
    """
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    model_H = model_on_table(table, model)
    f0 = table.f(x0)
    if f0 < -1e-10:
        raise PreconditionError("x0 is outside the table")
    if not table.region.contains(x0):
        raise PreconditionError("x0 is outside the patch U")
    _check_unit(model_H, x0, v0)
    if abs(f0) <= 1e-10:
        frame = boundary_frame(table, model, x0)
        if v0 @ frame.metric.g @ frame.nu < -1e-10:
            raise PreconditionError("x0 is on the boundary and v0 leaves the table")

    times = _grid(T, dt)
    pts = [x0]
    vels = [v0]
    bounces: list[Bounce] = []
    max_bounces = int(np.ceil(T / delta_min)) + 4
    x, v = x0, v0
    t_abs = 0.0
    scan_res = 0.5 * delta_min

    def advance(xc, vc, h):
        return _advance(model_H, None, xc, vc, h, refine_tol)

    for i in range(1, len(times)):
        remaining = times[i] - times[i - 1]
        guard = 0
        while remaining > 1e-14:
            guard += 1
            if guard > 10000:
                raise NumericError("billiard step did not terminate")
            x1, v1 = advance(x, v, remaining)
            f_end = table.f(x1)
            f_start = table.f(x)
            crossed = f_end < -1e-12
            if not crossed:
                # rule out an excursion below f = 0 inside the step
                m2 = 2.0 * max(_flow_f_curvature_bound(table, model_H, x, v),
                               _flow_f_curvature_bound(table, model_H, x1, v1))
                if min(f_start, f_end) > 0.15 * m2 * remaining**2 + 1e-12:
                    x, v = x1, v1
                    remaining = 0.0
                    continue
                # scan for a dip at sub-bounce resolution
                n_scan = max(2, int(np.ceil(remaining / scan_res)))
                dip_found = False
                prev = 0.0
                for j in range(1, n_scan + 1):
                    d_j = remaining * j / n_scan
                    xs, _ = advance(x, v, d_j)
                    if table.f(xs) < -1e-12:
                        crossed = True
                        lo, hi = prev, d_j
                        dip_found = True
                        break
                    prev = d_j
                if not dip_found:
                    x, v = x1, v1
                    remaining = 0.0
                    continue
            else:
                # endpoint crossing; bracket from the start of the step,
                # scanning so the first crossing is the one refined
                n_scan = max(2, int(np.ceil(remaining / scan_res)))
                lo, hi = 0.0, remaining
                prev = 0.0
                for j in range(1, n_scan + 1):
                    d_j = remaining * j / n_scan
                    xs, _ = advance(x, v, d_j)
                    if table.f(xs) < -1e-12:
                        lo, hi = prev, d_j
                        break
                    prev = d_j
            # bisect the first crossing to |f| <= BISECT_F_TOL
            for _ in range(90):
                mid = 0.5 * (lo + hi)
                xs, _ = advance(x, v, mid)
                if table.f(xs) < -1e-12:
                    hi = mid
                else:
                    lo = mid
                if hi - lo < 1e-16 * max(1.0, remaining):
                    break
            delta = 0.5 * (lo + hi)
            xb, vb = advance(x, v, delta)
            if abs(table.f(xb)) > BISECT_F_TOL:
                # fall back to the inside bracket end
                xb, vb = advance(x, v, lo)
                delta = lo
            t_bounce = t_abs + delta
            if bounces and t_bounce - bounces[-1].t < delta_min:
                raise BounceAccumulationError(
                    f"bounces at t = {bounces[-1].t} and {t_bounce} are closer than {delta_min}")
            if len(bounces) >= max_bounces:
                raise BounceAccumulationError("bounce count exceeded T / delta_min")
            frame = boundary_frame(table, model, xb)
            g = frame.metric.g
            w_in = vb / np.sqrt(vb @ g @ vb)
            normal_speed = w_in @ g @ frame.nu
            if normal_speed > grazing_tol:
                raise NumericError("crossing detected with inward velocity")
            if abs(normal_speed) <= grazing_tol:
                w_out = w_in
                grazing = True
            else:
                w_out = reflect(frame, w_in)
                grazing = False
            # settle the bounce point onto the boundary so the next step
            # does not re-trigger on residual negative f
            for _ in range(3):
                val = table.f(xb)
                if abs(val) < 1e-14:
                    break
                dfb = table.grad_f(xb)
                xb = xb - (val / (dfb @ dfb)) * dfb
            bounces.append(Bounce(t=t_bounce, x=xb.copy(), w_in=w_in,
                                  w_out=w_out, grazing=grazing))
            x, v = xb, w_out
            t_abs += delta
            remaining -= delta
        t_abs = times[i]
        pts.append(x)
        vels.append(v)

    # terminal boundary hit with outward velocity counts as a bounce
    # (periodic orbits close up there)
    if len(times) > 1 and abs(table.f(x)) <= 1e-9:
        try:
            frame = boundary_frame(table, model, x)
            g = frame.metric.g
            n_speed = v @ g @ frame.nu / np.sqrt(v @ g @ v)
            if n_speed < -grazing_tol and (not bounces or T - bounces[-1].t >= delta_min):
                w_in = v / np.sqrt(v @ g @ v)
                bounces.append(Bounce(t=float(times[-1]), x=x.copy(), w_in=w_in,
                                      w_out=reflect(frame, w_in), grazing=False))
        except PreconditionError:
            pass

    base = SampledCurve(times=times, points=np.array(pts), velocities=np.array(vels))
    return BilliardTrajectory(base=base, bounces=bounces)
