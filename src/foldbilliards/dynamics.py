"""Geodesic and billiard trajectory integration.

A free geodesic of a model (a table geodesic, or a billiard between bounces)
is the closed-form ambient.geodesic_flow: a straight line, a hyperbola of
the hyperboloid or a great circle of the sphere, read in model coordinates.

Only geodesics of a level set (a fold, or the table boundary) are integrated
numerically, in ambient coordinates with classical RK4.  On the level set
the geodesic equation gains a normal forcing term:

    x'' = -Gamma(x', x') + mu grad F,   mu = -Hess F(x', x') / |grad F|^2,

and each step ends with a Newton projection back onto the level set plus a
tangential re-projection and renormalization of the velocity.  A level set
is passed as the triple (value, Euclidean gradient, Euclidean Hessian).

A fold curls up with extrinsic curvature of order 1/lam^2 where it crosses
the pinch set {f = 0}, so a fixed step cannot resolve that layer for small
lam.  Steps are therefore refined recursively (step-doubling error control)
inside each fixed output interval; sample times stay on the uniform grid.

All integrators share one sampling loop over that grid; they differ only in
the step they hand it.  The billiard step is a free flow step with event
detection on f along the exact flow: one batched flow call and one f call
scan the step for the first sign change, regula falsi on f(flow(s)) finds
its root to |f| <= 1e-10, and the velocity reflects by the mirror law.
"""

from __future__ import annotations

import functools
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

    def hermite(self, refine: int) -> np.ndarray:
        """Points of the cubic Hermite interpolant of (points, velocities) at
        refine equal fractions of every step, shape ((len - 1) refine + 1, d).

        This is the continuous extension of the sampled flow (Hairer, Norsett
        & Wanner, Solving ODEs I, II.6); the samples themselves come back
        bit for bit at every refine-th row.
        """
        if self.velocities is None:
            raise InvalidInputError("Hermite interpolation needs the velocities")
        if refine < 1:
            raise InvalidInputError("refine must be at least 1")
        p, v = self.points, self.velocities
        h = np.diff(self.times)[:, None, None]
        s = (np.arange(1, refine) / refine)[:, None]
        s2, s3 = s * s, s * s * s
        inner = ((2 * s3 - 3 * s2 + 1) * p[:-1, None] + (s3 - 2 * s2 + s) * h * v[:-1, None]
                 + (3 * s2 - 2 * s3) * p[1:, None] + (s3 - s2) * h * v[1:, None])
        steps = np.concatenate([p[:-1, None], inner], axis=1)
        return np.concatenate([steps.reshape(-1, p.shape[1]), p[-1:]])


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


def _raise_index(model: AmbientModel, x, df):
    """The gradient g^{-1} df.  In the euclidean model this is df + 0.0, the
    identity product exactly: it only turns -0.0 into +0.0."""
    if model.kind == "euclidean":
        return df + 0.0
    return ambient.metric_tensor(model, x).g_inv @ df


def _acceleration(model: AmbientModel, constraint, x, v):
    gamma_vv = ambient.christoffel_quadratic(model, x, v)
    acc = -gamma_vv
    if constraint is not None:
        _, egrad, ehess = constraint
        df = egrad(x)
        grad = _raise_index(model, x, df)
        gn2 = df @ grad
        if gn2 < 1e-20:
            raise NumericError("constraint gradient vanished during integration")
        hess_vv = v @ ehess(x) @ v - df @ gamma_vv
        acc = acc - (hess_vv / gn2) * grad
    return acc


def _project(model: AmbientModel, constraint, x, v, speed):
    """Newton-project x onto the level set along grad F, make v tangent and
    rescale it to the prescribed speed."""
    if constraint is not None:
        value, egrad, _ = constraint
        for _ in range(3):
            val = value(x)
            if abs(val) < 1e-14:
                break
            df = egrad(x)
            grad = _raise_index(model, x, df)
            denom = df @ grad
            if denom < 1e-20:
                raise NumericError("projection failed: vanishing gradient")
            x = x - (val / denom) * grad
        df = egrad(x)
        grad = _raise_index(model, x, df)
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
    """One step of size h with recursive step-doubling error control.
    NumericError when a step halved MAX_REFINE_DEPTH times still misses
    refine_tol."""
    x1, v1 = _rk4_step(model, constraint, x, v, h, speed)
    if refine_tol is None:
        return x1, v1
    xa, va = _rk4_step(model, constraint, x, v, 0.5 * h, speed)
    x2, v2 = _rk4_step(model, constraint, xa, va, 0.5 * h, speed)
    err = max(np.abs(x1 - x2).max(), np.abs(v1 - v2).max())
    if err <= refine_tol:
        return x2, v2
    if depth >= MAX_REFINE_DEPTH:
        raise NumericError(f"step of size {h} still has error {err} > refine_tol = "
                           f"{refine_tol} after {depth} halvings")
    xm, vm = _refined_step(model, constraint, x, v, 0.5 * h, speed, refine_tol, depth + 1)
    return _refined_step(model, constraint, xm, vm, 0.5 * h, speed, refine_tol, depth + 1)


def _advance(model, constraint, x, v, h, refine_tol=REFINE_TOL):
    """Advance by h: the closed-form geodesic flow of the model when free,
    RK4 with step doubling on a level set."""
    if constraint is None:
        return ambient.geodesic_flow(model, x, v, h)
    return _refined_step(model, constraint, x, v, h, 1.0, refine_tol)


def _grid(T: float, dt: float) -> np.ndarray:
    """Uniform grid on [0, T].  dt is a target; the actual step divides T."""
    if T < 0 or dt <= 0:
        raise InvalidInputError("need T >= 0 and dt > 0")
    if T == 0:
        return np.array([0.0])
    n = max(1, int(round(T / dt)))
    return np.linspace(0.0, T, n + 1)


def _integrate_one_direction(x0, v0, T, dt, step, inside=None):
    """Sample the flow of step(x, v, t, h) on the uniform grid of [0, T].

    When inside(x) fails at a sample, the curve stops before that sample
    and its time is returned as the exit time (None otherwise).
    """
    times = _grid(T, dt)
    pts = [np.array(x0, dtype=float)]
    vels = [np.array(v0, dtype=float)]
    exit_time = None
    x, v = pts[0], vels[0]
    for i in range(1, len(times)):
        x, v = step(x, v, times[i - 1], times[i] - times[i - 1])
        if inside is not None and not inside(x):
            exit_time = float(times[i])
            break
        pts.append(x)
        vels.append(v)
    n = len(pts)
    return times[:n], np.array(pts), np.array(vels), exit_time


def _geodesic_step(model, constraint, refine_tol=REFINE_TOL):
    return lambda x, v, t, h: _advance(model, constraint, x, v, h, refine_tol)


def _check_unit(model, x, v, label="v0"):
    nrm = ambient.norm(model, x, v)
    if abs(nrm - 1.0) > 1e-8:
        raise PreconditionError(f"{label} must be a unit vector (got |v| = {nrm})")


def _check_start(model, constraint, x0, v0, point: str, surface: str):
    """x0 on the level set with a non-singular gradient, v0 tangent and of
    unit norm in the model."""
    value, egrad, _ = constraint
    if abs(value(x0)) > 1e-8:
        raise PreconditionError(f"{point} is not on the {surface}")
    df = egrad(x0)
    if np.linalg.norm(df) < 1e-10:
        raise PreconditionError(f"the {surface} is singular at {point}")
    if abs(df @ v0) > 1e-8 * max(1.0, float(np.linalg.norm(df))):
        raise PreconditionError(f"v0 is not tangent to the {surface}")
    _check_unit(model, x0, v0)


def integrate_fold_geodesic(fold, q0, v0, T, dt, two_sided: bool = True,
                            refine_tol: float | None = REFINE_TOL) -> SampledCurve:
    """Geodesic of the fold through q0 with initial velocity v0.

    Integrates on [-T, T] when two_sided (the default), else on [0, T].
    Requires q0 on the fold, v0 tangent and of unit ambient norm.  If the
    projected base point leaves the patch U the curve is truncated on that
    side and flagged.  refine_tol=None takes fixed RK4 steps of size dt.
    """
    q0 = np.asarray(q0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    constraint = (fold.value, fold.euclid_grad, fold.euclid_hess)
    _check_start(fold.model, constraint, q0, v0, "q0", "fold")
    step = _geodesic_step(fold.model, constraint, refine_tol)
    region = fold.table.region
    inside = lambda q: region.contains(q[:-1])

    t_f, p_f, v_f, exit_f = _integrate_one_direction(q0, v0, T, dt, step, inside)
    if not two_sided or T == 0:
        return SampledCurve(times=t_f, points=p_f, velocities=v_f,
                            truncated=exit_f is not None, exit_forward=exit_f)
    t_b, p_b, v_b, exit_b = _integrate_one_direction(q0, -v0, T, dt, step, inside)
    times = np.concatenate([-t_b[::-1][:-1], t_f])
    points = np.concatenate([p_b[::-1][:-1], p_f])
    vels = np.concatenate([-v_b[::-1][:-1], v_f])
    return SampledCurve(times=times, points=points, velocities=vels,
                        truncated=exit_f is not None or exit_b is not None,
                        exit_forward=exit_f,
                        exit_backward=None if exit_b is None else -exit_b)


def integrate_table_geodesic(model: AmbientModel, x0, v0, T, dt) -> SampledCurve:
    """Unconstrained geodesic of the model through (x0, v0) on [0, T].

    model is the geometry the curve lives in (for a table, the induced
    model on H, i.e. ambient.restricted()).  Each step is the closed-form
    ambient.geodesic_flow from the previous sample.
    """
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    _check_unit(model, x0, v0)
    t, p, v, _ = _integrate_one_direction(x0, v0, T, dt, _geodesic_step(model, None))
    return SampledCurve(times=t, points=p, velocities=v)


def integrate_boundary_geodesic(table: TableSpec, model: AmbientModel, x0, v0,
                                T, dt) -> SampledCurve:
    """Geodesic of the boundary hypersurface {f = 0} inside (H, g).

    model is the ambient model; the curve runs in the induced geometry on H
    constrained to the table boundary.  Requires x0 on the boundary with a
    non-singular gradient of f, and v0 tangent to it and of unit norm.
    """
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    model_H = model_on_table(table, model)
    constraint = (table.f, table.grad_f, table.hess_f)
    _check_start(model_H, constraint, x0, v0, "x0", "table boundary")
    t, p, v, exit_t = _integrate_one_direction(
        x0, v0, T, dt, _geodesic_step(model_H, constraint), table.region.contains)
    return SampledCurve(times=t, points=p, velocities=v,
                        truncated=exit_t is not None, exit_forward=exit_t)


def _flow_f_curvature_bound(table, model_H, x, v):
    """Bound on |d^2/dt^2 f(x(t))| at the state, used to rule out hidden
    boundary crossings inside a step."""
    acc = _acceleration(model_H, None, x, v)
    return abs(v @ table.hess_f(x) @ v) + abs(table.grad_f(x) @ acc)


def _locate_crossing(table, flow, t, lo, hi, f_lo, f_hi):
    """The crossing of f = 0 along the exact flow s -> flow(s) of the step
    that starts at time t, in the bracket [lo, hi] of step offsets, where
    f_lo >= -1e-12 > f_hi.

    Regula falsi (Illinois variant), one f probe each, runs until |f| <= 1e-15
    or the bracket stops shrinking, and its last probe must reach
    |f| <= BISECT_F_TOL.  Returns (delta, x, v) at the crossing; NumericError,
    naming t and the bracket, when f changes sign there without a root.
    """
    a, fa, b, fb, side = lo, f_lo, hi, f_hi, 0
    for _ in range(100):
        d = a if fa <= 0 else (a * fb - b * fa) / (fb - fa)
        xd, vd = flow(d)
        fd = table.f(xd)
        if abs(fd) <= 1e-15 or not a < d < b:
            break
        if fd < 0:
            b, fb = d, fd
            fa = 0.5 * fa if side < 0 else fa
            side = -1
        else:
            a, fa = d, fd
            fb = 0.5 * fb if side > 0 else fb
            side = 1
    if abs(fd) <= BISECT_F_TOL:
        return d, xd, vd
    raise NumericError(f"no root of f in the bracket [{t + lo}, {t + hi}] of the step from "
                       f"t = {t}: f = {f_lo} and {f_hi} at its ends, {fd} at the last probe")


def _bounce(table, model, t, xb, vb) -> Bounce:
    """Mirror reflection of the unit velocity at a located crossing; grazing
    contacts continue unreflected.  The point is settled onto the boundary
    so the next step does not re-trigger on residual negative f."""
    frame = boundary_frame(table, model, xb)
    g = frame.metric.g
    w_in = vb / np.sqrt(vb @ g @ vb)
    normal_speed = w_in @ g @ frame.nu
    if normal_speed > GRAZING_TOL:
        raise NumericError("crossing detected with inward velocity")
    if abs(normal_speed) <= GRAZING_TOL:
        w_out = w_in
        grazing = True
    else:
        w_out = reflect(frame, w_in)
        grazing = False
    for _ in range(3):
        val = table.f(xb)
        if abs(val) < 1e-14:
            break
        dfb = table.grad_f(xb)
        xb = xb - (val / (dfb @ dfb)) * dfb
    return Bounce(t=t, x=xb.copy(), w_in=w_in, w_out=w_out, grazing=grazing)


def billiard_trajectory(table: TableSpec, model: AmbientModel, x0, v0, T,
                        dt) -> BilliardTrajectory:
    """Billiard trajectory in (K, g) from x0 with unit velocity v0 on [0, T].

    Follows table geodesics in closed form, locates boundary crossings of f
    along them to |f| <= 1e-10 and applies the mirror reflection law.
    Grazing impacts (normal velocity below GRAZING_TOL) continue unreflected
    and are flagged.  Two bounces closer than DELTA_MIN in time abort the
    run.
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

    bounces: list[Bounce] = []
    max_bounces = int(np.ceil(T / DELTA_MIN)) + 4
    scan_res = 0.5 * DELTA_MIN
    # (x, f(x), flow bound at x) at the end of the last step taken in full,
    # where the next step starts
    last_end = (None, None, None)

    def bound(xc, vc):
        return _flow_f_curvature_bound(table, model_H, xc, vc)

    def step(x, v, t, h):
        """Advance by h, reflecting at every boundary crossing on the way."""
        nonlocal last_end
        remaining = h
        guard = 0
        while remaining > 1e-14:
            guard += 1
            if guard > 10000:
                raise NumericError("billiard step did not terminate")
            flow = functools.partial(ambient.geodesic_flow, model_H, x, v)
            x1, v1 = flow(remaining)
            f_end = table.f(x1)
            f_start, m_start = last_end[1:] if last_end[0] is x else (table.f(x), None)
            crossed = f_end < -1e-12
            if not crossed:
                # rule out an excursion below f = 0 inside the step
                m_start = bound(x, v) if m_start is None else m_start
                m_end = bound(x1, v1)
                last_end = (x1, f_end, m_end)
                m2 = 2.0 * max(m_start, m_end)
                if min(f_start, f_end) > 0.15 * m2 * remaining**2 + 1e-12:
                    return x1, v1
            # scan the flow at sub-bounce resolution, with one flow call and
            # one f call, so the first crossing is the one located; an
            # endpoint crossing brackets the whole step if the scan misses it
            n_scan = max(2, int(np.ceil(remaining / scan_res)))
            d = remaining * np.arange(1, n_scan + 1) / n_scan
            f_scan = table.f(flow(d)[0])
            dips = np.flatnonzero(f_scan < -1e-12)
            if dips.size:
                j = dips[0]
                lo, f_lo = (d[j - 1], f_scan[j - 1]) if j else (0.0, f_start)
                bracket = (lo, d[j], f_lo, f_scan[j])
            elif crossed:
                bracket = (0.0, remaining, f_start, f_end)
            else:
                return x1, v1
            delta, xb, vb = _locate_crossing(table, flow, t, *bracket)
            t += delta
            if bounces and t - bounces[-1].t < DELTA_MIN:
                raise BounceAccumulationError(
                    f"bounces at t = {bounces[-1].t} and {t} are closer than {DELTA_MIN}")
            if len(bounces) >= max_bounces:
                raise BounceAccumulationError("bounce count exceeded T / DELTA_MIN")
            bounces.append(_bounce(table, model, t, xb, vb))
            x, v = bounces[-1].x, bounces[-1].w_out
            remaining -= delta
        return x, v

    times, pts, vels, _ = _integrate_one_direction(x0, v0, T, dt, step)
    x, v = pts[-1], vels[-1]

    # terminal boundary hit with outward velocity counts as a bounce
    # (periodic orbits close up there); its point is left unsettled
    if len(times) > 1 and abs(table.f(x)) <= 1e-9:
        try:
            frame = boundary_frame(table, model, x)
            g = frame.metric.g
            n_speed = v @ g @ frame.nu / np.sqrt(v @ g @ v)
            if n_speed < -GRAZING_TOL and (not bounces or T - bounces[-1].t >= DELTA_MIN):
                w_in = v / np.sqrt(v @ g @ v)
                bounces.append(Bounce(t=float(times[-1]), x=x.copy(), w_in=w_in,
                                      w_out=reflect(frame, w_in), grazing=False))
        except PreconditionError:
            pass

    base = SampledCurve(times=times, points=pts, velocities=vels)
    return BilliardTrajectory(base=base, bounces=bounces)
