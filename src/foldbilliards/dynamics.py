"""Geodesic and billiard trajectory integration.

A free geodesic of a model (a table geodesic, or a billiard between bounces)
is the closed-form ambient.geodesic_flow: a straight line, a hyperbola of
the hyperboloid or a great circle of the sphere, read in model coordinates.

Only geodesics of a level set (a fold, or the table boundary) are integrated
numerically, in ambient coordinates.  On the level set the geodesic
equation gains a normal forcing term:

    x'' = -Gamma(x', x') + mu grad F,   mu = -Hess F(x', x') / |grad F|^2.

A level set is passed as the triple (value, Euclidean gradient, Euclidean
Hessian), each batch-first.  One core advances a (B, d) batch of states:
the two sides of a fold geodesic are its two rows.  Each row takes embedded
Dormand-Prince 5(4) steps of its own size, with error control at
REFINE_TOL, so the steps shrink where a fold curls up with extrinsic
curvature of order 1/lam^2 across the pinch set {f = 0} and grow on its
flat sheets.  Steps are not tied to the output grid: each grid sample is
read off the quintic Hermite extension of the step that covers it.  Every
sample and every step end is Newton-projected back onto the level set, its
velocity made tangent and of unit speed; a projection still off after
NEWTON_ITERS iterations, and a step below STEP_FLOOR T, raise NumericError.
refine_tol=None takes fixed RK4 steps on the grid instead.

Table geodesics and billiards sample the output grid step by step.  The
billiard step is a free flow step with event detection on f along the
exact flow: one batched flow call and one f call scan the step for the
first sign change, regula falsi on f(flow(s)) finds its root to
|f| <= 1e-10, and the velocity reflects by the mirror law.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import ambient
from .ambient import AmbientModel, _dot, _form
from .errors import (
    BounceAccumulationError,
    InvalidInputError,
    NumericError,
    PreconditionError,
)
from .table import TableSpec, boundary_frame, model_on_table, reflect

REFINE_TOL = 1e-9
# a level-set step below STEP_FLOOR T raises
STEP_FLOOR = 1e-12
NEWTON_ITERS = 3
NEWTON_F_TOL = 1e-10
BISECT_F_TOL = 1e-10
DELTA_MIN = 1e-4
GRAZING_TOL = 1e-8

# The Dormand & Prince (1980) 5(4) pair: the stage weights of stages 2-6,
# the fifth-order weights and the error weights (fifth minus embedded fourth
# order, over the six stages and the end state); Hairer, Norsett & Wanner,
# Solving ODEs I, II.5
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# Quintic Hermite basis on [0, 1] for (x0, h v0, h^2 a0, x1, h v1, h^2 a1),
# one column per basis function, one row per power of theta
_QUINTIC = np.array([
    [1, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0],
    [0, 0, 0.5, 0, 0, 0],
    [-10, -6, -1.5, 10, -4, 0.5],
    [15, 8, 1.5, -15, 7, -1],
    [-6, -3, -0.5, 6, -3, 0.5],
])


@dataclass
class SampledCurve:
    """A curve sampled on a uniform time grid with its velocities."""

    times: np.ndarray
    points: np.ndarray
    velocities: np.ndarray | None = None
    truncated: bool = False
    exit_forward: float | None = None
    exit_backward: float | None = None

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
    """The gradients g^{-1} df at the points x, shape (..., dim).  In the
    euclidean model this is df + 0.0, the identity product exactly: it only
    turns -0.0 into +0.0."""
    if model.kind == "euclidean":
        return df + 0.0
    return (ambient.metric_tensor(model, x).g_inv @ df[..., None])[..., 0]


def _acceleration(model: AmbientModel, constraint, x, v):
    """x'' at the states (x, v), shape (..., dim): the model's geodesic
    acceleration plus, on a level set, its normal forcing term."""
    gamma_vv = ambient.christoffel_quadratic(model, x, v)
    acc = -gamma_vv
    if constraint is not None:
        _, egrad, ehess = constraint
        df = egrad(x)
        grad = _raise_index(model, x, df)
        gn2 = _dot(df, grad)
        if (gn2 < 1e-20).any():
            raise NumericError("constraint gradient vanished during integration")
        hess_vv = _form(v, ehess(x), v) - _dot(df, gamma_vv)
        acc = acc - (hess_vv / gn2)[..., None] * grad
    return acc


def _project(model: AmbientModel, constraint, x, v, t=None):
    """Newton-project the points x, shape (..., dim), onto the level set along
    grad F, make v tangent and rescale it to unit speed.

    Each row iterates until |F| < 1e-14, at most NEWTON_ITERS times, under
    its own mask, so its bits do not depend on the other rows.  NumericError,
    naming the time t of the row when given, when a row still has
    |F| > NEWTON_F_TOL after the last iteration."""
    shape = np.shape(x)
    x = np.array(x, dtype=float).reshape(-1, shape[-1])
    v = np.asarray(v, dtype=float).reshape(x.shape)
    if constraint is not None:
        value, egrad, _ = constraint
        rows = np.arange(len(x))
        for _ in range(NEWTON_ITERS):
            val = value(x[rows])
            go = np.abs(val) >= 1e-14
            rows, val = rows[go], val[go]
            if not rows.size:
                break
            xr = x[rows]
            df = egrad(xr)
            grad = _raise_index(model, xr, df)
            denom = _dot(df, grad)
            if (denom < 1e-20).any():
                raise NumericError("projection failed: vanishing gradient")
            x[rows] = xr - (val / denom)[:, None] * grad
        else:
            val = np.abs(value(x[rows]))
            if (val > NEWTON_F_TOL).any():
                i = (val > NEWTON_F_TOL).argmax()
                at = "" if t is None else f" at t = {np.broadcast_to(t, len(x))[rows[i]]}"
                raise NumericError(f"Newton projection left |F| = {val[i]} > {NEWTON_F_TOL} "
                                   f"after {NEWTON_ITERS} iterations{at}")
        df = egrad(x)
        grad = _raise_index(model, x, df)
        v = v - (_dot(df, v) / _dot(df, grad))[:, None] * grad
    nrm = ambient.norm(model, x, v)
    if (nrm < 1e-14).any():
        raise NumericError("velocity collapsed during integration")
    return x.reshape(shape), ((1.0 / nrm)[:, None] * v).reshape(shape)


def _rk4_step(model, constraint, x, v, h, t=None):
    """One classical RK4 step of size h from the states (x, v), projected."""
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
    return _project(model, constraint, xn, vn, t)


def _grid(T: float, dt: float) -> np.ndarray:
    """Uniform grid on [0, T].  dt is a target; the actual step divides T."""
    if T < 0 or dt <= 0:
        raise InvalidInputError("need T >= 0 and dt > 0")
    if T == 0:
        return np.array([0.0])
    n = max(1, int(round(T / dt)))
    return np.linspace(0.0, T, n + 1)


def _integrate_one_direction(x0, v0, T, dt, step):
    """Sample the flow of step(x, v, t, h) on the uniform grid of [0, T]."""
    times = _grid(T, dt)
    pts = [np.array(x0, dtype=float)]
    vels = [np.array(v0, dtype=float)]
    x, v = pts[0], vels[0]
    for i in range(1, len(times)):
        x, v = step(x, v, times[i - 1], times[i] - times[i - 1])
        pts.append(x)
        vels.append(v)
    return times, np.array(pts), np.array(vels)


def _combine(weights, ks):
    """sum_i w_i k_i over the nonzero weights."""
    return sum(w * k for w, k in zip(weights, ks) if w)


def _quintic(theta, h, y0, f0, y1, f1, d):
    """Points and velocities at the fractions theta of steps of sizes h from
    the states y0 = (x0, v0) to y1 with y' = f = (v, a), all rows of shape
    (S, 2d): the quintic Hermite interpolant of x, v and a at both ends and
    its derivative, fifth order in h (Hairer, Norsett & Wanner, Solving
    ODEs I, II.6)."""
    hc = h[:, None]
    ends = (y0[:, :d], hc * f0[:, :d], hc * hc * f0[:, d:],
            y1[:, :d], hc * f1[:, :d], hc * hc * f1[:, d:])
    # elementwise sums, so a row's bits do not depend on the number of rows
    th = theta[:, None]
    w = sum(th ** k * _QUINTIC[k] for k in range(6))
    dw = sum(k * th ** (k - 1) * _QUINTIC[k] for k in range(1, 6))
    return (sum(w[:, j, None] * e for j, e in enumerate(ends)),
            sum(dw[:, j, None] * e for j, e in enumerate(ends)) / hc)


def _initial_step(f, y, tol):
    """First step size of each row from the size of y' and of its change
    over a trial step (Hairer, Norsett & Wanner, Solving ODEs I, II.4), so
    the steps depend on the initial state and tol, not on the output grid."""
    f0 = f(y)
    d0, d1 = (np.abs(a).max(axis=1) / tol for a in (y, f0))
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / np.maximum(d1, 1e-300))
    d2 = np.abs(f(y + h0[:, None] * f0) - f0).max(axis=1) / (tol * h0)
    m = np.maximum(d1, d2)
    h1 = np.where(m <= 1e-15, np.maximum(1e-6, 1e-3 * h0), (0.01 / np.maximum(m, 1e-300)) ** 0.2)
    return np.minimum(100 * h0, h1)


def _level_set_flow(model, constraint, x0, v0, times, refine_tol, inside):
    """Geodesics of a level set from the rows of (x0, v0), shape (B, dim),
    sampled on the grid times (times[0] = 0), all rows in one batch.

    With refine_tol, Dormand-Prince 5(4) steps of each row's own size, not
    tied to the grid, accepted when the embedded error estimate (max-norm
    over x and v) is at most refine_tol; a rejected row retries with a
    smaller step while the others advance.  Every grid time in an accepted
    step is sampled from the step's quintic Hermite extension, and samples
    and step ends are projected.  NumericError when a step falls below
    STEP_FLOOR T.  refine_tol=None takes fixed RK4 steps on the grid.

    A row stops before its first sample whose point fails inside().
    Returns the points and velocities, shape (B, len(times), dim), the
    number of samples of each row and each row's exit time (nan when it
    stayed inside)."""
    B, d = x0.shape
    n = len(times)
    pts = np.empty((B, n, d))
    vel = np.empty((B, n, d))
    pts[:, 0], vel[:, 0] = x0, v0
    filled = np.ones(B, dtype=int)
    exits = np.full(B, np.nan)
    active = np.ones(B, dtype=bool)
    if n == 1:
        return pts, vel, filled, exits

    def record(rows, ks, xs, vs):
        """Store samples (row-major, ascending in time per row) and stop each
        row before its first sample outside."""
        pts[rows, ks], vel[rows, ks] = xs, vs
        np.maximum.at(filled, rows, ks + 1)
        out = ~inside(xs)
        for r in np.unique(rows[out]):
            k = ks[out & (rows == r)].min()
            exits[r], filled[r], active[r] = times[k], k, False

    if refine_tol is None:
        x, v = x0.copy(), v0.copy()
        for i in range(1, n):
            rows = np.flatnonzero(active)
            if not rows.size:
                break
            x[rows], v[rows] = _rk4_step(model, constraint, x[rows], v[rows],
                                         times[i] - times[i - 1], times[i])
            record(rows, np.full(rows.size, i), x[rows], v[rows])
        return pts, vel, filled, exits

    def f(y):
        return np.concatenate([y[:, d:], _acceleration(model, constraint, y[:, :d], y[:, d:])], 1)

    T = times[-1]
    floor = STEP_FLOOR * T
    y = np.concatenate([x0, v0], 1)
    t = np.zeros(B)
    h = _initial_step(f, y, refine_tol)
    while (rows := np.flatnonzero(active)).size:
        y0, t0 = y[rows], t[rows]
        # a step that would end within 1 % of T stretches to end on it
        last = t0 + 1.01 * h[rows] >= T
        hr = np.where(last, T - t0, h[rows])
        # not >=, so that a step gone nan (a non-finite acceleration) raises too
        if not (hr >= floor).all():
            i = hr.argmin()
            raise NumericError(f"step {hr[i]} at t = {t0[i]} fell below the floor "
                               f"{STEP_FLOOR} T = {floor}")
        hc = hr[:, None]
        ks = [f(y0)]
        for a in _DP_A:
            ks.append(f(y0 + hc * _combine(a, ks)))
        y1 = y0 + hc * _combine(_DP_B, ks)
        ks.append(f(y1))
        err = np.abs(hc * _combine(_DP_E, ks)).max(axis=1)
        ok = err <= refine_tol
        with np.errstate(divide="ignore"):
            fac = 0.9 * (refine_tol / err) ** 0.2
        # a rejected row does not grow its step; a non-finite error shrinks it
        h[rows] = hr * np.fmin(np.fmax(fac, 0.2), np.where(ok, 5.0, 1.0))
        acc = np.flatnonzero(ok)
        if not acc.size:
            continue
        r_acc, t_end = rows[acc], np.where(last[acc], T, t0[acc] + hr[acc])
        # the grid times in (t0, t_end] of each accepted row, row by row
        lo = filled[r_acc]
        cnt = np.searchsorted(times, t_end, side="right") - lo
        sel = np.repeat(np.arange(acc.size), cnt)
        k_s = np.arange(cnt.sum()) - np.repeat(np.cumsum(cnt) - cnt - lo, cnt)
        if k_s.size:
            th = (times[k_s] - t0[acc][sel]) / hr[acc][sel]
            xs, vs = _quintic(th, hr[acc][sel], y0[acc][sel], ks[0][acc][sel],
                              y1[acc][sel], ks[-1][acc][sel], d)
            record(r_acc[sel], k_s, *_project(model, constraint, xs, vs, times[k_s]))
        go = active[r_acc] & (t_end < T)
        active[r_acc[~go]] = False
        if go.any():
            xe, ve = _project(model, constraint, y1[acc[go], :d], y1[acc[go], d:], t_end[go])
            y[r_acc[go]] = np.concatenate([xe, ve], 1)
            t[r_acc[go]] = t_end[go]
    return pts, vel, filled, exits


def _sampled(times, pts, vel, filled, exits, row) -> SampledCurve:
    """One row of _level_set_flow as a curve on [0, T]."""
    m = filled[row]
    exit_t = None if np.isnan(exits[row]) else float(exits[row])
    return SampledCurve(times=times[:m], points=pts[row, :m], velocities=vel[row, :m],
                        truncated=exit_t is not None, exit_forward=exit_t)


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

    Integrates on [-T, T] when two_sided (the default), else on [0, T]; the
    two sides are the rows v0 and -v0 of one batch.  Requires q0 on the
    fold, v0 tangent and of unit ambient norm.  If the projected base point
    leaves the patch U the curve is truncated on that side and flagged.
    refine_tol=None takes fixed RK4 steps of size dt.
    """
    q0 = np.asarray(q0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    constraint = (fold.value, fold.euclid_grad, fold.euclid_hess)
    _check_start(fold.model, constraint, q0, v0, "q0", "fold")
    region = fold.table.region
    times = _grid(T, dt)
    sides = np.stack([v0, -v0]) if two_sided and T > 0 else v0[None]
    flow = _level_set_flow(fold.model, constraint, np.broadcast_to(q0, sides.shape), sides,
                           times, refine_tol, lambda q: region.contains(q[..., :-1]))
    fwd = _sampled(times, *flow, 0)
    if len(sides) == 1:
        return fwd
    bwd = _sampled(times, *flow, 1)
    return SampledCurve(times=np.concatenate([-bwd.times[::-1][:-1], fwd.times]),
                        points=np.concatenate([bwd.points[::-1][:-1], fwd.points]),
                        velocities=np.concatenate([-bwd.velocities[::-1][:-1], fwd.velocities]),
                        truncated=fwd.truncated or bwd.truncated,
                        exit_forward=fwd.exit_forward,
                        exit_backward=None if bwd.exit_forward is None else -bwd.exit_forward)


def integrate_table_geodesic(model: AmbientModel, x0, v0, T, dt) -> SampledCurve:
    """Unconstrained geodesic of the model through (x0, v0) on [0, T].

    model is the geometry the curve lives in (for a table, the induced
    model on H, i.e. ambient.restricted()).  Each step is the closed-form
    ambient.geodesic_flow from the previous sample.
    """
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    _check_unit(model, x0, v0)
    t, p, v = _integrate_one_direction(
        x0, v0, T, dt, lambda x, v, t, h: ambient.geodesic_flow(model, x, v, h))
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
    times = _grid(T, dt)
    flow = _level_set_flow(model_H, constraint, x0[None], v0[None], times, REFINE_TOL,
                           table.region.contains)
    return _sampled(times, *flow, 0)


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

    times, pts, vels = _integrate_one_direction(x0, v0, T, dt, step)
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
