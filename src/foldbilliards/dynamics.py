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
read off the quintic Hermite extension of the step that covers it, after
the steps (this dense output is a continuous extension of the accepted
steps), all samples in one call; a row reads its samples early only when
a step end leaves the patch U, where a sample may stop it.  A flow starts
where its frame exists (fold.frame_at, table.boundary_frame), with v0 unit
in g and tangent there (table.TANGENT_TOL).  Each step end is
Newton-projected (_settle) back onto the level set as it is taken, and each
sample when it is read, its velocity made tangent and of unit speed; a
projection still off after NEWTON_ITERS iterations, and a step below
STEP_FLOOR T, raise NumericError.  refine_tol=None takes fixed RK4 steps
on the grid instead.

A table geodesic is one flow call at the grid times.  A billiard reads
the grid samples of each free segment (from the launch or the last bounce)
off one flow call per window of grid times, with event detection on f
along the exact flow: one guarded search (_first_dip) finds the first dip
below f = 0.  A batched bound on d^2 f / dt^2 clears the intervals that
cannot hide one; each other interval is cut into at most _SPLIT steps and
searched again the same way, down to steps of DELTA_MIN / 2.  Regula falsi
on f(flow(s)) finds the root to |f| <= 1e-10, _settle puts it on f = 0 and
the velocity reflects by the mirror law.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ambient
from .ambient import AmbientModel, _all_finite, _dot, _form
from .errors import (
    BounceAccumulationError,
    InvalidInputError,
    NumericError,
    PreconditionError,
)
from .fold import frame_at
from .table import (UNIT_TOL, TableSpec, _check_tangent, _normal_component, boundary_frame,
                    model_on_table, reflect)

REFINE_TOL = 1e-9
# a level-set step below STEP_FLOOR T raises
STEP_FLOOR = 1e-12
NEWTON_ITERS = 3
NEWTON_F_TOL = 1e-10
BISECT_F_TOL = 1e-10
DELTA_MIN = 1e-4
GRAZING_TOL = 1e-8
# A billiard reads its grid samples off the free flow of a segment a window
# of grid steps at a time, the steps within _WINDOW_SPAN of flow time (one
# step if the grid step is longer).  So the flow is evaluated no further
# than the longer of the two past a sample in the table, where a
# continuation outside it could reach the stereographic pole or overflow
# cosh; the samples flowed in vain past a bounce span no more time either.
_WINDOW_SPAN = 0.5
# a guarded billiard interval is searched in at most _SPLIT equal steps
_SPLIT = 256

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


def _settle(model: AmbientModel, value, egrad, x, t=None):
    """Newton-project the points x, shape (N, dim), in place onto the level
    set {value = 0} along grad F = g^{-1} egrad, and return them.

    Each row iterates until |F| < 1e-14, at most NEWTON_ITERS times, under
    its own mask, so its bits do not depend on the other rows.  NumericError,
    naming the time t of the row when given, when a row still has
    |F| > NEWTON_F_TOL after the last iteration."""
    rows = np.arange(len(x))
    for _ in range(NEWTON_ITERS):
        val = value(x[rows])
        go = np.abs(val) >= 1e-14
        rows, val = rows[go], val[go]
        if not rows.size:
            return x
        xr = x[rows]
        df = egrad(xr)
        grad = _raise_index(model, xr, df)
        denom = _dot(df, grad)
        if (denom < 1e-20).any():
            raise NumericError("projection failed: vanishing gradient")
        x[rows] = xr - (val / denom)[:, None] * grad
    val = np.abs(value(x[rows]))
    if (val > NEWTON_F_TOL).any():
        i = (val > NEWTON_F_TOL).argmax()
        at = "" if t is None else f" at t = {np.broadcast_to(t, len(x))[rows[i]]}"
        raise NumericError(f"Newton projection left |F| = {val[i]} > {NEWTON_F_TOL} "
                           f"after {NEWTON_ITERS} iterations{at}")
    return x


def _project(model: AmbientModel, constraint, x, v, t=None):
    """_settle the points x, shape (..., dim), make v tangent and of unit speed."""
    shape = np.shape(x)
    x = np.array(x, dtype=float).reshape(-1, shape[-1])
    v = np.asarray(v, dtype=float).reshape(x.shape)
    if constraint is not None:
        value, egrad, _ = constraint
        x = _settle(model, value, egrad, x, t)
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
    smaller step while the others advance.  Each step end is projected as
    it is taken.  The grid times of the accepted steps are sampled from
    their quintic Hermite extensions after the loop, in one _quintic and
    one _project call; the per-row masked Newton keeps a sample's bits
    independent of the batch.  NumericError when a step falls below
    STEP_FLOOR T.  refine_tol=None takes fixed RK4 steps on the grid.

    A row stops before its first sample whose point fails inside(): a row
    whose projected step end fails inside() reads its pending samples at
    once, and stops if one of them does.
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
        """Store samples (ascending in time per row) and stop each row before
        its first sample outside."""
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

    # the accepted steps whose grid samples are not read yet, one tuple of
    # (row, t0, h, y0, y0', y1, y1', first grid index, grid count) per step
    pending = []

    def read(rows):
        """Read the pending grid samples of the rows off their steps' quintic
        extensions, projected, and record them; keep the other rows' steps."""
        nonlocal pending
        if not pending:
            return
        cols = [np.concatenate(c) for c in zip(*pending)]
        now = np.isin(cols[0], rows)
        pending = [] if now.all() else [tuple(c[~now] for c in cols)]
        r, t0, hs, y0, f0, y1, f1, lo, cnt = (c[now] for c in cols)
        sel = np.repeat(np.arange(r.size), cnt)
        k_s = np.arange(cnt.sum()) - np.repeat(np.cumsum(cnt) - cnt - lo, cnt)
        if k_s.size:
            th = (times[k_s] - t0[sel]) / hs[sel]
            xs, vs = _quintic(th, hs[sel], y0[sel], f0[sel], y1[sel], f1[sel], d)
            record(r[sel], k_s, *_project(model, constraint, xs, vs, times[k_s]))

    T = times[-1]
    floor = STEP_FLOOR * T
    y = np.concatenate([x0, v0], 1)
    t = np.zeros(B)
    h = _initial_step(f, y, refine_tol)
    # the first grid index of each row not covered by its accepted steps
    nxt = np.ones(B, dtype=int)
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
        # the grid times in (t0, t_end] of each accepted row
        lo = nxt[r_acc]
        cnt = np.searchsorted(times, t_end, side="right") - lo
        nxt[r_acc] += cnt
        pending.append((r_acc, t0[acc], hr[acc], y0[acc], ks[0][acc], y1[acc], ks[-1][acc],
                        lo, cnt))
        go = t_end < T
        active[r_acc[~go]] = False
        if go.any():
            r_go = r_acc[go]
            xe, ve = _project(model, constraint, y1[acc[go], :d], y1[acc[go], d:], t_end[go])
            y[r_go] = np.concatenate([xe, ve], 1)
            t[r_go] = t_end[go]
            # a row whose step end left U reads its samples now: one of them
            # may stop it
            out = ~inside(xe)
            if out.any():
                read(r_go[out])
    read(np.arange(B))
    return pts, vel, filled, exits


def _sampled(times, pts, vel, filled, exits, row) -> SampledCurve:
    """One row of _level_set_flow as a curve on [0, T]."""
    m = filled[row]
    exit_t = None if np.isnan(exits[row]) else float(exits[row])
    return SampledCurve(times=times[:m], points=pts[row, :m], velocities=vel[row, :m],
                        truncated=exit_t is not None, exit_forward=exit_t)


def _check_unit(model, x, v):
    """v finite and |g(v, v) - 1| <= UNIT_TOL at x, as table._normal_component tests it."""
    if not (_all_finite(v) and np.all(np.abs(ambient.inner(model, x, v, v) - 1.0) <= UNIT_TOL)):
        raise PreconditionError("v0 is not a unit vector in g")


def integrate_fold_geodesic(fold, q0, v0, T, dt, two_sided: bool = True,
                            refine_tol: float | None = REFINE_TOL) -> SampledCurve:
    """Geodesic of the fold through q0 with initial velocity v0.

    Integrates on [-T, T] when two_sided (the default), else on [0, T]; the
    two sides are the rows v0 and -v0 of one batch.  Requires q0 where
    frame_at builds a frame, and v0 unit and tangent there.  If the
    projected base point leaves the patch U the curve is truncated on that
    side and flagged.  refine_tol=None takes fixed RK4 steps of size dt.
    """
    q0, v0 = np.asarray(q0, dtype=float), np.asarray(v0, dtype=float)
    frame = frame_at(fold, q0)
    _normal_component(frame, v0, "v0")
    _check_tangent(frame, v0, "v0")
    constraint = (fold.value, fold.euclid_grad, fold.euclid_hess)
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
                        exit_forward=fwd.exit_forward)


def integrate_table_geodesic(model: AmbientModel, x0, v0, T, dt) -> SampledCurve:
    """Unconstrained geodesic of the model through (x0, v0) on [0, T].

    model is the geometry the curve lives in (for a table, the induced
    model on H, i.e. ambient.restricted()).  The samples are one call of
    the closed-form ambient.geodesic_flow from (x0, v0) at the grid times.
    v0 of shape (..., n) broadcasts against x0: the points and velocities
    then have shape (..., N, n) for the N grid times, one curve per launch.
    """
    x0, v0 = np.asarray(x0, dtype=float), np.asarray(v0, dtype=float)
    _check_unit(model, x0, v0)
    times = _grid(T, dt)
    p, v = ambient.geodesic_flow(model, x0, v0, times)
    return SampledCurve(times=times, points=p, velocities=v)


def integrate_boundary_geodesic(table: TableSpec, model: AmbientModel, x0, v0,
                                T, dt) -> SampledCurve:
    """Geodesic of the boundary hypersurface {f = 0} inside (H, g).

    model is the ambient model; the curve runs in the induced geometry on H
    constrained to the table boundary.  Requires x0 where boundary_frame
    builds its frame, and v0 unit and tangent there.
    """
    x0, v0 = np.asarray(x0, dtype=float), np.asarray(v0, dtype=float)
    frame = boundary_frame(table, model, x0)
    _normal_component(frame, v0, "v0")
    _check_tangent(frame, v0, "v0")
    model_H = model_on_table(table, model)
    constraint = (table.f, table.grad_f, table.hess_f)
    times = _grid(T, dt)
    flow = _level_set_flow(model_H, constraint, x0[None], v0[None], times, REFINE_TOL,
                           table.region.contains)
    return _sampled(times, *flow, 0)


def _flow_f_curvature_bound(table, model_H, x, v):
    """Bound on |d^2/dt^2 f(x(t))| at the states (x, v), shape (..., n),
    used to rule out hidden boundary crossings between grid samples."""
    acc = _acceleration(model_H, None, x, v)
    return np.abs(_form(v, table.hess_f(x), v)) + np.abs(_dot(table.grad_f(x), acc))


def _first_dip(table, model_H, flow, d, f, m):
    """The first dip of f below -1e-12 along s -> flow(s) past the ascending
    offsets d, given f and the bounds m of _flow_f_curvature_bound at d:
    (i, (lo, hi, f_lo, f_hi)), a bracket of offsets from d[i] with
    f_lo >= -1e-12 > f_hi, or None.

    The guard clears an interval of length h when f at both ends exceeds
    0.3 max(m) h^2: 2.4 times the Taylor bound m h^2 / 8 on the sag of f below
    its chord, with m read at the interval's ends only.  Each other interval,
    in order, is cut into min(_SPLIT, ceil(h / (DELTA_MIN / 2))) steps, at
    least 2, with f known at its ends: its first dip closes the bracket when
    the steps are DELTA_MIN / 2 or shorter, else they are searched the same way.
    """
    h = np.diff(d)
    clear = np.minimum(f[:-1], f[1:]) > (
        0.15 * (2.0 * np.maximum(m[:-1], m[1:])) * h**2 + 1e-12)
    for i in np.flatnonzero(~clear):
        n = max(2, int(np.ceil(h[i] / (0.5 * DELTA_MIN))))
        s = h[i] * np.arange(min(n, _SPLIT) + 1) / min(n, _SPLIT)
        xs, vs = flow(d[i] + s[1:-1])
        fs = np.concatenate([f[i:i + 1], table.f(xs), f[i + 1:i + 2]])
        if n > _SPLIT:
            ms = np.concatenate([m[i:i + 1], _flow_f_curvature_bound(table, model_H, xs, vs),
                                 m[i + 1:i + 2]])
            hit = _first_dip(table, model_H, lambda u: flow(d[i] + u), s, fs, ms)
            if hit:
                k, (lo, hi, f_lo, f_hi) = hit
                return i, (s[k] + lo, s[k] + hi, f_lo, f_hi)
        elif (dips := np.flatnonzero(fs[1:] < -1e-12)).size:
            k = dips[0]
            return i, (s[k], s[k + 1], fs[k], fs[k + 1])
    return None


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


def _contact(table, model, x, v):
    """The boundary frame at x, the unit velocity w = v / |v|_g and its
    normal component g(w, nu), positive into the table."""
    frame = boundary_frame(table, model, x)
    g = frame.metric.g
    w = v / np.sqrt(v @ g @ v)
    return frame, w, w @ g @ frame.nu


def _bounce(table, model_H, t, xb, vb) -> Bounce:
    """Mirror reflection of the unit velocity at a located crossing; grazing
    contacts continue unreflected.  The point is settled onto the boundary
    (_settle) so the next segment does not re-trigger on residual negative f."""
    frame, w_in, normal_speed = _contact(table, model_H, xb, vb)
    if normal_speed > GRAZING_TOL:
        raise NumericError("crossing detected with inward velocity")
    grazing = bool(abs(normal_speed) <= GRAZING_TOL)
    w_out = w_in if grazing else reflect(frame, w_in)
    x = _settle(model_H, table.f, table.grad_f, np.array([xb], dtype=float), t)[0]
    return Bounce(t=t, x=x, w_in=w_in, w_out=w_out, grazing=grazing)


def billiard_trajectory(table: TableSpec, model: AmbientModel, x0, v0, T,
                        dt) -> BilliardTrajectory:
    """Billiard trajectory in (K, g) from x0 with unit velocity v0 on [0, T].

    Samples each free segment, from the launch or the last bounce, off the
    closed-form table geodesic at the grid times, locates the first
    boundary crossing of f along it to |f| <= 1e-10 and applies the mirror
    reflection law there; the next segment starts at the bounce.  Grazing
    impacts (normal velocity below GRAZING_TOL) continue unreflected and are
    flagged.  Two bounces closer than DELTA_MIN in time abort the run.  A
    run that ends on the boundary inside U, moving out of the table, records
    a last bounce at T.
    """
    x0, v0 = np.asarray(x0, dtype=float), np.asarray(v0, dtype=float)
    model_H = model_on_table(table, model)
    f0 = table.f(x0)
    if f0 < -1e-10:
        raise PreconditionError("x0 is outside the table")
    if not table.region.contains(x0):
        raise PreconditionError("x0 is outside the patch U")
    _check_unit(model_H, x0, v0)
    if abs(f0) <= 1e-10:
        _normal_component(boundary_frame(table, model_H, x0), v0, "v0", in_cone=True)

    times = _grid(T, dt)
    pts = np.empty((len(times), len(x0)))
    vels = np.empty_like(pts)
    pts[0], vels[0] = x0, v0
    bounces: list[Bounce] = []
    # grid steps per window (times[1] is the grid step)
    n_win = max(1, int(_WINDOW_SPAN / times[1])) if len(times) > 1 else 0
    # the segment start (the launch or the last bounce) and the next sample
    t_s, x, v, k = 0.0, x0, v0, 1
    while k < len(times):
        # a window of grid samples from the last filled one, read off the
        # segment's flow at their offsets from its start
        tw = np.maximum(times[k - 1:k + n_win], t_s)
        off = tw - t_s
        xw, vw = ambient.geodesic_flow(model_H, x, v, off)
        hit = _first_dip(table, model_H, lambda s: ambient.geodesic_flow(model_H, x, v, s),
                         off, table.f(xw), _flow_f_curvature_bound(table, model_H, xw, vw))
        # keep the samples before the crossing
        m = len(off) - 1 if hit is None else hit[0]
        pts[k:k + m], vels[k:k + m] = xw[1:m + 1], vw[1:m + 1]
        k += m
        if hit is None:
            continue
        j, bracket = hit
        delta, xb, vb = _locate_crossing(
            table, lambda s: ambient.geodesic_flow(model_H, x, v, off[j] + s), tw[j], *bracket)
        t_b = tw[j] + delta
        if bounces and t_b - bounces[-1].t < DELTA_MIN:
            raise BounceAccumulationError(
                f"bounces at t = {bounces[-1].t} and {t_b} are closer than {DELTA_MIN}")
        bounces.append(_bounce(table, model_H, float(t_b), xb, vb))
        t_s, x, v = t_b, bounces[-1].x, bounces[-1].w_out

    # terminal boundary hit inside U with outward velocity counts as a bounce
    # (periodic orbits close up there); its point is left unsettled
    x, v = pts[-1], vels[-1]
    if len(times) > 1 and abs(table.f(x)) <= 1e-9 and table.region.contains(x):
        frame, w_in, n_speed = _contact(table, model, x, v)
        if n_speed < -GRAZING_TOL and (not bounces or T - bounces[-1].t >= DELTA_MIN):
            bounces.append(Bounce(t=float(times[-1]), x=x.copy(), w_in=w_in,
                                  w_out=reflect(frame, w_in), grazing=False))

    base = SampledCurve(times=times, points=pts, velocities=vels)
    return BilliardTrajectory(base=base, bounces=bounces)
