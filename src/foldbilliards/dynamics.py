"""Geodesic and billiard trajectory integration.

Geodesics are integrated in ambient coordinates with classical RK4.  On a
level set (a fold, or the table boundary) the geodesic equation gains a
normal forcing term:

    x'' = -Gamma(x', x') + mu grad F,   mu = -Hess F(x', x') / |grad F|^2,

and each step ends with a Newton projection back onto the level set plus a
tangential re-projection and renormalization of the velocity.  A level set
is passed as the triple (value, Euclidean gradient, Euclidean Hessian).

A fold curls up with extrinsic curvature of order 1/lam^2 where it crosses
the pinch set {f = 0}, so a fixed step cannot resolve that layer for small
lam.  Steps are therefore refined recursively (step-doubling error control)
inside each fixed output interval; sample times stay on the uniform grid.

All integrators share one sampling loop over that grid; they differ only in
the step they hand it.  The billiard step is a table-geodesic step with
event detection on f, on the step's dense output (the piecewise cubic
Hermite interpolant through its accepted half steps; Hairer, Norsett &
Wanner, Solving ODEs I, II.6): one batched scan brackets the first sign
change, regula falsi finds its root on the interpolant, Newton steps of the
real flow from the last node before it reach |f| <= 1e-10, and the velocity
reflects by the mirror law.
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
        inner = _hermite(p[:-1, None], v[:-1, None], p[1:, None], v[1:, None], h, s)
        steps = np.concatenate([p[:-1, None], inner], axis=1)
        return np.concatenate([steps.reshape(-1, p.shape[1]), p[-1:]])

    def at(self, t) -> np.ndarray:
        """Points of the same interpolant at times t (any shape) inside
        [times[0], times[-1]], shape t.shape + (d,); the grid need not be
        uniform."""
        if self.velocities is None:
            raise InvalidInputError("Hermite interpolation needs the velocities")
        t = np.asarray(t, dtype=float)
        k = np.clip(np.searchsorted(self.times, t, side="right") - 1, 0, len(self.times) - 2)
        h = (self.times[k + 1] - self.times[k])[..., None]
        s = (t - self.times[k])[..., None] / h
        p, v = self.points, self.velocities
        return _hermite(p[k], v[k], p[k + 1], v[k + 1], h, s)


def _hermite(p0, v0, p1, v1, h, s):
    """Cubic Hermite interpolant of (p0, v0) at s = 0 and (p1, v1) at s = 1
    over a step of length h, at the step fractions s."""
    s2, s3 = s * s, s * s * s
    return ((2 * s3 - 3 * s2 + 1) * p0 + (s3 - 2 * s2 + s) * h * v0
            + (3 * s2 - 2 * s3) * p1 + (s3 - s2) * h * v1)


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


def _refined_step(model, constraint, x, v, h, speed, refine_tol, depth=0, nodes=None, t=0.0):
    """One step of size h with recursive step-doubling error control.

    When nodes is a list, the state (t + offset, x, v) at the end of every
    accepted half step is appended to it: the knots of the step's dense
    output, so its error follows refine_tol rather than h."""
    x1, v1 = _rk4_step(model, constraint, x, v, h, speed)
    if refine_tol is None:
        if nodes is not None:
            nodes.append((t + h, x1, v1))
        return x1, v1
    xa, va = _rk4_step(model, constraint, x, v, 0.5 * h, speed)
    x2, v2 = _rk4_step(model, constraint, xa, va, 0.5 * h, speed)
    err = max(np.abs(x1 - x2).max(), np.abs(v1 - v2).max())
    if err <= refine_tol or depth >= MAX_REFINE_DEPTH:
        if nodes is not None:
            nodes += [(t + 0.5 * h, xa, va), (t + h, x2, v2)]
        return x2, v2
    xm, vm = _refined_step(model, constraint, x, v, 0.5 * h, speed, refine_tol, depth + 1,
                           nodes, t)
    return _refined_step(model, constraint, xm, vm, 0.5 * h, speed, refine_tol, depth + 1,
                         nodes, t + 0.5 * h)


def _advance(model, constraint, x, v, h, refine_tol=REFINE_TOL, nodes=None):
    """Advance by h; exact for free Euclidean motion.  nodes as in
    _refined_step."""
    if constraint is None and model.kind == "euclidean":
        x1 = x + h * v
        if nodes is not None:
            nodes.append((h, x1, v))
        return x1, v
    return _refined_step(model, constraint, x, v, h, 1.0, refine_tol, nodes=nodes)


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
    model on H, i.e. ambient.restricted()).  Euclidean curves are exact
    straight lines.
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


def _locate_crossing(table, advance, dense, lo, hi, f_lo, f_hi):
    """The crossing of f = 0 in the bracket [lo, hi] of the dense output of a
    step, where f_lo >= -1e-12 > f_hi.

    The root of f along the interpolant comes from regula falsi (Illinois
    variant), one f probe each.  Safeguarded Newton steps of the real flow,
    each started from the last node before it, then reach |f| <= BISECT_F_TOL.
    Returns (delta, x, v) at the crossing; when no real probe gets there,
    falls back to the inside bracket end lo.
    """
    d = lo
    if f_lo > 0:
        a, fa, b, fb, side = lo, f_lo, hi, f_hi, 0
        for _ in range(60):
            d = (a * fb - b * fa) / (fb - fa)
            fd = table.f(dense.at(d))
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

    def probe(delta):
        k = min(int(np.searchsorted(dense.times, delta, side="right")) - 1,
                len(dense.times) - 2)
        return advance(dense.points[k], dense.velocities[k], delta - dense.times[k])

    for _ in range(8):
        xs, vs = probe(d)
        fs = table.f(xs)
        if abs(fs) <= BISECT_F_TOL:
            return d, xs, vs
        if fs < 0:
            hi = d
        else:
            lo = d
        slope = table.grad_f(xs) @ vs
        d_new = d - fs / slope if slope < 0 else lo
        d = d_new if lo < d_new < hi else 0.5 * (lo + hi)
    return (lo, *probe(lo))


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

    Follows table geodesics, locates boundary crossings of f on each step's
    dense output to |f| <= 1e-10 and applies the mirror reflection law.
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

    def advance(xc, vc, h, nodes=None):
        return _advance(model_H, None, xc, vc, h, nodes=nodes)

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
            nodes = [(0.0, x, v)]
            x1, v1 = advance(x, v, remaining, nodes)
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
            # scan the step's dense output at sub-bounce resolution, with one
            # f call, so the first crossing is the one located; an endpoint
            # crossing brackets the whole step if the scan misses it
            dense = SampledCurve(*map(np.array, zip(*nodes)))
            n_scan = max(2, int(np.ceil(remaining / scan_res)))
            d = remaining * np.arange(1, n_scan + 1) / n_scan
            f_scan = table.f(dense.at(d))
            dips = np.flatnonzero(f_scan < -1e-12)
            if dips.size:
                j = dips[0]
                lo, f_lo = (d[j - 1], f_scan[j - 1]) if j else (0.0, f_start)
                bracket = (lo, d[j], f_lo, f_scan[j])
            elif crossed:
                bracket = (0.0, remaining, f_start, f_end)
            else:
                return x1, v1
            delta, xb, vb = _locate_crossing(table, advance, dense, *bracket)
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
