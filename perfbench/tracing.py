"""Spans around every public function of the foldbilliards layers.

The tracer replaces each public function in every module namespace that
binds it (``foldbilliards``, ``ambient``, ``table``, ``fold``, ``dynamics``,
``analysis``, ``config``, ``runner``, ``cli``) with one wrapper, and wraps
the public methods of ``TableSpec``, ``Region`` and ``Fold`` on their
classes.  Intra-module calls go through module globals, so they are traced
too.  A span records its name, start, end, parent span, run id (the index of
the experiment it belongs to) and whether it raised; spans stay in compact
arrays in memory and are written out when the traced run ends.

Span names are ``<layer>.<function>`` or ``<layer>.<Class>.<method>``; the
``config``, ``runner`` and ``cli`` modules form the ``runner`` layer.
"""

from __future__ import annotations

import functools
import time
import types
from array import array
from collections import defaultdict

import numpy as np

LAYERS = {
    "foldbilliards.ambient": "ambient",
    "foldbilliards.table": "table",
    "foldbilliards.fold": "fold",
    "foldbilliards.dynamics": "dynamics",
    "foldbilliards.analysis": "analysis",
    "foldbilliards.config": "runner",
    "foldbilliards.runner": "runner",
    "foldbilliards.cli": "runner",
}
TRACED_CLASSES = (("foldbilliards.table", "TableSpec"), ("foldbilliards.table", "Region"),
                  ("foldbilliards.fold", "Fold"))
# integrators whose acceleration evaluations and f probes are attributed to them
OWNERS = ("dynamics.integrate_fold_geodesic", "dynamics.integrate_boundary_geodesic",
          "dynamics.integrate_table_geodesic", "dynamics.billiard_trajectory")


# --------------------------------------------------------------------------
# result hooks: machine-independent counts read off arguments and results


def _distance_cross(extra, args, kwargs, result):
    pairs = result.shape[0] * result.shape[1]
    extra["ambient.distance_cross.pairs"] += pairs
    extra["ambient.distance_cross.bytes_out"] += 8 * pairs


def _scan(extra, args, kwargs, result):
    extra["fold.sectional_evals"] += result.n_samples
    extra["fold.scan_skipped"] += result.n_skipped


def _add_steps(extra, span, curve):
    extra[f"{span}.output_steps"] += len(curve.times) - 1


def _fold_geodesic(extra, args, kwargs, result):
    _add_steps(extra, "dynamics.integrate_fold_geodesic", result)
    fold = args[0]
    pts = result.points
    drift = np.abs(pts[:, -1] ** 2 - fold.lam**2 * fold.table.shape.f_many(pts[:, :-1]))
    key = "dynamics.fold_constraint_drift"
    extra[key] = max(extra[key], float(drift.max()))


def _boundary_geodesic(extra, args, kwargs, result):
    _add_steps(extra, "dynamics.integrate_boundary_geodesic", result)


def _table_geodesic(extra, args, kwargs, result):
    _add_steps(extra, "dynamics.integrate_table_geodesic", result)


def _billiard(extra, args, kwargs, result):
    _add_steps(extra, "dynamics.billiard_trajectory", result.base)
    extra["dynamics.billiard_trajectory.bounces"] += len(result.bounces)
    extra["dynamics.billiard_trajectory.grazing"] += sum(b.grazing for b in result.bounces)


def _boundary_experiment(extra, args, kwargs, result):
    key = "analysis.max_rel_error"
    extra[key] = max(extra[key], max(result.details["rel_errors"]))


def _fold_experiment(extra, args, kwargs, result):
    key = "analysis.final_sup"
    extra[key] = max(extra[key], result.final_sup)


HOOKS = {
    "ambient.distance_cross": _distance_cross,
    "fold.scan_curvature": _scan,
    "dynamics.integrate_fold_geodesic": _fold_geodesic,
    "dynamics.integrate_boundary_geodesic": _boundary_geodesic,
    "dynamics.integrate_table_geodesic": _table_geodesic,
    "dynamics.billiard_trajectory": _billiard,
    "analysis.boundary_geodesic_experiment": _boundary_experiment,
    "analysis.fold_convergence_experiment": _fold_experiment,
}


class Tracer:
    """Span recorder; use as a context manager around the traced calls."""

    def __init__(self, modules: dict[str, types.ModuleType]):
        self._modules = modules
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("q")
        self.end = array("q")
        self.raised = array("b")
        self.extra: defaultdict[str, float] = defaultdict(float)
        self.run_id = -1
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span: str):
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        name_id = self._ids[span]
        hook = HOOKS.get(span)
        names, parents, runs = self.name, self.parent, self.run
        starts, ends, raised, stack = self.start, self.end, self.raised, self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            runs.append(tracer.run_id)
            raised.append(0)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer.extra, args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        wrappers = {}
        for mod in self._modules.values():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ not in LAYERS):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, f"{LAYERS[obj.__module__]}.{obj.__name__}")
                self._restore.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
        for mod_name, cls_name in TRACED_CLASSES:
            cls = getattr(self._modules[mod_name], cls_name)
            for attr, obj in list(vars(cls).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                self._restore.append((cls, attr, obj))
                setattr(cls, attr, self._wrap(obj, f"{LAYERS[mod_name]}.{cls_name}.{attr}"))
        return self

    def __exit__(self, *exc):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()
        return False

    # ----------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "run": np.frombuffer(self.run, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "raised": np.frombuffer(self.raised, dtype=np.int8),
        }

    def save(self, path) -> None:
        """Write all spans and the name table to an .npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_stats(self) -> dict[str, float]:
        """calls / total_s / self_s / errors per span name, plus the derived
        per-layer counts and ratios.  Every wrapped name is present, with
        zeros when it was never called."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        k = len(self.names)
        dur = (a["end_ns"] - a["start_ns"]) / 1e9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=self_time, minlength=k)
        errors = np.bincount(name, weights=a["raised"], minlength=k)
        out: dict[str, float] = {}
        for i, span in enumerate(self.names):
            out[f"{span}.calls"] = int(calls[i])
            out[f"{span}.total_s"] = float(total[i])
            out[f"{span}.self_s"] = float(self_s[i])
            out[f"{span}.errors"] = int(errors[i])
        for key, val in self.extra.items():
            out[key] = val

        # nearest enclosing integrator of every span
        is_owner = np.zeros(k + 1, dtype=bool)
        for span in OWNERS:
            if span in self._ids:
                is_owner[self._ids[span]] = True
        name_of = np.append(name, k)  # index -1 maps to the sentinel name k
        owner = parent.copy()
        while True:
            walk = (owner >= 0) & ~is_owner[name_of[owner]]
            if not walk.any():
                break
            owner[walk] = parent[owner[walk]]

        def owned(span, owner_span):
            if span not in self._ids or owner_span not in self._ids:
                return 0
            sel = (name == self._ids[span]) & (owner >= 0)
            return int((name[owner[sel]] == self._ids[owner_span]).sum())

        for span in OWNERS:
            steps = out.get(f"{span}.output_steps", 0)
            out[f"{span}.output_steps"] = int(steps)
            accel = owned("ambient.christoffel_quadratic", span)
            out[f"{span}.accel_evals"] = accel
            out[f"{span}.accel_per_step"] = accel / steps if steps else 0.0
        bounces = out.get("dynamics.billiard_trajectory.bounces", 0)
        probes = owned("table.TableSpec.f", "dynamics.billiard_trajectory")
        out["dynamics.billiard_trajectory.bounces"] = int(bounces)
        out["dynamics.billiard_trajectory.grazing"] = int(
            out.get("dynamics.billiard_trajectory.grazing", 0))
        out["dynamics.billiard_trajectory.f_probes_per_bounce"] = (
            probes / bounces if bounces else 0.0)

        frames = out.get("fold.frame_at.calls", 0) - out.get("fold.frame_at.errors", 0)
        evals = int(out.get("fold.sectional_evals", 0))
        skipped = int(out.get("fold.scan_skipped", 0))
        out["fold.frames_built"] = frames
        out["fold.sectional_evals"] = evals
        out["fold.sectional_per_frame"] = evals / frames if frames else 0.0
        out["fold.scan_skip_share"] = skipped / (evals + skipped) if evals + skipped else 0.0
        out["fold.Fold.constraint_calls"] = sum(
            out.get(f"fold.Fold.{m}.calls", 0) for m in ("value", "euclid_grad", "euclid_hess"))
        for key in ("ambient.distance_cross.pairs", "ambient.distance_cross.bytes_out"):
            out[key] = int(out.get(key, 0))
        for key in ("dynamics.fold_constraint_drift", "analysis.max_rel_error",
                    "analysis.final_sup"):
            out[key] = float(out.get(key, 0.0))
        return out
