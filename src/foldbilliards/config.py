"""JSON experiment configs with schema validation.

A config names one experiment over one (table, model) pair plus numeric
parameters.  Validation is strict: unknown keys are rejected with their
full path, tolerances must be positive, and dimensions must be consistent,
so a config error never surfaces as a numerics error mid-run.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import runner
from .ambient import AmbientModel, MODEL_KINDS
from .errors import ConfigError
from .table import BUILTIN_TABLES, PolynomialShape, Region, TableSpec

CURVE_KINDS = ("arc", "corner", "convex-kink", "billiard")
TRAJECTORY_TARGETS = ("billiard", "fold-geodesic", "table-geodesic", "boundary-geodesic")
# optional top-level keys; absent ones take the ExperimentConfig defaults
_OPTIONAL_TOP_KEYS = ("seed", "out_dir", "description")


@dataclass
class ExperimentConfig:
    experiment: str
    table: TableSpec
    model: AmbientModel
    parameters: dict
    seed: int = 0
    out_dir: str | None = None
    description: str = ""
    raw: dict = field(default_factory=dict)

    @property
    def spec(self) -> Experiment:
        """The registry entry of this config's experiment."""
        return EXPERIMENTS[self.experiment]


# --------------------------------------------------------------------------
# validation helpers: every failure carries the key path; optional keys
# that are absent validate to None


def _fail(path: str, msg: str):
    raise ConfigError(f"{path}: {msg}")


def _check_keys(d: dict, path: str, required: tuple, optional: tuple):
    if not isinstance(d, dict):
        _fail(path, "expected an object")
    for k in d:
        if k not in required and k not in optional:
            _fail(f"{path}.{k}", "unknown key")
    for k in required:
        if k not in d:
            _fail(path, f"missing required key '{k}'")


def _present(d, key, path, optional) -> bool:
    if key in d:
        return True
    if not optional:
        _fail(path, f"missing required key '{key}'")
    return False


def _number(d, key, path, positive=False, optional=False):
    if not _present(d, key, path, optional):
        return None
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(f"{path}.{key}", "expected a number")
    if positive and not v > 0:
        _fail(f"{path}.{key}", "must be > 0")
    return float(v)


def _integer(d, key, path, minimum=None, optional=False):
    if not _present(d, key, path, optional):
        return None
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(f"{path}.{key}", "expected an integer")
    if minimum is not None and v < minimum:
        _fail(f"{path}.{key}", f"must be >= {minimum}")
    return v


def _string(d, key, path, choices=None, optional=False):
    if not _present(d, key, path, optional):
        return None
    v = d[key]
    if not isinstance(v, str):
        _fail(f"{path}.{key}", "expected a string")
    if choices is not None and v not in choices:
        _fail(f"{path}.{key}", f"must be one of {list(choices)}")
    return v


def _number_list(d, key, path, length=None, positive=False, optional=False):
    if not _present(d, key, path, optional):
        return None
    v = d[key]
    if not isinstance(v, list) or not v:
        _fail(f"{path}.{key}", "expected a nonempty list of numbers")
    out = []
    for i, x in enumerate(v):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            _fail(f"{path}.{key}[{i}]", "expected a number")
        if positive and not x > 0:
            _fail(f"{path}.{key}[{i}]", "must be > 0")
        out.append(float(x))
    if length is not None and len(out) != length:
        _fail(f"{path}.{key}", f"expected exactly {length} entries")
    return out


def _decreasing(vals, path):
    if any(vals[i + 1] >= vals[i] for i in range(len(vals) - 1)):
        _fail(path, "values must be strictly decreasing")
    return vals


# --------------------------------------------------------------------------
# section builders


def _build_table(d: dict, path: str = "table") -> TableSpec:
    kind = _string(d, "kind", path, choices=(*BUILTIN_TABLES, "polynomial"))
    if kind == "polynomial":
        _check_keys(d, path, ("kind", "n", "terms", "region", "p0"), ("name",))
        n = _integer(d, "n", path, minimum=1)
        terms_raw = d["terms"]
        if not isinstance(terms_raw, list) or not terms_raw:
            _fail(f"{path}.terms", "expected a nonempty list of terms")
        terms = {}
        for i, t in enumerate(terms_raw):
            tp = f"{path}.terms[{i}]"
            _check_keys(t, tp, ("exponents", "coefficient"), ())
            exps = t["exponents"]
            if (not isinstance(exps, list) or len(exps) != n
                    or any(isinstance(e, bool) or not isinstance(e, int) or e < 0 for e in exps)):
                _fail(f"{tp}.exponents", f"expected {n} nonnegative integers")
            coeff = _number(t, "coefficient", tp)
            terms[tuple(exps)] = terms.get(tuple(exps), 0.0) + coeff
        rp = f"{path}.region"
        _check_keys(d["region"], rp, ("center", "radius"), ())
        center = _number_list(d["region"], "center", rp, length=n)
        radius = _number(d["region"], "radius", rp, positive=True)
        p0 = _number_list(d, "p0", path, length=n)
        _string(d, "name", path, optional=True)
        try:
            return TableSpec(n=n, shape=PolynomialShape(terms=tuple(terms.items())),
                             region=Region(center=tuple(center), radius=radius),
                             p0=tuple(p0), name=d.get("name", "custom-polynomial"))
        except Exception as e:
            _fail(path, f"invalid table: {e}")
    build = BUILTIN_TABLES[kind].build
    # a builtin kind takes exactly the keyword options of its builder
    _check_keys(d, path, ("kind",), tuple(inspect.signature(build).parameters))
    options = {"n": _integer(d, "n", path, minimum=1, optional=True),
               "radius_U": _number(d, "radius_U", path, positive=True, optional=True)}
    try:
        return build(**{k: v for k, v in options.items() if v is not None})
    except Exception as e:
        _fail(path, f"invalid table: {e}")


def _build_model(d: dict, n: int, path: str = "model") -> AmbientModel:
    _check_keys(d, path, ("kind",), ("dim",))
    kind = _string(d, "kind", path, choices=MODEL_KINDS)
    _integer(d, "dim", path, minimum=2, optional=True)
    dim = d.get("dim", n + 1)
    if dim != n + 1:
        _fail(f"{path}.dim", f"ambient dimension must be table n + 1 = {n + 1}")
    return AmbientModel(kind, dim)


# --------------------------------------------------------------------------
# per-experiment parameter schemas; the defaults of optional keys live in
# the signatures of the library functions the runners forward them to


def _needs_boundary_tangent(n: int):
    if n < 2:
        _fail("table.n", "this experiment launches along a boundary tangent and needs n >= 2")


def _validate_scan(p: dict, path: str, n: int):
    _check_keys(p, path, ("lambdas", "kappa"),
                ("n_grid", "n_random_planes", "tol"))
    _number_list(p, "lambdas", path, positive=True)
    _number(p, "kappa", path)
    _integer(p, "n_grid", path, minimum=2, optional=True)
    _integer(p, "n_random_planes", path, minimum=0, optional=True)
    _number(p, "tol", path, positive=True, optional=True)


def _validate_hausdorff(p: dict, path: str, n: int):
    _check_keys(p, path, ("lambdas",), ("n_grid",))
    _number_list(p, "lambdas", path, positive=True)
    _integer(p, "n_grid", path, minimum=3, optional=True)


def _validate_fold_convergence(p: dict, path: str, n: int):
    _needs_boundary_tangent(n)
    _check_keys(p, path, ("lambdas", "T", "dt"),
                ("direction", "kappa", "tol_conv", "tol_qg", "p0",
                 "scan_grid", "scan_planes"))
    lams = _number_list(p, "lambdas", path, positive=True)
    if any(l >= 1 for l in lams):
        _fail(f"{path}.lambdas", "values must lie in (0, 1)")
    _decreasing(lams, f"{path}.lambdas")
    _number(p, "T", path, positive=True)
    _number(p, "dt", path, positive=True)
    d = _number_list(p, "direction", path, length=2, optional=True)
    if d is not None and d[1] <= 0:
        _fail(f"{path}.direction", "vertical component must be positive")
    _number(p, "tol_conv", path, positive=True, optional=True)
    _number(p, "tol_qg", path, positive=True, optional=True)
    _number(p, "kappa", path, optional=True)
    _number_list(p, "p0", path, length=n, optional=True)
    _integer(p, "scan_grid", path, minimum=2, optional=True)
    _integer(p, "scan_planes", path, minimum=0, optional=True)


def _validate_boundary_geodesic(p: dict, path: str, n: int):
    _needs_boundary_tangent(n)
    _check_keys(p, path, ("angles", "T", "dt"),
                ("tol_rel", "p0", "ref_refine", "extend"))
    angs = _number_list(p, "angles", path, positive=True)
    if any(a >= np.pi / 2 for a in angs):
        _fail(f"{path}.angles", "angles must lie in (0, pi/2)")
    _decreasing(angs, f"{path}.angles")
    _number(p, "T", path, positive=True)
    _number(p, "dt", path, positive=True)
    _number(p, "tol_rel", path, positive=True, optional=True)
    _number_list(p, "p0", path, length=n, optional=True)
    _integer(p, "ref_refine", path, minimum=1, optional=True)
    _number(p, "extend", path, positive=True, optional=True)


def _validate_quasigeodesic(p: dict, path: str, n: int):
    _check_keys(p, path, ("curve", "dt"),
                ("kappa", "tol", "reference_points"))
    _number(p, "dt", path, positive=True)
    _number(p, "kappa", path, optional=True)
    _number(p, "tol", path, positive=True, optional=True)
    c = p["curve"]
    cpath = f"{path}.curve"
    kind = _string(c, "kind", cpath, choices=CURVE_KINDS)
    if kind == "billiard":
        _check_keys(c, cpath, ("kind", "x0", "v0", "T"), ())
        _number_list(c, "x0", cpath, length=n)
        if not any(_number_list(c, "v0", cpath, length=n)):
            _fail(f"{cpath}.v0", "a launch velocity must not be the zero vector")
        _number(c, "T", cpath, positive=True)
    else:
        _check_keys(c, cpath, ("kind",), ())
        if kind in ("arc", "corner") and n != 2:
            _fail(cpath, f"'{kind}' is a planar example and needs n = 2")
    if "reference_points" in p:
        rps = p["reference_points"]
        if not isinstance(rps, list) or not rps:
            _fail(f"{path}.reference_points", "expected a nonempty list of points")
        for i, rp in enumerate(rps):
            if (not isinstance(rp, list) or len(rp) != n
                    or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in rp)):
                _fail(f"{path}.reference_points[{i}]", f"expected a point of dimension {n}")
    elif p["curve"]["kind"] == "convex-kink":
        _fail(path, "'convex-kink' runs in the free plane and needs explicit reference_points")


def _validate_trajectory(p: dict, path: str, n: int):
    _check_keys(p, path, ("target", "T", "dt", "x0", "v0"),
                ("lam", "two_sided"))
    target = _string(p, "target", path, choices=TRAJECTORY_TARGETS)
    _number(p, "T", path, positive=True)
    _number(p, "dt", path, positive=True)
    dim = n + 1 if target == "fold-geodesic" else n
    _number_list(p, "x0", path, length=dim)
    if not any(_number_list(p, "v0", path, length=dim)):
        _fail(f"{path}.v0", "a launch velocity must not be the zero vector")
    if target == "fold-geodesic":
        _number(p, "lam", path, positive=True)
        if "two_sided" in p and not isinstance(p["two_sided"], bool):
            _fail(f"{path}.two_sided", "expected a boolean")
    else:
        for key in ("lam", "two_sided"):
            if key in p:
                _fail(f"{path}.{key}", "only meaningful for fold-geodesic targets")


# --------------------------------------------------------------------------
# the experiment registry


@dataclass(frozen=True)
class Experiment:
    """One experiment kind: its parameter schema and its runner."""

    # (parameters, key path, table n); raises ConfigError
    validate: Callable[[dict, str, int], None]
    # (config, artifact directory) -> (verdict, passed, result, csv header,
    # csv rows, extra artifact names); see runner.py
    run: Callable[[ExperimentConfig, Path], tuple]


EXPERIMENTS = {
    "curvature-scan": Experiment(_validate_scan, runner._run_scan),
    "hausdorff": Experiment(_validate_hausdorff, runner._run_hausdorff),
    "fold-convergence": Experiment(_validate_fold_convergence,
                                   runner._run_fold_convergence),
    "boundary-geodesic": Experiment(_validate_boundary_geodesic,
                                    runner._run_boundary_geodesic),
    "quasigeodesic-check": Experiment(_validate_quasigeodesic, runner._run_quasigeodesic),
    "trajectory": Experiment(_validate_trajectory, runner._run_trajectory),
}


# --------------------------------------------------------------------------
# entry points


def validate_config(raw: dict) -> ExperimentConfig:
    _check_keys(raw, "config",
                ("experiment", "table", "model", "parameters"), (*_OPTIONAL_TOP_KEYS, "workers"))
    experiment = _string(raw, "experiment", "config", choices=EXPERIMENTS)
    table = _build_table(raw["table"])
    model = _build_model(raw["model"], table.n)
    params = raw["parameters"]
    if not isinstance(params, dict):
        _fail("config.parameters", "expected an object")
    EXPERIMENTS[experiment].validate(params, "parameters", table.n)
    _integer(raw, "seed", "config", minimum=0, optional=True)
    # accepted for older configs and ignored: every run is one process
    _integer(raw, "workers", "config", minimum=1, optional=True)
    if raw.get("out_dir") is not None:
        _string(raw, "out_dir", "config")
    _string(raw, "description", "config", optional=True)
    return ExperimentConfig(experiment=experiment, table=table, model=model,
                            parameters=params, raw=raw,
                            **{k: raw[k] for k in _OPTIONAL_TOP_KEYS if k in raw})


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"{p}:{e.lineno}:{e.colno}: invalid JSON ({e.msg})") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"{p}: top level must be an object")
    return validate_config(raw)
