"""JSON experiment configs with schema validation.

A config names one experiment over one (table, model) pair plus numeric
parameters, each checked against one declarative schema.  Validation is
strict: unknown keys are rejected with their full path, numbers must be
finite, tolerances positive and dimensions consistent, so a config error
never surfaces as a numerics error mid-run.
"""

from __future__ import annotations

import inspect
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import runner
from .ambient import AmbientModel, MODEL_KINDS
from .analysis import MIN_DIRECTION_VERTICAL
from .errors import ConfigError, InvalidInputError
from .fold import check_grid
from .table import BUILTIN_TABLES, PolynomialShape, Region, TableSpec

CURVE_KINDS = ("arc", "corner", "convex-kink", "billiard")
TRAJECTORY_TARGETS = ("billiard", "fold-geodesic", "table-geodesic", "boundary-geodesic")
# optional top-level keys; absent ones take the ExperimentConfig defaults
_OPTIONAL_TOP_KEYS = ("seed", "out_dir")


@dataclass
class ExperimentConfig:
    experiment: str
    table: TableSpec
    model: AmbientModel
    parameters: dict
    seed: int = 0
    out_dir: str | None = None
    raw: dict = field(default_factory=dict)

    @property
    def spec(self) -> Experiment:
        """The registry entry of this config's experiment."""
        return EXPERIMENTS[self.experiment]


# --------------------------------------------------------------------------
# schemas: key -> (kind, bound, required), checked by _check in this order
# after the unknown and the missing keys; every failure carries the key path.
# The bound of a number is an exclusive minimum, of an integer an inclusive
# one, of a vector its length ("n": the table's), of a grid the (lo, hi,
# decreasing) of fold.check_grid, of a string its choices, of an object or
# of a list of terms the schema of its entries.  Numbers are finite; a path
# is a string or null.  The defaults of optional parameters live in the
# signatures of the library functions the runners forward them to.


def _fail(path: str, msg: str):
    raise ConfigError(f"{path}: {msg}")


def _is_number(x) -> bool:
    return not isinstance(x, bool) and isinstance(x, (int, float))


def _finite(x) -> bool:
    # False for NaN, the infinities and integers beyond the float range
    return abs(x) <= sys.float_info.max


def _number(v, path: str):
    if not _is_number(v):
        _fail(path, "expected a number")
    if not _finite(v):
        _fail(path, "must be finite")


def _vector(v, path: str, length=None):
    if not isinstance(v, list) or not v:
        _fail(path, "expected a nonempty list of numbers")
    for i, x in enumerate(v):
        _number(x, f"{path}[{i}]")
    if length is not None and len(v) != length:
        _fail(path, f"expected exactly {length} entries")


def _check_value(v, path: str, kind: str, bound, n):
    if kind == "number":
        _number(v, path)
        if bound is not None and not v > bound:
            _fail(path, f"must be > {bound}")
    elif kind == "integer":
        if isinstance(v, bool) or not isinstance(v, int):
            _fail(path, "expected an integer")
        if v < bound:
            _fail(path, f"must be >= {bound}")
    elif kind == "vector":
        _vector(v, path, n if bound == "n" else bound)
    elif kind == "grid":
        _vector(v, path)
        try:
            check_grid(v, *bound, name=path)
        except InvalidInputError as e:
            raise ConfigError(str(e)) from None
    elif kind == "points":
        if not isinstance(v, list) or not v:
            _fail(path, "expected a nonempty list of points")
        for i, x in enumerate(v):
            if (not isinstance(x, list) or len(x) != n
                    or not all(_is_number(c) and _finite(c) for c in x)):
                _fail(f"{path}[{i}]", f"expected a point of dimension {n}")
    elif kind == "exponents":
        if (not isinstance(v, list) or len(v) != n
                or any(isinstance(e, bool) or not isinstance(e, int) or e < 0 for e in v)):
            _fail(path, f"expected {n} nonnegative integers")
    elif kind == "string" or kind == "path" and v is not None:
        if not isinstance(v, str):
            _fail(path, "expected a string")
        if bound is not None and v not in bound:
            _fail(path, f"must be one of {list(bound)}")
    elif kind == "bool" and not isinstance(v, bool):
        _fail(path, "expected a boolean")
    elif kind == "object":
        if bound is not None:
            _check(v, path, bound, n)
        elif not isinstance(v, dict):
            _fail(path, "expected an object")
    elif kind == "terms":
        if not isinstance(v, list) or not v:
            _fail(path, "expected a nonempty list of terms")
        for i, t in enumerate(v):
            _check(t, f"{path}[{i}]", bound, n)


def _check(d, path: str, schema: dict, n=None) -> None:
    if not isinstance(d, dict):
        _fail(path, "expected an object")
    for k in d:
        if k not in schema:
            _fail(f"{path}.{k}", "unknown key")
    for k, (_, _, required) in schema.items():
        if required and k not in d:
            _fail(path, f"missing required key '{k}'")
    for k, (kind, bound, _) in schema.items():
        if k in d:
            _check_value(d[k], f"{path}.{k}", kind, bound, n)


_POSITIVE = ("number", 0, False)
_STEPS = {"T": ("number", 0, True), "dt": ("number", 0, True)}
_LAMBDAS = ("grid", (0.0, np.inf, False), True)
_CURVE = {"kind": ("string", CURVE_KINDS, True)}
_BILLIARD_CURVE = {**_CURVE, "x0": ("vector", "n", True), "v0": ("vector", "n", True),
                   "T": ("number", 0, True)}
_TABLE_OPTIONS = {"n": ("integer", 1, False), "radius_U": _POSITIVE}
_POLYNOMIAL = {
    "kind": ("string", None, True), "n": ("integer", 1, True),
    "terms": ("terms", {"exponents": ("exponents", None, True),
                        "coefficient": ("number", None, True)}, True),
    "region": ("object", {"center": ("vector", "n", True), "radius": ("number", 0, True)}, True),
    "p0": ("vector", "n", True), "name": ("string", None, False)}
_MODEL = {"kind": ("string", MODEL_KINDS, True), "dim": ("integer", 2, False)}


# --------------------------------------------------------------------------
# section builders


def _build_table(d: dict, path: str = "table") -> TableSpec:
    if "kind" not in d:
        _fail(path, "missing required key 'kind'")
    _check_value(d["kind"], f"{path}.kind", "string", (*BUILTIN_TABLES, "polynomial"), None)
    if d["kind"] == "polynomial":
        # n is checked before the keys whose length it sets
        n = d.get("n")
        _check(d, path, _POLYNOMIAL, n)
        terms = {}
        for t in d["terms"]:
            exps = tuple(t["exponents"])
            terms[exps] = terms.get(exps, 0.0) + float(t["coefficient"])
        try:
            return TableSpec(n=n, shape=PolynomialShape(terms=tuple(terms.items())),
                             region=Region(center=tuple(map(float, d["region"]["center"])),
                                           radius=float(d["region"]["radius"])),
                             p0=tuple(map(float, d["p0"])), name=d.get("name", "custom-polynomial"))
        except Exception as e:
            _fail(path, f"invalid table: {e}")
    build = BUILTIN_TABLES[d["kind"]].build
    # a builtin kind takes exactly the keyword options of its builder
    options = {k: _TABLE_OPTIONS[k] for k in inspect.signature(build).parameters}
    _check(d, path, {"kind": ("string", None, True), **options})
    try:
        return build(**{k: d[k] for k in options if k in d})
    except Exception as e:
        _fail(path, f"invalid table: {e}")


def _build_model(d: dict, n: int, path: str = "model") -> AmbientModel:
    _check(d, path, _MODEL)
    dim = d.get("dim", n + 1)
    if dim != n + 1:
        _fail(f"{path}.dim", f"ambient dimension must be table n + 1 = {n + 1}")
    return AmbientModel(d["kind"], dim)


# --------------------------------------------------------------------------
# rules that span keys, checked after the schema of the parameters


def _tangent_launch(p: dict, n: int):
    if n < 2:
        _fail("table.n", "this experiment launches along a boundary tangent and needs n >= 2")


def _fold_convergence_rules(p: dict, n: int):
    _tangent_launch(p, n)
    if "direction" in p and p["direction"][1] <= MIN_DIRECTION_VERTICAL:
        _fail("parameters.direction", f"vertical component must be > {MIN_DIRECTION_VERTICAL}")


def _moving(v0, path: str):
    if not any(v0):
        _fail(path, "a launch velocity must not be the zero vector")


def _quasigeodesic_rules(p: dict, n: int):
    c = p["curve"]
    _check(c, "parameters.curve", _BILLIARD_CURVE if c.get("kind") == "billiard" else _CURVE, n)
    if c["kind"] == "billiard":
        _moving(c["v0"], "parameters.curve.v0")
    elif c["kind"] in ("arc", "corner") and n != 2:
        _fail("parameters.curve", f"'{c['kind']}' is a planar example and needs n = 2")
    elif c["kind"] == "convex-kink" and "reference_points" not in p:
        _fail("parameters",
              "'convex-kink' runs in the free plane and needs explicit reference_points")


def _trajectory_rules(p: dict, n: int):
    fold = p["target"] == "fold-geodesic"
    for key in ("x0", "v0"):
        _vector(p[key], f"parameters.{key}", n + fold)
    _moving(p["v0"], "parameters.v0")
    if fold and "lam" not in p:
        _fail("parameters", "missing required key 'lam'")
    for key in ("lam", "two_sided"):
        if not fold and key in p:
            _fail(f"parameters.{key}", "only meaningful for fold-geodesic targets")


# --------------------------------------------------------------------------
# the experiment registry


@dataclass(frozen=True)
class Experiment:
    """One experiment kind: its parameter schema, the rules that span its
    keys and its runner."""

    schema: dict
    # (parameters, table n); raises ConfigError
    rules: Callable[[dict, int], None] | None
    # (config, artifact directory) -> (verdict, passed, result, csv header,
    # csv rows, extra artifact names); see runner.py
    run: Callable[[ExperimentConfig, Path], tuple]


EXPERIMENTS = {
    "curvature-scan": Experiment(
        {"lambdas": _LAMBDAS, "kappa": ("number", None, True), "n_grid": ("integer", 2, False),
         "n_random_planes": ("integer", 0, False), "tol": _POSITIVE},
        None, runner._run_scan),
    "hausdorff": Experiment({"lambdas": _LAMBDAS, "n_grid": ("integer", 3, False)},
                            None, runner._run_hausdorff),
    "fold-convergence": Experiment(
        {"lambdas": ("grid", (0.0, 1.0, True), True), **_STEPS,
         "direction": ("vector", 2, False), "kappa": ("number", None, False),
         "tol_conv": _POSITIVE, "tol_qg": _POSITIVE, "p0": ("vector", "n", False),
         "scan_grid": ("integer", 2, False), "scan_planes": ("integer", 0, False)},
        _fold_convergence_rules, runner._run_fold_convergence),
    "boundary-geodesic": Experiment(
        {"angles": ("grid", (0.0, np.pi / 2, True), True), **_STEPS, "tol_rel": _POSITIVE,
         "p0": ("vector", "n", False), "ref_refine": ("integer", 1, False), "extend": _POSITIVE},
        _tangent_launch, runner._run_boundary_geodesic),
    "quasigeodesic-check": Experiment(
        {"curve": ("object", None, True), "dt": ("number", 0, True),
         "kappa": ("number", None, False), "tol": _POSITIVE,
         "reference_points": ("points", None, False)},
        _quasigeodesic_rules, runner._run_quasigeodesic),
    "trajectory": Experiment(
        {"target": ("string", TRAJECTORY_TARGETS, True), **_STEPS,
         "x0": ("vector", None, True), "v0": ("vector", None, True), "lam": _POSITIVE,
         "two_sided": ("bool", None, False)},
        _trajectory_rules, runner._run_trajectory),
}
_TOP = {"experiment": ("string", EXPERIMENTS, True), "table": ("object", None, True),
        "model": ("object", None, True), "parameters": ("object", None, True),
        "seed": ("integer", 0, False),
        # accepted for older configs and ignored: every run is one process
        "workers": ("integer", 1, False),
        "out_dir": ("path", None, False), "description": ("string", None, False)}


# --------------------------------------------------------------------------
# entry points


def validate_config(raw: dict) -> ExperimentConfig:
    _check(raw, "config", _TOP)
    table = _build_table(raw["table"])
    model = _build_model(raw["model"], table.n)
    spec = EXPERIMENTS[raw["experiment"]]
    _check(raw["parameters"], "parameters", spec.schema, table.n)
    if spec.rules is not None:
        spec.rules(raw["parameters"], table.n)
    return ExperimentConfig(experiment=raw["experiment"], table=table, model=model,
                            parameters=raw["parameters"], raw=raw,
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
