"""Seeded workload generators and output checks for the benchmark.

Each workload turns ``--seed`` into a list of experiment configs (plain JSON
dicts, exactly what a user would hand to ``foldbilliards run``), names the
spans a traced run of it must produce, and checks every report against the
fixed acceptance tolerances of ``tests/test_acceptance.py``.

A check returns one boolean per operation.  An operation is one checked row,
one bounce set or one verdict; ``expected_ops`` says how many a config has,
so a call that raises counts all of them as failed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# tests/test_acceptance.py, criteria 4, 5, 6 and 8
SCAN_KAPPA_FLOOR = 29.0 / 32.0 - 1e-6
HAUSDORFF_SLACK = 1e-3
BOUNDARY_REL_TOL = 0.10
BOUNDARY_RATIO_RANGE = (3.3, 4.7)
FOLD_FINAL_SUP = 5e-3
FOLD_RESIDUAL_PER_DT = 10.0
FOLD_POLAR_ANGLE = 1e-2
# a recorded bounce lies on the unit circle and reflects by the mirror law
BOUNCE_F_TOL = 1e-9
BOUNCE_VEC_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seed_use: str
    # (directory of the shipped configs, seed) -> [(label, config)]
    generate: Callable[[Path, int], list[tuple[str, dict]]]
    required_spans: tuple[str, ...]


def _shipped(shipped_dir: Path, name: str) -> dict:
    return json.loads((shipped_dir / f"{name}.json").read_text())


def _config_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _convergence(shipped_dir: Path, seed: int) -> list[tuple[str, dict]]:
    rng = np.random.default_rng([seed, 1])
    angle = float(rng.uniform(0.0, 2.0 * math.pi))
    p0 = [math.cos(angle), math.sin(angle)]
    cfg_seed = _config_seed(rng)
    fold = _shipped(shipped_dir, "disk-euclid-convergence")
    fold["workers"] = 1  # the shipped config asks for 4 workers on a 2-core machine
    bgeo = _shipped(shipped_dir, "disk-euclid-boundary-geodesic")
    for cfg in (fold, bgeo):
        cfg["parameters"]["p0"] = p0
        cfg["seed"] = cfg_seed
    return [("disk-euclid-convergence", fold), ("disk-euclid-boundary-geodesic", bgeo)]


def _fold_geometry(shipped_dir: Path, seed: int) -> list[tuple[str, dict]]:
    rng = np.random.default_rng([seed, 2])
    scan = _shipped(shipped_dir, "spherical-halfspace")
    scan["seed"] = _config_seed(rng)
    scan["workers"] = 1
    hausdorff = {
        "description": "spherical half-space fold-to-table Hausdorff distance at "
                       "n_grid 41; deterministic, so the benchmark seed is unused",
        "experiment": "hausdorff",
        "table": {"kind": "spherical-halfspace"},
        "model": {"kind": "spherical"},
        "parameters": {"lambdas": [0.4, 0.05], "n_grid": 41},
        "seed": 0,
    }
    return [("spherical-halfspace", scan), ("spherical-halfspace-hausdorff", hausdorff)]


def _billiards(shipped_dir: Path, seed: int) -> list[tuple[str, dict]]:
    rng = np.random.default_rng([seed, 3])
    configs = []
    for i, model in enumerate(["hyperbolic"] * 4 + ["spherical"] * 4):
        r = 0.5 * math.sqrt(float(rng.uniform()))  # uniform in the disk |x0| <= 0.5
        phi, theta = (float(a) for a in rng.uniform(0.0, 2.0 * math.pi, size=2))
        configs.append((f"disk-{model}-billiard-{i}", {
            "description": "billiard in the unit disk; launch point and direction "
                           "drawn from the benchmark seed",
            "experiment": "trajectory",
            "table": {"kind": "disk", "n": 2},
            "model": {"kind": model},
            "parameters": {
                "target": "billiard",
                "x0": [r * math.cos(phi), r * math.sin(phi)],
                "v0": [math.cos(theta), math.sin(theta)],
                "T": 12.0,
                "dt": 0.01,
            },
            "seed": 0,
        }))
    return configs


_COMMON_SPANS = ("runner.load_config", "runner.validate_config", "runner.run_experiment")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="convergence",
        why=("Constrained geodesic integration does most of the work: the fold "
             "constraint is stiff as lambda -> 0 (refinement depth 11 at 2^-8) and "
             "the boundary geodesic is integrated on a dense dt/8 reference; "
             "curve_to_set_sup takes about a third of the boundary-geodesic time. "
             "Integrator-core changes show here. Flat-disk billiards are straight "
             "lines, so curved bounce location does almost nothing."),
        seed_use="p0 rotated on the unit circle by a seed-drawn angle; config seed "
                 "drawn from the seed; workers forced to 1",
        generate=_convergence,
        required_spans=_COMMON_SPANS + (
            "analysis.fold_convergence_experiment", "analysis.boundary_geodesic_experiment",
            "analysis.curve_to_set_sup", "analysis.quasigeodesic_residual",
            "analysis.sup_distance", "analysis.reference_points_for_table",
            "dynamics.integrate_fold_geodesic", "dynamics.integrate_boundary_geodesic",
            "dynamics.integrate_table_geodesic", "dynamics.billiard_trajectory",
            "fold.scan_curvature", "fold.frame_at", "fold.lift",
            "fold.check_h_sufficient_conditions",
            "fold.Fold.value", "fold.Fold.euclid_grad", "fold.Fold.euclid_hess",
            "table.TableSpec.f", "table.TableSpec.grad_f", "table.TableSpec.hess_f",
            "table.Region.contains", "table.boundary_frame", "table.model_on_table",
            "ambient.metric_tensor", "ambient.christoffel_quadratic", "ambient.norm",
            "ambient.distance", "ambient.distance_cross", "ambient.distance_rowwise",
        )),
    Workload(
        name="fold-geometry",
        why=("Fold and ambient layers with no integrator: the spherical half-space "
             "scan is per-point scalar work (17,376 frames, 191,136 Gauss-equation "
             "evaluations in Python loops) and Hausdorff at n_grid 41 is one dense "
             "22,085 x 11,353 distance kernel per lambda. Integrator changes should "
             "leave it unchanged."),
        seed_use="config seed of the scan drawn from the seed; the Hausdorff config "
                 "is deterministic and does not use the seed",
        generate=_fold_geometry,
        required_spans=_COMMON_SPANS + (
            "fold.scan_curvature", "fold.sample_table_points", "fold.frame_at",
            "fold.lift", "fold.hausdorff_distance",
            "fold.Fold.value", "fold.Fold.euclid_grad", "fold.Fold.euclid_hess",
            "table.TableSpec.f", "table.Region.contains", "table.Region.contains_many",
            "ambient.metric_tensor", "ambient.christoffel", "ambient.distance_cross",
            "ambient.metric_many",
        )),
    Workload(
        name="billiards",
        why=("The only workload where curved-model bounce location, the hidden-dip "
             "guard and reflection do most of the work: 8 trajectories (T = 12, "
             "dt = 1e-2) in the unit disk, 4 hyperbolic and 4 spherical. No fold "
             "and no distance kernel."),
        seed_use="launch point (|x0| <= 0.5) and direction of each trajectory drawn "
                 "from the seed",
        generate=_billiards,
        required_spans=_COMMON_SPANS + (
            "dynamics.billiard_trajectory", "table.boundary_frame", "table.reflect",
            "table.TableSpec.f", "table.TableSpec.grad_f", "table.TableSpec.hess_f",
            "table.Region.contains", "table.model_on_table",
            "ambient.metric_tensor", "ambient.christoffel_quadratic", "ambient.norm",
        )),
)}


# --------------------------------------------------------------------------
# output checks


def expected_ops(raw: dict) -> int:
    p = raw["parameters"]
    exp = raw["experiment"]
    if exp == "boundary-geodesic":
        return len(p["angles"]) + 1
    if exp in ("fold-convergence", "curvature-scan"):
        return len(p["lambdas"]) + 1
    if exp == "hausdorff":
        return len(p["lambdas"])
    if exp == "trajectory":
        return 1
    raise ValueError(f"no check for experiment {exp!r}")


def _check_boundary_geodesic(raw, report):
    rows = report["result"]["rows"]
    ratios = report["result"]["details"]["ratios"]
    lo, hi = BOUNDARY_RATIO_RANGE
    ops = []
    for i, row in enumerate(rows):
        expected = 1.0 - math.cos(row["param"])
        ok = abs(row["sup_distance"] - expected) <= BOUNDARY_REL_TOL * expected
        if i > 0:
            ok = ok and lo <= ratios[i - 1] <= hi
        ops.append(ok)
    ops.append(report["verdict"] == "pass")
    return ops


def _check_fold_convergence(raw, report):
    res = report["result"]
    rows = res["rows"]
    dt = raw["parameters"]["dt"]
    ops = []
    for i, row in enumerate(rows):
        ok = math.isfinite(row["sup_distance"])
        if i > 0:
            ok = ok and row["sup_distance"] < rows[i - 1]["sup_distance"]
        if i == len(rows) - 1:
            ok = (ok and row["sup_distance"] <= FOLD_FINAL_SUP
                  and row["residual"] is not None
                  and row["residual"] <= FOLD_RESIDUAL_PER_DT * dt)
        ops.append(ok)
    ops.append(report["verdict"] == "pass"
               and res["details"]["polar_angle_final"] <= FOLD_POLAR_ANGLE)
    return ops


def _check_scan(raw, report):
    res = report["result"]
    ops = [m >= SCAN_KAPPA_FLOOR for m in res["min_sec_per_lambda"]]
    ops.append(report["verdict"] == "certified")
    return ops


def _check_hausdorff(raw, report):
    return [row["sup_fold_to_table"] <= row["bound"] + HAUSDORFF_SLACK
            and row["sup_table_to_fold"] <= row["bound"] + HAUSDORFF_SLACK
            for row in report["result"]["rows"]]


def _disk_metric(model: str, x: np.ndarray) -> np.ndarray:
    """Metric of the 2-dimensional table plane in each model's coordinates."""
    r2 = float(x @ x)
    if model == "hyperbolic":
        return np.eye(2) - np.outer(x, x) / (1.0 + r2)
    if model == "spherical":
        return 4.0 / (1.0 + r2) ** 2 * np.eye(2)
    return np.eye(2)


def _bounce_ok(model: str, bounce: dict) -> bool:
    x = np.asarray(bounce["x"])
    w_in = np.asarray(bounce["w_in"])
    w_out = np.asarray(bounce["w_out"])
    if abs(1.0 - x @ x) > BOUNCE_F_TOL:
        return False
    g = _disk_metric(model, x)
    nu = np.linalg.solve(g, -2.0 * x)  # g^{-1} Df for f = 1 - |x|^2
    nu = nu / math.sqrt(nu @ g @ nu)
    mirrored = w_in if bounce["grazing"] else w_in - 2.0 * (w_in @ g @ nu) * nu
    return (abs(math.sqrt(w_out @ g @ w_out) - 1.0) <= BOUNCE_VEC_TOL
            and float(np.abs(w_out - mirrored).max()) <= BOUNCE_VEC_TOL)


def _check_billiard(raw, report):
    bounces = report["result"]["bounces"]
    model = raw["model"]["kind"]
    return [bool(bounces) and all(_bounce_ok(model, b) for b in bounces)]


_CHECKS = {
    "boundary-geodesic": _check_boundary_geodesic,
    "fold-convergence": _check_fold_convergence,
    "curvature-scan": _check_scan,
    "hausdorff": _check_hausdorff,
    "trajectory": _check_billiard,
}


def check_report(raw: dict, report: dict) -> list[bool]:
    """One pass/fail per operation of the config; malformed reports fail all."""
    n = expected_ops(raw)
    try:
        ops = _CHECKS[raw["experiment"]](raw, report)
    except (KeyError, IndexError, TypeError, ValueError, np.linalg.LinAlgError):
        return [False] * n
    if len(ops) != n:
        return [False] * n
    return [bool(o) for o in ops]
