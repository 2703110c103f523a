"""Executes a validated experiment config and writes artifacts.

Artifacts per run: report.json (full structured result), report.csv (the
row table, fixed column order), optional trajectory_*.csv sample files, and
manifest.json (config echo, versions, wall time).  Every CSV is written by
_write_csv, one % operation per row: floats as %.17g (17 significant
digits), bools and integers as %d, None as an empty cell.  report.json and
the CSV files are byte-identical across runs with the same config and seed;
the manifest is not, since it records wall time.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__, ambient, analysis, dynamics
from .analysis import DEFAULT_KAPPA
from .fold import Fold, hausdorff_distance, scan_curvature
from .table import model_on_table

if TYPE_CHECKING:  # config imports this module to register the runners
    from .config import ExperimentConfig


@dataclass
class RunResult:
    verdict: str | None
    passed: bool
    artifacts: list[str] = field(default_factory=list)
    result: dict = field(default_factory=dict)


def _conversion(types) -> str | None:
    """%.17g for cells of these types when all are floats, %d when all are
    bools or integers, else None."""
    if all(issubclass(t, float) for t in types):
        return "%.17g"
    return "%d" if all(issubclass(t, (int, np.integer)) for t in types) else None


def _write_csv(path: Path, header, rows) -> None:
    """One % operation per row, with each column's conversion chosen once
    from the types of its cells; a column that _conversion cannot serve is
    rendered cell by cell by the same rules, None as "", and written as %s."""
    columns = list(zip(*rows))
    specs = [_conversion(set(map(type, cells))) for cells in columns]
    for i, spec in enumerate(specs):
        if spec is None:
            columns[i] = ["" if v is None else (_conversion({type(v)}) or "%.17g") % v
                          for v in columns[i]]
    line = ",".join(spec or "%s" for spec in specs)
    path.write_text("\n".join([",".join(header), *(line % row for row in zip(*columns))]) + "\n")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _given(p: dict, *keys) -> dict:
    """The optional parameters among keys that the config sets."""
    return {k: p[k] for k in keys if k in p}


# --------------------------------------------------------------------------
# per-experiment runners, registered in config.EXPERIMENTS; each takes
# (cfg, out_dir) and returns (verdict|None, passed, result_dict, csv_header,
# csv_rows, extra_artifact_names).  Parameters named like the keywords of a
# library function are forwarded to it as given, so its signature holds the
# defaults.


def _run_scan(cfg: ExperimentConfig, out_dir: Path):
    rep = scan_curvature(cfg.table, cfg.model, seed=cfg.seed, **cfg.parameters)
    rows = list(zip(rep.lambdas, rep.min_sec_per_lambda))
    return rep.verdict, True, rep.to_dict(), ("lambda", "min_sec"), rows, []


def _run_hausdorff(cfg: ExperimentConfig, out_dir: Path):
    options = dict(cfg.parameters)
    results = []
    for lam in options.pop("lambdas"):
        res = hausdorff_distance(Fold(table=cfg.table, model=cfg.model, lam=lam), **options)
        results.append({**asdict(res), "bound": res.bound,
                        "hausdorff": max(res.sup_fold_to_table, res.sup_table_to_fold)})
    header = ("lambda", "sup_fold_to_table", "sup_table_to_fold", "hausdorff",
              "d_max", "c_model", "bound")
    rows = [(r["lam"], *(r[k] for k in header[1:])) for r in results]
    return None, True, {"rows": results}, header, rows, []


def _run_fold_convergence(cfg: ExperimentConfig, out_dir: Path):
    rep = analysis.fold_convergence_experiment(
        cfg.table, cfg.model, seed=cfg.seed, **cfg.parameters)
    rows = [(r.param, r.sup_distance, r.angle_error, r.residual) for r in rep.rows]
    header = ("lambda", "sup_distance", "angle_error", "residual")
    return rep.verdict, rep.verdict == "pass", rep.to_dict(), header, rows, []


def _run_boundary_geodesic(cfg: ExperimentConfig, out_dir: Path):
    rep = analysis.boundary_geodesic_experiment(cfg.table, cfg.model, **cfg.parameters)
    rows = [(r.param, r.sup_distance, r.sup_samegrid, r.expected,
             r.sup_distance / r.expected - 1) for r in rep.rows]
    header = ("theta", "sup_distance", "sup_samegrid", "expected", "rel_error")
    return rep.verdict, rep.verdict == "pass", rep.to_dict(), header, rows, []


def _quasigeodesic_curve(cfg: ExperimentConfig):
    p = cfg.parameters
    dt = p["dt"]
    kind = p["curve"]["kind"]
    model_H = model_on_table(cfg.table, cfg.model)
    if kind == "arc":
        t = dynamics._grid(np.pi, dt)
        pts = np.stack([np.cos(t), np.sin(t)], axis=1)
        return dynamics.SampledCurve(times=t, points=pts), cfg.table, model_H
    if kind == "corner":
        half = dynamics._grid(1.0, dt)
        t = np.concatenate([-half[::-1][:-1], half])
        pts = np.stack([t / np.sqrt(2), 1 - np.abs(t) / np.sqrt(2)], axis=1)
        return dynamics.SampledCurve(times=t, points=pts), cfg.table, model_H
    if kind == "convex-kink":
        half = dynamics._grid(1.0, dt)
        t = np.concatenate([-half[::-1][:-1], half])
        pts = np.where(t[:, None] < 0,
                       np.stack([t, np.zeros_like(t)], axis=1),
                       np.stack([np.zeros_like(t), t], axis=1))
        return dynamics.SampledCurve(times=t, points=pts), None, model_H
    c = p["curve"]
    v0 = ambient.normalize(model_H, c["x0"], c["v0"])
    traj = dynamics.billiard_trajectory(cfg.table, cfg.model, np.asarray(c["x0"], float),
                                        v0, c["T"], dt)
    return traj.base, cfg.table, model_H


def _run_quasigeodesic(cfg: ExperimentConfig, out_dir: Path):
    p = cfg.parameters
    curve, table, model_H = _quasigeodesic_curve(cfg)
    kappa = p.get("kappa", DEFAULT_KAPPA[cfg.model.kind])
    if "reference_points" in p:
        refs = np.asarray(p["reference_points"], dtype=float)
    else:
        refs = analysis.reference_points_for_table(cfg.table, cfg.model, seed=cfg.seed)
    rep = analysis.quasigeodesic_residual(curve, model_H, table, kappa, refs,
                                          **_given(p, "tol"))
    rows = list(enumerate(rep.residual_per_point))
    return (rep.verdict, rep.passed, rep.to_dict(), ("reference_index", "residual"),
            rows, [])


def _bounce_flags(times: np.ndarray, bounce_times) -> np.ndarray:
    """1 at the first sample at or after each bounce time less 1e-12 (the
    last sample if none), else 0."""
    flags = np.zeros(len(times), dtype=int)
    flags[np.minimum(np.searchsorted(times, np.subtract(bounce_times, 1e-12)), len(times) - 1)] = 1
    return flags


def _run_trajectory(cfg: ExperimentConfig, out_dir: Path):
    p = cfg.parameters
    target = p["target"]
    T, dt = p["T"], p["dt"]
    x0 = np.asarray(p["x0"], dtype=float)
    model_H = model_on_table(cfg.table, cfg.model)
    v0 = ambient.normalize(cfg.model if target == "fold-geodesic" else model_H, x0, p["v0"])
    if target == "billiard":
        traj = dynamics.billiard_trajectory(cfg.table, cfg.model, x0, v0, T, dt)
        name = "trajectory_billiard.csv"
        coords = tuple(f"x_{i+1}" for i in range(cfg.table.n))
        flags = _bounce_flags(traj.base.times, [b.t for b in traj.bounces])
        _write_csv(out_dir / name, ("t", *coords, "bounce_flag"),
                   zip(traj.base.times.tolist(), *traj.base.points.T.tolist(), flags.tolist()))
        bounces = [{
            "t": b.t,
            "x": [float(v) for v in b.x],
            "w_in": [float(v) for v in b.w_in],
            "w_out": [float(v) for v in b.w_out],
            "grazing": b.grazing,
        } for b in traj.bounces]
        result = {"n_samples": len(traj.base.times), "n_bounces": len(bounces),
                  "bounces": bounces}
        rows = [(b["t"], *b["x"], b["grazing"]) for b in bounces]
        return None, True, result, ("t", *coords, "grazing"), rows, [name]
    if target == "fold-geodesic":
        fld = Fold(table=cfg.table, model=cfg.model, lam=p["lam"])
        crv = dynamics.integrate_fold_geodesic(fld, x0, v0, T, dt,
                                               **_given(p, "two_sided"))
        name = "trajectory_fold_geodesic.csv"
    elif target == "table-geodesic":
        crv = dynamics.integrate_table_geodesic(model_H, x0, v0, T, dt)
        name = "trajectory_table_geodesic.csv"
    else:
        crv = dynamics.integrate_boundary_geodesic(cfg.table, cfg.model, x0, v0, T, dt)
        name = "trajectory_boundary_geodesic.csv"
    dim = crv.points.shape[1]
    _write_csv(out_dir / name, ("t", *(f"x_{i+1}" for i in range(dim))),
               zip(crv.times.tolist(), *crv.points.T.tolist()))
    result = {"n_samples": len(crv.times), "truncated": crv.truncated,
              "t_min": float(crv.times[0]), "t_max": float(crv.times[-1])}
    summary = [(result["t_min"], result["t_max"], result["n_samples"],
                int(result["truncated"]))]
    return None, True, result, ("t_min", "t_max", "n_samples", "truncated"), summary, [name]


def run_experiment(cfg: ExperimentConfig, out_dir: Path) -> RunResult:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    verdict, passed, result, header, rows, extra_artifacts = cfg.spec.run(cfg, out_dir)

    report = {
        "experiment": cfg.experiment,
        "config": cfg.raw,
        "verdict": verdict,
        "result": result,
    }
    _write_json(out_dir / "report.json", report)
    _write_csv(out_dir / "report.csv", header, rows)
    artifacts = ["report.json", "report.csv", *extra_artifacts]
    manifest = {
        "config": cfg.raw,
        "experiment": cfg.experiment,
        "verdict": verdict,
        "seed": cfg.seed,
        "artifacts": sorted(artifacts),
        "versions": {
            "foldbilliards": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "wall_time_s": time.time() - t0,
    }
    _write_json(out_dir / "manifest.json", manifest)
    artifacts.append("manifest.json")
    return RunResult(verdict=verdict, passed=passed, artifacts=artifacts,
                     result=result)
