"""foldbilliards benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload convergence --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  The workload's configs are generated from
``--seed`` (see ``workloads.py``), written to ``.bench_out/<workload>/configs``
and driven through the public path, ``config.load_config`` then
``runner.run_experiment``, in this single process (``workers = 1``).  Every
report is checked against the acceptance tolerances; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``:

- ``wall_s``: median time of one pass over the workload's ``run_experiment``
  calls.  Passes repeat while the next one is expected to end within
  ``--seconds`` (at least one pass);
- ``setup_s``: median over several fresh processes of the time from process
  start to validated configs (interpreter start, numpy and foldbilliards
  import, config validation);
- ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` runs one pass without spans (the base of
``trace.overhead_share``), then two passes with every public function of the
package wrapped in spans (``tracing.py``), and reports the per-layer metrics
named in ``BENCHMARK.json`` from the first traced pass.  It fails when a span the
workload must produce never appears, or when the machine-independent counts
of the two traced passes (or of an earlier traced run of the same seed and
source) differ.  Spans are written to ``.bench_out/<workload>/spans.npz``.

Exits 2 without a result when the checkout has no ``src/foldbilliards``.
``MACHINE.json`` records the machine, the BLAS threads and the computed size
of the dense Hausdorff matrix the numbers were first taken with.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from tracing import Tracer
from workloads import WORKLOADS, check_report, expected_ops

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "foldbilliards"
OUT = ROOT / ".bench_out"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"
# set-up probes, half before and half after the timed passes, so that a burst
# of load on the host shifts fewer of them
SETUP_PROBES = 10
PROBE_TIMEOUT_S = 60
# passes stop before this much of the 180 s allowed per run is spent
PASS_DEADLINE_S = 120.0
MODULES = ("foldbilliards", "foldbilliards.ambient", "foldbilliards.table",
           "foldbilliards.fold", "foldbilliards.dynamics", "foldbilliards.analysis",
           "foldbilliards.config", "foldbilliards.runner", "foldbilliards.cli")
COUNT_UNITS = ("count", "bytes")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Ledger:
    """Attempted and failed operations plus the digest of every report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, set[str]] = {}

    def record(self, label: str, ops: list[bool], digest: str | None = None) -> None:
        self.attempted += len(ops)
        self.failed += ops.count(False)
        if digest is not None:
            self.digests.setdefault(label, set()).add(digest)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def _write_configs(workload, seed: int, out: Path) -> list[tuple[str, dict, Path]]:
    cfg_dir = out / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    for old in cfg_dir.glob("*.json"):
        old.unlink()
    written = []
    for i, (label, raw) in enumerate(workload.generate(PACKAGE / "configs", seed)):
        path = cfg_dir / f"{i:02d}-{label}.json"
        path.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")
        written.append((label, raw, path))
    return written


def _setup_probe(paths: list[Path]) -> float:
    started = time.time()
    proc = subprocess.run([sys.executable, str(PROBE), str(SRC), *map(str, paths)],
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - started


def _import_package() -> dict:
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(name) for name in MODULES}
    location = Path(modules["foldbilliards"].__file__).resolve()
    if not location.is_relative_to(PACKAGE.resolve()):
        raise BenchError(f"foldbilliards imported from {location}, not {PACKAGE}")
    return modules


def _run_pass(mods, configs, cfgs, out: Path, ledger: Ledger, tracer=None) -> list[float]:
    """One pass over the workload; returns the run_experiment time per config.

    With a tracer, configs are loaded inside the pass so that load_config is
    traced too."""
    config, runner = mods["foldbilliards.config"], mods["foldbilliards.runner"]
    busy = [0.0] * len(configs)
    for i, (label, raw, path) in enumerate(configs):
        run_dir = out / "runs" / label
        try:
            if tracer is not None:
                tracer.run_id = i
                cfg = config.load_config(path)
            else:
                cfg = cfgs[i]
            t0 = time.perf_counter()
            runner.run_experiment(cfg, run_dir)
            busy[i] = time.perf_counter() - t0
        except Exception:  # a failed experiment fails its operations, the run goes on
            traceback.print_exc()
            ledger.record(label, [False] * expected_ops(raw))
            continue
        data = (run_dir / "report.json").read_bytes()
        ledger.record(label, check_report(raw, json.loads(data)),
                      hashlib.sha256(data).hexdigest())
    return busy


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _source_digest() -> str:
    """Digest of the package and the benchmark, which together fix the counts."""
    h = hashlib.sha256()
    for base in (PACKAGE, Path(__file__).resolve().parent):
        for path in sorted(base.rglob("*")):
            if path.suffix in (".py", ".json") and "__pycache__" not in path.parts:
                h.update(path.relative_to(base).as_posix().encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _timed(mods, configs, cfgs, out, ledger, seconds: int, metric_spec) -> dict:
    paths = [p for _, _, p in configs]
    setup = [_setup_probe(paths) for _ in range(SETUP_PROBES // 2)]
    per_config = []
    t_start = time.perf_counter()
    while True:
        per_config.append(_run_pass(mods, configs, cfgs, out, ledger))
        elapsed = time.perf_counter() - t_start
        if elapsed + sum(per_config[-1]) > min(seconds, PASS_DEADLINE_S):
            break
    passes = [sum(p) for p in per_config]
    for i, (label, _, _) in enumerate(configs):
        print(f"run_experiment {label}: {[round(p[i], 4) for p in per_config]} s")
    setup += [_setup_probe(paths) for _ in range(SETUP_PROBES - len(setup))]
    for name, values in (("wall_s", passes), ("setup_s", setup)):
        q1, q3 = _quartiles(values)
        print(f"{name} repetitions={len(values)} q1={q1:.4f} median={statistics.median(values):.4f} "
              f"q3={q3:.4f} all={[round(v, 4) for v in values]}")
    values = {
        "wall_s": statistics.median(passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_spec}


def _traced(mods, workload, configs, cfgs, out, ledger, seed: int, metric_spec):
    """Per-layer metrics of the first of two traced passes, and whether the
    span and count self-checks held."""
    correct = True
    untraced = sum(_run_pass(mods, configs, cfgs, out, ledger))
    stats, busy = [], []
    for k in range(2):
        with Tracer(mods) as tracer:
            busy.append(sum(_run_pass(mods, configs, cfgs, out, ledger, tracer)))
        if k == 0:
            tracer.save(out / "spans.npz")
        stats.append(tracer.layer_stats())
        del tracer
    stats[0]["trace.overhead_share"] = busy[0] / untraced - 1.0
    print(f"untraced pass {untraced:.4f} s, traced passes {[round(b, 4) for b in busy]} s")

    missing = [s for s in workload.required_spans
               if any(st.get(f"{s}.calls", 0) == 0 for st in stats)]
    if missing:
        correct = False
        print(f"FAIL: spans never produced: {missing}")
    count_keys = sorted({m["name"] for m in metric_spec if m["unit"] in COUNT_UNITS}
                        | {k for k in stats[0] if k.endswith((".calls", ".errors"))})
    counts = [{k: st.get(k, 0) for k in count_keys} for st in stats]
    if counts[0] != counts[1]:
        correct = False
        diff = {k: (counts[0][k], counts[1][k]) for k in count_keys
                if counts[0][k] != counts[1][k]}
        print(f"FAIL: counts differ between traced passes: {diff}")
    earlier_file = OUT / "counts" / f"{workload.name}-seed{seed}-{_source_digest()}.json"
    if earlier_file.is_file():
        earlier = json.loads(earlier_file.read_text())
        if earlier != counts[0]:
            correct = False
            print(f"FAIL: counts differ from the earlier traced run in {earlier_file.name}")
    else:
        earlier_file.parent.mkdir(parents=True, exist_ok=True)
        earlier_file.write_text(json.dumps(counts[0], indent=1, sort_keys=True) + "\n")
    metrics = {m["name"]: {"value": stats[0][m["name"]], "unit": m["unit"]}
               for m in metric_spec}
    return metrics, correct


def main(argv=None) -> int:
    args = _parse(argv)
    if not (PACKAGE / "__init__.py").is_file():
        raise BenchError(f"no foldbilliards package under {SRC}; run from a checkout root")
    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        raise BenchError(f"{bench_file} not found; run from a checkout root")
    bench = json.loads(bench_file.read_text())
    workload = WORKLOADS[args.workload]
    out = OUT / workload.name
    configs = _write_configs(workload, args.seed, out)
    mods = _import_package()
    cfgs = [mods["foldbilliards.config"].load_config(p) for _, _, p in configs]
    ledger = Ledger()
    print(f"workload={workload.name} seed={args.seed} configs={[c[0] for c in configs]}")
    print(f"seed use: {workload.seed_use}")
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__} "
          f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")

    if args.trace:
        metrics, correct = _traced(mods, workload, configs, cfgs, out, ledger, args.seed,
                                   bench["per_layer"])
    else:
        metrics = _timed(mods, configs, cfgs, out, ledger, args.seconds, bench["end_to_end"])
        correct = True

    for label, digests in ledger.digests.items():
        note = "" if len(digests) == 1 else f" (varies across passes: {len(digests)})"
        print(f"report.json sha256 {label}: {sorted(digests)[0]}{note}")
    failed_share = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    print(f"failed_share {failed_share:.6g} share ({ledger.failed}/{ledger.attempted} operations)")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    correct = correct and ledger.attempted > 0 and ledger.failed == 0
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"benchmark cannot run: {e}", file=sys.stderr)
        sys.exit(2)
