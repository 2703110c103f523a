"""Time this checkout against a parent commit with perfbench, in alternating
pairs of runs, and record both sides in ``BENCH_<pr>.json``:

    python tools/bench_pairs.py --parent HEAD~1 --pr 14 --workload billiards \\
        --seed 0 --pairs 10 --seconds 40 --claim wall_s --change "what changed"

The change side is the working tree of this checkout; the parent side is a
``git archive`` export of ``--parent`` in a temporary directory, removed at
the end (no worktree is registered in the repository).  Pair i runs the
parent first when i is odd and the change first when it is even, one run at
a time.  Each run is

    python perfbench/run.py --workload W --seed S --seconds N --trace 0

in its own checkout, and its last output line (the result object) is kept.
After the pairs, each side runs once more with ``--trace 1`` for the
machine-independent per-layer counts (units ``count`` and ``bytes``).

The file holds, under ``end_to_end["<workload> seed <seed>"]``, the number of
pairs, every run, and for each end-to-end metric of ``BENCHMARK.json`` the
median and quartiles of both sides, the pairs the change won and the relative
change of the medians; with ``--claim``, ``claim_met`` under the rule quoted
in ``"claim"``; under ``"traced_counts"`` the counts of both sides, whether
each traced run reported ``correct``, and the counts that differ; and under
``"traced_self_s"`` both sides' traced ``*.self_s`` seconds per layer, which
show where a saving sits.
Another workload or seed adds its section to an existing file; the same
workload and seed replace theirs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
# per-layer units that do not depend on the machine (perfbench/run.py)
COUNT_UNITS = ("count", "bytes")
CLAIM_RULE = ("change wins >= 9/10 pairs and the median difference exceeds the "
              "parent's interquartile range")


def summary(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric ({"name", "better"} as in BENCHMARK.json): the median and
    inclusive quartiles of the parent and change values, the pairs in which
    the change was strictly better, and change median / parent median - 1."""
    out = {}
    for m in metrics:
        name = m["name"]
        values = {side: [r[side]["metrics"][name]["value"] for r in runs] for side in SIDES}
        stats = {}
        for side in SIDES:
            q1, median, q3 = (statistics.quantiles(values[side], n=4, method="inclusive")
                              if len(runs) > 1 else values[side] * 3)
            stats.update({f"{side}_median": median, f"{side}_q1": q1, f"{side}_q3": q3})
        sign = 1 if m["better"] == "lower" else -1
        stats["change_wins"] = sum(sign * (c - p) < 0
                                   for p, c in zip(values["parent"], values["change"]))
        stats["rel_change"] = stats["change_median"] / stats["parent_median"] - 1.0
        out[name] = stats
    return out


def traced_counts(traced: dict[str, dict], metrics: list[dict]) -> dict:
    """From one traced result per side, the per-layer metrics of BENCHMARK.json
    counted in ``COUNT_UNITS`` (in its order, those the run reported), each
    side's ``correct`` flag, and {name: [parent, change]} for the counts that
    differ."""
    names = [m["name"] for m in metrics if m["unit"] in COUNT_UNITS]
    out = {side: {name: traced[side]["metrics"][name]["value"] for name in names
                  if name in traced[side]["metrics"]} for side in SIDES}
    out["correct"] = {side: traced[side]["correct"] for side in SIDES}
    out["differ"] = {name: [out["parent"].get(name), out["change"].get(name)]
                     for name in names if out["parent"].get(name) != out["change"].get(name)}
    return out


def traced_self_s(traced: dict[str, dict], metrics: list[dict]) -> dict:
    """From one traced result per side, the per-layer ``*.self_s`` metrics of
    BENCHMARK.json that the run reported, in its order."""
    names = [m["name"] for m in metrics if m["name"].endswith(".self_s")]
    return {side: {name: traced[side]["metrics"][name]["value"] for name in names
                   if name in traced[side]["metrics"]} for side in SIDES}


def claim_met(stats: dict, pairs: int, better: str) -> bool:
    """CLAIM_RULE on one metric's summary: the change won at least nine
    tenths of the pairs, and its median beats the parent's by more than
    the parent's interquartile range."""
    gap = stats["parent_median"] - stats["change_median"]
    return (10 * stats["change_wins"] >= 9 * pairs
            and (gap if better == "lower" else -gap) > stats["parent_q3"] - stats["parent_q1"])


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _perfbench(checkout: Path, args, trace: int = 0) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench failed in {checkout}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _pairs(parent_dir: Path, args) -> list[dict]:
    checkouts = {"parent": parent_dir, "change": ROOT}
    runs = []
    for pair in range(1, args.pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        run = {"pair": pair, "first": order[0]}
        for side in order:
            run[side] = _perfbench(checkouts[side], args)
        runs.append(run)
        print(f"pair {pair}: " + ", ".join(
            f"{side} wall_s {run[side]['metrics']['wall_s']['value']:.4f}" for side in SIDES),
            file=sys.stderr)
    return runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--pr", required=True, help="the file written is BENCH_<pr>.json")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--claim", metavar="METRIC",
                    help="record the gain claimed on this workload's METRIC")
    ap.add_argument("--change", help="one line on what the change does")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_dir = Path(tmp) / "parent"
        parent_dir.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", parent],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_dir)], input=archive, check=True)
        runs = _pairs(parent_dir, args)
        traced = {side: _perfbench(checkout, args, trace=1)
                  for side, checkout in (("parent", parent_dir), ("change", ROOT))}

    path = ROOT / f"BENCH_{args.pr}.json"
    doc = json.loads(path.read_text()) if path.is_file() else {}
    if doc.get("parent_commit", parent) != parent:
        raise SystemExit(f"{path.name} was taken against {doc['parent_commit']}, not {parent}")
    doc.update({
        "parent_commit": parent,
        "machine": f"{os.cpu_count()} cores, Python {platform.python_version()}, "
                   f"numpy {version('numpy')}, OPENBLAS_NUM_THREADS "
                   f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}",
        "command": f"python perfbench/run.py --workload <w> --seed <s> --seconds "
                   f"{args.seconds} --trace 0, parent and change alternating "
                   f"(odd pairs parent first), then --trace 1 once per side",
    })
    if args.change:
        doc["change"] = args.change
    if args.claim:
        doc["claim"] = {"workload": args.workload, "metric": args.claim, "rule": CLAIM_RULE}
    stats = summary(runs, bench["end_to_end"])
    section = {"pairs": len(runs), "runs": runs, **stats}
    if args.claim:
        better = {m["name"]: m["better"] for m in bench["end_to_end"]}[args.claim]
        section["claim_met"] = claim_met(stats[args.claim], len(runs), better)
    section["traced_counts"] = traced_counts(traced, bench["per_layer"])
    section["traced_self_s"] = traced_self_s(traced, bench["per_layer"])
    doc.setdefault("end_to_end", {})[f"{args.workload} seed {args.seed}"] = section
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
