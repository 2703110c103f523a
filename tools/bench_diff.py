"""Print what differs between two logs of ``perfbench/run.py --trace 1`` of
one workload and seed, say at a base commit and at this one:

    python tools/bench_diff.py base.log head.log

It compares the ``report.json sha256`` lines and the per-layer metrics whose
units do not depend on the machine (``count`` and ``bytes``, read from the
result object on the last line), and prints one line per difference,
``<what> <base> -> <head>`` (``absent`` for a value on one side only).  Exit
status 1 on any difference, 0 when there is none.
"""

from __future__ import annotations

import argparse
import json
import sys

from bench_pairs import COUNT_UNITS

SHA_PREFIX = "report.json sha256 "


def read_log(path: str) -> dict[str, object]:
    """The report digests (``sha256 <label>``) and the machine-independent
    counts of one log."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    out: dict[str, object] = {}
    for line in lines:
        if line.startswith(SHA_PREFIX):
            label, _, digest = line[len(SHA_PREFIX):].partition(": ")
            out[f"sha256 {label}"] = digest
    metrics = json.loads(lines[-1])["metrics"]
    out.update({name: m["value"] for name, m in metrics.items() if m["unit"] in COUNT_UNITS})
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("head")
    args = ap.parse_args(argv)
    base, head = read_log(args.base), read_log(args.head)
    differ = 0
    for key in list(base) + [k for k in head if k not in base]:
        old, new = base.get(key, "absent"), head.get(key, "absent")
        if old != new:
            print(f"{key} {old} -> {new}")
            differ = 1
    return differ


if __name__ == "__main__":
    sys.exit(main())
