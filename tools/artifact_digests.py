"""Run every shipped config into a temporary directory and print the digest
of each deterministic artifact, one line each:

    <config> <artifact> <sha256[:16]>

followed by one ``<config> exit <code>`` line per config.  manifest.json
records wall time, so it is left out.  Save the output of one checkout and
compare another against it:

    PYTHONPATH=src python tools/artifact_digests.py > digests.txt
    PYTHONPATH=src python tools/artifact_digests.py --compare digests.txt

With ``--compare`` only the lines that differ are printed, as
``<config> <artifact> <saved> -> <now>`` (``absent`` for a line on one side
only), and the exit status is 1 on any difference.  ``--out-dir DIR`` keeps
the artifacts in ``DIR/<config>`` instead of a temporary directory, so that
two checkouts' reports can be diffed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from foldbilliards.cli import _shipped_configs, main


def digests(out_root: Path) -> list[str]:
    lines = []
    for name, _, path in _shipped_configs():
        out_dir = out_root / name
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["run", path, "--out-dir", str(out_dir)])
        for artifact in sorted(out_dir.iterdir()) if out_dir.exists() else []:
            if artifact.name != "manifest.json":
                digest = hashlib.sha256(artifact.read_bytes()).hexdigest()[:16]
                lines.append(f"{name} {artifact.name} {digest}")
        lines.append(f"{name} exit {code}")
    return lines


def differences(saved: list[str], now: list[str]) -> list[str]:
    """One line per key (config and artifact, or config and exit) whose value
    differs between the two outputs, in the order the keys first appear."""
    old, new = (dict(line.rsplit(" ", 1) for line in lines if line.strip())
                for lines in (saved, now))
    return [f"{key} {old.get(key, 'absent')} -> {new.get(key, 'absent')}"
            for key in dict.fromkeys([*old, *new]) if old.get(key) != new.get(key)]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Print the sha256 of every shipped config's artifacts.")
    parser.add_argument("--compare", type=Path, metavar="FILE",
                        help="print only the lines that differ from a saved output; exit 1 on any")
    parser.add_argument("--out-dir", type=Path, metavar="DIR",
                        help="keep the artifacts in DIR/<config> instead of a temporary directory")
    args = parser.parse_args()
    if args.out_dir is not None:
        lines = digests(args.out_dir)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            lines = digests(Path(tmp))
    if args.compare is None:
        print("\n".join(lines))
    else:
        diff = differences(args.compare.read_text().splitlines(), lines)
        if diff:
            print("\n".join(diff))
        sys.exit(1 if diff else 0)
