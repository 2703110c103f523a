"""Run every shipped config into a temporary directory and print the digest
of each deterministic artifact, one line each:

    <config> <artifact> <sha256[:16]>

followed by one ``<config> exit <code>`` line per config.  manifest.json
records wall time, so it is left out.  The script only prints; compare two
checkouts by diffing their outputs:

    PYTHONPATH=src python tools/artifact_digests.py > digests.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for line in digests(Path(tmp)):
            print(line)
