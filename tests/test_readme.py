"""The README's Python quick start runs as written, so an API change cannot
leave it stale."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Quick start (Python)", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_python_quick_start_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_quick_start(), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    # the disk fold sits at height lam over the table's center
    assert "lam=0.2  sup=0.2000" in lines and "lam=0.1  sup=0.1000" in lines
    assert lines[-1] == "pass"
