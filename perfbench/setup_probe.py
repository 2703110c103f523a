"""One set-up as a user pays it: import numpy and foldbilliards from the
checkout's ``src`` and load and validate the given config files.

Prints the wall-clock time (``time.time()``) at which the configs are
validated, so the parent can subtract the moment it started this process.

    python3 perfbench/setup_probe.py <src-dir> <config.json>...
"""

import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    src = Path(argv[0]).resolve()
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401  (part of the measured set-up)
    import foldbilliards
    from foldbilliards import config

    if not Path(foldbilliards.__file__).resolve().is_relative_to(src):
        print(f"foldbilliards imported from {foldbilliards.__file__}, not {src}",
              file=sys.stderr)
        return 2
    for path in argv[1:]:
        config.load_config(path)
    print(repr(time.time()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
