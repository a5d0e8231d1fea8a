"""Traced run of one landchange command, in-process.

    python3 perfbench/traced_main.py SPANS.json -- <landchange arguments>

Imports `landchange.cli`, wraps the layer functions listed in
`tracer.LAYERS`, calls `landchange.cli.main(argv)` and writes the span
summary, the grid I/O tallies and the missing names to SPANS.json. The
exit code is the command's own.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracer import Tracer, install, summarize  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, command = argv[0], argv[2:]
    import landchange.cli

    tracer = Tracer()
    missing = install(tracer)
    t0 = time.perf_counter()
    rc = landchange.cli.main(command)
    elapsed = time.perf_counter() - t0
    io = {
        name: {k: v for k, v in t.items() if k != "paths"} for name, t in tracer.io.items()
    }
    with open(out_path, "w", encoding="ascii") as fh:
        json.dump(
            {"rc": rc, "elapsed_s": elapsed, "missing": missing, "spans": summarize(tracer.spans), "io": io},
            fh,
        )
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
