"""Run the ``repro`` CLI with the per-layer wrappers installed.

    python3 perfbench/launch.py TRACE_DIR figures --jobs 2 ...

Everything after TRACE_DIR is passed to ``repro.cli.main``.  The
wrappers go in before the CLI runs, so fan-out and daemon workers
forked later inherit them.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv) -> int:
    trace_dir, args = argv[0], argv[1:]
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.path.insert(0, HERE)
    import tracing

    tracing.install(trace_dir)
    from repro import cli

    return cli.main(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
