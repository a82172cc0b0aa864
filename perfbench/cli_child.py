"""`python -m curveinv.cli` with the layers traced, for traced cli_local runs.

    python3 perfbench/cli_child.py TRACE_OUT ARG...

Installs the wrappers in this fresh interpreter, runs `curveinv.cli.main`
on the arguments, writes the trace to TRACE_OUT and exits with main's code.
"""

import sys

from layertrace import Collector


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    import curveinv.cli

    collector = Collector()
    collector.install()
    collector.active = True
    try:
        code = curveinv.cli.main(argv)
    finally:
        collector.active = False
        collector.dump(out, {"argv": argv, "top_s": collector.top_ns / 1e9})
    return code


if __name__ == "__main__":
    sys.exit(main())
