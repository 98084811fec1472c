"""Start the serving daemon with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/daemon_main.py TRACE_OUT serve --daemon ...``

Installs :mod:`tracer`'s wrappers in this process, then hands the remaining
arguments to the normal ``repro`` command-line entry, so the daemon runs
exactly as ``repro serve --daemon`` would.  When the daemon has drained and
exited, the spans are written to ``TRACE_OUT``.
"""

import sys

import tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    spans = tracer.Tracer()
    tracer.install(spans)
    from repro.__main__ import main as repro_main

    try:
        return repro_main(argv)
    finally:
        spans.dump(out)


if __name__ == "__main__":
    sys.exit(main())
