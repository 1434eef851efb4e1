"""Run the braidforge CLI with the span tracer on, for traced cli_cold runs.

    python perfbench/cli_traced.py SPANS_OUT [braidforge arguments...]

Behaves as ``python -m braidforge.cli ARGS`` (same stdout and exit code)
and writes the process's spans to SPANS_OUT at exit.  ``PYTHONPATH``
must name the checkout's ``src``.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tr = tracer.Tracer()
    tracer.install(tr)
    from braidforge import cli

    tr.on = True
    try:
        code = cli.main(argv)
    finally:
        tr.on = False
        tr.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
