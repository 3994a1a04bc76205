"""Run one trapcav command line with layer spans recorded, then save the spans.

Usage: python3 bench/traced_cli.py SPANS.npz <trapcav arguments...>

trapcav must be importable (PYTHONPATH=src).  The package is imported before
tracing starts, so interpreter and import start-up stay outside the spans;
the ``cli.main`` span covers argument parsing, the computation and output.
"""

import sys

import trapcav.cli
from tracing import Tracer


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.call("cli.main", trapcav.cli.main, argv)
    finally:
        tracer.uninstall()
        tracer.save(path)


if __name__ == "__main__":
    sys.exit(main())
