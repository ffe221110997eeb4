"""Traced command line run: ``launcher.py SPANS_OUT ARGS...``.

Installs the span wrappers, calls ``skewca.cli.main(ARGS)`` like
``python -m skewca.cli ARGS`` would, and writes the recorded spans to
SPANS_OUT as JSON. Exits with main's exit code.
"""

from __future__ import annotations

import json
import sys

import skewca.cli
from spans import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    try:
        code = skewca.cli.main(sys.argv[2:])
    finally:
        with open(sys.argv[1], "w", encoding="utf-8") as out:
            json.dump(tracer.take(), out)
    sys.exit(code)
