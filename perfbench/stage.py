"""Run one pepsearch CLI stage in this process, traced.

    python perfbench/stage.py SPANS_FILE OP <pepsearch arguments...>

Imports ``pepsearch.cli`` inside the span ``cli.import``, wraps the layer
functions, calls ``pepsearch.cli.main`` with the remaining arguments and
writes the spans as JSON to SPANS_FILE.  Exits with the stage's exit
code, like the ``pepsearch`` entry point.
"""

import json
import sys

from spans import Tracer, dump


def main(argv: list[str]) -> int:
    spans_file, op, args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.op = op
    try:
        with tracer.span("cli.import"):
            import pepsearch.cli
        tracer.install()
        return pepsearch.cli.main(args)
    finally:
        with open(spans_file, "w") as fh:
            json.dump(dump(tracer.spans), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
