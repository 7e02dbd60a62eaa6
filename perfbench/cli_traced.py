"""Run the bosonic_telesim CLI with spans recorded, then report the span
summary as the last line of stderr, prefixed with ``tracer.SPANS_MARKER``.

    PYTHONPATH=src python perfbench/cli_traced.py <cli arguments>
"""

import json
import sys

from tracer import SPANS_MARKER, Tracer


def main():
    tracer = Tracer().install()
    from bosonic_telesim import cli
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
    sys.stderr.write(SPANS_MARKER + json.dumps(tracer.summary()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
