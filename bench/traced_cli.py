"""Run the heisgame CLI with its public layer functions traced.

    python3 bench/traced_cli.py SPANS.npz solve scenario.json --out DIR

Arguments after the span file go to ``heisgame.cli.main`` unchanged.  The
spans are written to ``SPANS.npz`` when the command ends.
"""

import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import heisgame.cli

    try:
        return heisgame.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
