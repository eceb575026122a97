"""Run one handstates command through ``handstates.cli.main`` in this process.

    python3 perfbench/child.py [--trace FILE --run ID] -- COMMAND [ARGS...]

Untraced, this is the plain CLI. With ``--trace`` the layer functions are
wrapped first and the spans are written to FILE when the command ends.
The benchmark starts one such process per command.
"""

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace")
    parser.add_argument("--run", default="run")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    from handstates import cli

    if opts.trace is None:
        return cli.main(argv)

    sys.path.insert(0, str(HERE))
    import tracing

    tracer = tracing.Tracer(opts.run)
    tracing.install(tracer)
    try:
        return cli.main(argv)
    finally:
        tracer.dump(opts.trace, argv[0])


if __name__ == "__main__":
    sys.exit(main())
