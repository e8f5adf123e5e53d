"""Runs the cluster-mlp command line with the tracer installed, then writes
the recorded spans as JSON.

    python perfbench/traced_cli.py SPANS_OUT COMMAND CONFIG [OPTIONS...]

The import of `cluster_mlp.cli` is recorded as the span `cli.import`.
"""

import sys

from tracing import Tracer


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        from cluster_mlp import cli
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main())
