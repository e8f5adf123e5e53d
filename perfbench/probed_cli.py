"""Runs the cluster-mlp command line under the host-speed probe, then writes
the probe's reading as JSON.

    python perfbench/probed_cli.py READING_OUT COMMAND CONFIG [OPTIONS...]

The probe starts before `cluster_mlp.cli` is imported, so the import is
sampled too; only interpreter start-up is not.
"""

import sys

from hostspeed import Probe


def main() -> int:
    reading_out, argv = sys.argv[1], sys.argv[2:]
    probe = Probe()
    probe.start()
    try:
        from cluster_mlp import cli

        return cli.main(argv)
    finally:
        probe.stop().dump(reading_out)


if __name__ == "__main__":
    sys.exit(main())
