"""Load a workload's config and measure the way the CLI does, then print
the monotonic clock, which the benchmark compares with the launch time.

    PYTHONPATH=src python perfbench/setup_probe.py <cli arguments>
"""

import sys
import time

from brownscope import cli

if __name__ == "__main__":
    args = cli.build_parser().parse_args(sys.argv[1:])
    cli.resolve_measure(cli.load_config(args))
    print(time.monotonic())
