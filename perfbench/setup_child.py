"""One timed set-up of a workload in a fresh interpreter.

Usage: python3 perfbench/setup_child.py WORKLOAD SEED TINY

Builds the workload's inputs from the seed (untimed), then imports
qsubgroups and makes the workload's set-up calls, and prints the seconds
those took, scaled to the reference speed (reference.py).  `run.py`
reports the median over several children as setup_s.
"""

import sys

from reference import timed
from workloads import WORKLOADS


def run() -> None:
    name, seed, tiny = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    wl = WORKLOADS[name](seed, tiny, {})
    print(timed(wl.load)[1])


if __name__ == "__main__":
    run()
