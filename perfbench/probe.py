"""Print the seconds a fresh interpreter spends on one set-up step.

    python3 perfbench/probe.py WORKLOAD   # import qmemsim + the workload's set-up
    python3 perfbench/probe.py scipy      # import scipy.stats + scipy.optimize
"""

import sys
import time

from workloads import WORKLOADS


def main(mode: str) -> float:
    start = time.perf_counter()
    if mode == "scipy":
        import scipy.optimize  # noqa: F401
        import scipy.stats  # noqa: F401
    else:
        import qmemsim  # noqa: F401
        WORKLOADS[mode].setup()
    return time.perf_counter() - start


if __name__ == "__main__":
    print(repr(main(sys.argv[1])))
