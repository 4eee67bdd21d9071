"""One set-up sample, run as its own process by run.py:

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds from interpreter start-up to a constructed Trainer
(imports, Trainer construction and the first env resets), then the host
slowdown measured just after (refprobe.py), by which run.py scales it.
"""
import time

_t0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

_here = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_here), "src"))

from gridexplore.harness import Trainer  # noqa: E402
from refprobe import host_slowdown  # noqa: E402
from workloads import make_config  # noqa: E402

if __name__ == "__main__":
    Trainer(make_config(sys.argv[1]), int(sys.argv[2]))
    setup_s = time.perf_counter() - _t0
    print(setup_s, host_slowdown(repeats=5))
