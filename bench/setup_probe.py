"""Time one cold set-up of a workload in a fresh interpreter: import snls,
parse its configs, build grid, noise model and initial datum.  Prints the
seconds taken.  Run by bench/run.py, which takes the median of several.

    python3 bench/setup_probe.py <workload> <seed>
"""

import os
import sys
import time

t0 = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402  (imports snls)

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
print(repr(time.perf_counter() - t0))
