"""Set-up cost a user pays before the first operation, measured in a fresh process.

    python3 perfbench/setup_probe.py <workload>

Times ``import hamlq`` and, for traj-many, the once-per-system
``solve_dare`` + ``closed_loop_gramian``; building the inputs is not timed.
Prints ``{"setup_s": ...}``. ``PYTHONPATH`` must point at the sources and
the BLAS thread variables must already be set, as ``run.py`` does.
"""

import json
import sys
import time

t0 = time.perf_counter()
import hamlq  # noqa: E402,F401  (the import is what is timed)

import_s = time.perf_counter() - t0

import workloads  # noqa: E402

workload = sys.argv[1]
systems_s = 0.0
if workload == "traj-many":
    named = {key: sysq for key, (sysq, _) in workloads.traj_systems().items()}
    t1 = time.perf_counter()
    workloads.solve_systems(named)
    systems_s = time.perf_counter() - t1
print(json.dumps({"setup_s": import_s + systems_s, "import_s": import_s}))
