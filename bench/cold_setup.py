"""Time one cold set-up of a workload: import stampset, build the inputs.

    python3 -I -S bench/cold_setup.py WORKLOAD SEED

Prints the seconds spent importing stampset's public modules plus
building the workload's inputs, in a process that has imported nothing
else.  ``-S`` keeps ``site`` from preloading modules, so every module
stampset pulls in is imported, and timed, here.  The benchmark's own
modules are imported after stampset and outside the timing, and the
standard-library modules they share with stampset are already loaded by
then.  run.py starts this script for each set-up sample.
"""

import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

started = time.perf_counter()
import stampset.cli  # noqa: E402
import stampset.core  # noqa: E402
import stampset.families  # noqa: E402
import stampset.modular  # noqa: E402
import stampset.scan  # noqa: E402
import stampset.verifier  # noqa: E402

imported = time.perf_counter()

from workloads import WORKLOADS  # noqa: E402

built = time.perf_counter()
WORKLOADS[sys.argv[1]](stampset, int(sys.argv[2]))
print(repr(imported - started + time.perf_counter() - built))
