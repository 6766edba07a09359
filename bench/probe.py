"""Set-up probe: a fresh interpreter imports the package and makes the
workload's minimal warm-up call, then prints ``time.monotonic()``.

The runner subtracts the monotonic time at which it started this process,
so the difference covers interpreter start, imports and lazy builds.

    python3 bench/probe.py WORKLOAD
"""

import sys
import time

import runenv

runenv.pin_threads()
runenv.use_checkout_sources()

import workloads  # noqa: E402  (must follow the thread pinning)

workloads.WORKLOADS[sys.argv[1]].warmup()
print(repr(time.monotonic()))
