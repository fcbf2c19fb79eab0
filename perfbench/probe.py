"""Set-up probe: a fresh interpreter imports beatsched and builds one
workload's inputs, then prints the monotonic clock.

Usage: python3 perfbench/probe.py WORKLOAD SEED

The caller reads the clock before starting this process; the difference
is the workload's set-up time up to its first timed instance. Both sides
use time.monotonic(), one system-wide clock on Linux.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports beatsched from the checkout)

workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
print(repr(time.monotonic()))
