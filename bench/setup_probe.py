"""Set-up time of a fresh interpreter: import colavmpc, load a workload's configs.

Usage: python3 bench/setup_probe.py WORKLOAD SEED

Prints the seconds spent importing the package plus validating every
generated config with ``config.from_dict``. Generating the config dicts
is the benchmark's own work and is not counted.
"""

import time

t0 = time.perf_counter()

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from colavmpc import config

import_s = time.perf_counter() - t0

import workloads

dicts = workloads.GENERATORS[sys.argv[1]](int(sys.argv[2]))
t1 = time.perf_counter()
for data in dicts:
    config.from_dict(data)
print(import_s + time.perf_counter() - t1)
