"""A fixed reference computation that measures how fast the machine runs now.

The benchmark's host is a small virtual machine on a shared server. Its
speed drifts by up to 1.5x over stretches of 20 s to several minutes, with no
steal time to show for it, and that drift moves whole runs. The yardstick is
timed between operations in the same process, so it sees the same drift;
`run.py` divides every op time by the run's median yardstick time and
multiplies by NOMINAL_S, which reports op times at one fixed machine speed.

The yardstick does the kinds of work the workloads do, none of it through
jumprl: a Python loop over dicts and floats, small NumPy array operations and
Philox bit-generator construction. Its work must never change. A change to it
or to NOMINAL_S changes every timing metric of the benchmark, so it is a
change to the benchmark and needs a new baseline.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.025  # about one call on the baseline machine in its fast state

_ROWS = np.random.default_rng(0).standard_normal((64, 101))


def work() -> float:
    """One fixed unit of reference work; returns a value so none is skipped."""
    table = {}
    acc = 0.0
    for i in range(20000):
        table[i & 255] = acc
        acc += (i * 0.5) % 3.0
    rows = _ROWS.copy()
    for i in range(400):
        rows = np.tanh(rows * 0.9 + 0.1)
        acc += float(rows.sum(axis=1).mean())
        acc += np.random.Generator(np.random.Philox(i)).standard_normal(8)[0]
    return acc


def seconds() -> float:
    """Wall time of one call to `work`."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start
