"""
How fast the machine runs Python right now, measured on a fixed workload
that shares no code with dvahunter.

A shared virtual machine can change speed by up to 2x for minutes at a
time, which moves a whole run's median scan time. A
sample's wall time is divided by the time of this reference, measured in
the benchmark's own process just before and just after the sample, and
scaled back to seconds with ``NOMINAL_S``. The reference does the kind of
work a scan does (string formatting and splitting, dict inserts and
lookups over a table too large for the CPU's caches), so it slows down
with the scan (perfbench/README.md gives the spreads with and without
it). Because it runs no dvahunter code, a change to dvahunter moves the
scaled time as much as the wall time.
"""

from __future__ import annotations

import random
import time

TABLE = 200_000
# the reference's median time on the machine the baseline was measured on
NOMINAL_S = 0.13


class Pace:
    def __init__(self) -> None:
        self.keys = [f"w{i}.zone{i % 97}.example" for i in range(TABLE)]
        self.order = list(range(TABLE))
        random.Random(0).shuffle(self.order)

    def _work(self) -> int:
        counts: dict[str, int] = {}
        for i in range(40_000):
            name = f"n{i % 5000}.example"
            counts[name] = counts.get(name, 0) + 1
            name.split(".")
        table = {}
        for i in self.order[:50_000]:
            key = self.keys[i]
            table[key] = (i, key.rsplit(".", 1)[0])
        return len(counts) + sum(self.keys[i] in table for i in self.order[25_000:75_000])

    def seconds(self) -> float:
        started = time.perf_counter()
        self._work()
        return time.perf_counter() - started
