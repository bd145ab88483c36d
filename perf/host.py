"""The host-noise record: a fixed spin loop, /proc/stat steal, load average.

Diagnostics only.  ``run.py`` times the loop before and after every child
and reports what it saw as the ``host.*`` metrics and, when the probes
disagree by more than a quarter, as a warning.  No measured time is ever
adjusted by it.
"""

from __future__ import annotations

import os
import statistics
import time

#: about 50 ms of pure-Python work on this sandbox when nothing else runs
SPIN_LOOPS = 1_300_000
WARN_SPREAD = 0.25


def spin_ms() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(SPIN_LOOPS):
        acc += i
    return 1e3 * (time.perf_counter() - t0)


def cpu_jiffies() -> tuple[int, int]:
    """(stolen, total) from the aggregate line of /proc/stat."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


class HostRecord:
    """The probes taken during one run of ``run.py``."""

    def __init__(self) -> None:
        self.jiffies0 = cpu_jiffies()
        self.loadavg = os.getloadavg()[0]
        self.spins = [spin_ms()]

    def probe(self) -> None:
        self.spins.append(spin_ms())

    def metrics(self) -> dict:
        stolen, total = cpu_jiffies()
        d_total = total - self.jiffies0[1]
        median = statistics.median(self.spins)
        return {
            "host.spin_ms": median,
            "host.spin_spread": (max(self.spins) - min(self.spins)) / median,
            "host.steal_share":
                (stolen - self.jiffies0[0]) / d_total if d_total else 0.0,
            "host.loadavg": self.loadavg,
        }
