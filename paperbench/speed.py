"""Machine-speed probe: a fixed kernel timed beside the program.

On a shared host the speed one thread gets drifts by tens of percent
over tens of seconds, with the host's other load, so two runs of the
same code can differ by more than any useful regression bound.  The
probe times a fixed pure-Python kernel at most every ``INTERVAL_S``
between operations and scales each measured time by
``REFERENCE_S / (median of the last few kernel times)``: every reported
time reads as on a machine where the kernel takes ``REFERENCE_S``.  The
kernel is the benchmark's own code, so a change to the program moves the
scaled times but not the scale.

The kernel does what the program mostly does: it builds, sorts and
groups a few thousand short-lived row dicts.  On a shared 2-vCPU virtual
machine, the host's speed changed the study requests' times by the same
factor as the kernel's, within a few percent.  It changed an encounter's
time by less: 1.29 times where the kernel's changed 1.49 times.  A
kernel of lookups into a fixed table changed by only about half as much
as the study requests.  So the scaling narrows the drift but does not
cancel it.  The collector is paused while the kernel runs, so its time
does not depend on how large the program's heap is.
"""

from __future__ import annotations

import gc
import random
import statistics
from collections import deque
from time import perf_counter

#: Kernel time, in seconds, that a scale factor of 1 corresponds to.
REFERENCE_S = 0.006
#: Kernel times the factor is the median of.
WINDOW = 5
#: Least time, in seconds, between two kernel samples.
INTERVAL_S = 0.1
#: Rows the kernel builds, sorts and groups.
KERNEL_ROWS = 3_000


class SpeedProbe:
    """Tracks the host's current speed; converts times to reference time."""

    def __init__(self) -> None:
        self.times: deque[float] = deque(maxlen=WINDOW)
        self.samples = 0
        self._last = 0.0
        for _ in range(WINDOW):
            self.sample()

    def _kernel(self) -> int:
        rng = random.Random(7)
        rows = [
            {"score": rng.randrange(1000), "name": str(i), "value": i * 0.5}
            for i in range(KERNEL_ROWS)
        ]
        rows.sort(key=lambda row: (row["score"], row["name"]))
        groups: dict[int, list[float]] = {}
        for row in rows:
            groups.setdefault(row["score"], []).append(row["value"])
        return len(groups)

    def sample(self) -> None:
        """Time the kernel once, with the collector paused."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = perf_counter()
            self._kernel()
            self.times.append(perf_counter() - started)
        finally:
            if enabled:
                gc.enable()
        self.samples += 1
        self._last = perf_counter()

    def maybe_sample(self) -> None:
        """Sample if ``INTERVAL_S`` has passed since the last sample."""
        if perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    @property
    def factor(self) -> float:
        """Reference seconds per measured second at the current speed."""
        return REFERENCE_S / statistics.median(self.times)
