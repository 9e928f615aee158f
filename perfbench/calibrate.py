"""Reference-speed scaling of wall-clock times on a shared host.

On a small shared machine the speed of one core drifts by a quarter or
more over tens of seconds, while the program's work stays the same.  A
:class:`Meter` runs a fixed pure-Python probe (dict updates, the same
kind of interpreter work the simulator does) between measured slices
and rescales each slice to the time it would have taken at the probe's
reference speed: ``slice × REFERENCE_S / probe time``, with the probe
time averaged over the probes just before and after the slice.  A
slice measured while the core ran fast or slow reads about the same.
"""

from __future__ import annotations

import time

#: Probe iterations, and the probe's duration at reference speed (a
#: 2-CPU x86-64 host running CPython 3.11 at its fastest observed).
PROBE_ITERATIONS = 40_000
REFERENCE_S = 0.006


def probe() -> float:
    """Wall seconds one fixed unit of interpreter work takes right now."""
    start = time.perf_counter()
    table: dict = {}
    for index in range(PROBE_ITERATIONS):
        key = index & 1023
        table[key] = table.get(key, 0) + index
    return time.perf_counter() - start


class Meter:
    """Scales consecutive wall-clock slices to reference seconds."""

    def __init__(self) -> None:
        self._last = probe()

    def scaled(self, seconds: float) -> float:
        """``seconds`` of wall time that just elapsed, at reference speed."""
        now = probe()
        factor = REFERENCE_S / ((self._last + now) / 2.0)
        self._last = now
        return seconds * factor
