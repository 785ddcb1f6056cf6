"""Host speed probe: a fixed reference computation timed between items.

The benchmark's host is shared, and other tenants slow it by up to 1.7x in
spells that last from seconds to minutes; a whole run can fall inside one.
No statistic over one run removes that.  The loop therefore times a probe
between items, and every gated timing is divided by the host's slowness
around it, the probe's time there over its reference time: it reads as the
time the item would take on a host where the probe takes its reference
time.  A change to lindosc moves the items' times and not the probe's, so
it shows in full.  The probe shares the process and the CPU with the items,
so a change that leaves the caches or the allocator in another state can
move it a little; the raw timings are reported beside the scaled ones for
that reason.

Kinds of work do not slow alike, so the probe is made of parts and each
workload names the parts that resemble its items (``probe`` in
``workloads.py``).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_M = np.array([[0.9, 0.1], [-0.2, 0.8]])
_G = np.linspace(0.0, 1.0, 20000)


def _steps():
    """Steps of a 2x2 linear recursion, one numpy call at a time."""
    x = np.eye(2)
    for _ in range(400):
        x = _M @ x + 0.01 * x.T


def _interp():
    """Float arithmetic in the interpreter."""
    s = 0.0
    for i in range(10000):
        s += i * 0.5


def _grid():
    """Vectorised passes over a grid."""
    for _ in range(6):
        np.sum(np.exp(-1e-9 * _G) * _G)


#: Each part with its reference time, about its median time over 250 s of
#: runs on a shared 2-CPU x86-64 container with Python 3.11 and numpy 2.4,
#: where its 1st percentile lay at 0.56-0.72 and its 99th at 1.4-1.9 times
#: the median.
#: Any fixed values serve to compare two versions of lindosc.
PARTS = {"steps": (_steps, 1.8e-3), "interp": (_interp, 0.7e-3), "grid": (_grid, 0.4e-3)}


class Probe:
    """The named parts of the probe, timed as one sample."""

    def __init__(self, parts):
        self.parts = [PARTS[p][0] for p in parts]
        self.ref_s = sum(PARTS[p][1] for p in parts)

    def sample(self):
        """One probe sample, in seconds."""
        t0 = perf_counter()
        for part in self.parts:
            part()
        return perf_counter() - t0

    def slowness(self, samples, j):
        """The host's slowness while whatever ran between probe samples
        ``j`` and ``j + 1`` ran: the mean of those two samples over the
        reference time.  Samples further away follow the host less closely;
        with them the scaled item times of ten runs of a workload spread up
        to three times as far."""
        return (samples[j] + samples[j + 1]) / (2.0 * self.ref_s)
