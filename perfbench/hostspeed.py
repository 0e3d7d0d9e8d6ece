"""How fast the host runs right now, for host-speed-normalized timings.

The machines this benchmark was tuned on change speed by up to 1.75x
within twenty minutes (other tenants' load), so raw host seconds from
two sets of runs differ by more than any bound could hold.  Each pass
therefore reads :func:`probe` — a fixed unit of work that uses nothing
from the simulator — several times while it runs, and its timings are
rescaled to a reference host speed::

    normalized_s = host_s * (REFERENCE_PROBE_S / median(probe readings)) ** PROBE_EXPONENT

The probe mixes interpreter work (dict and list churn, as in the scalar
simulator loops) with memory-bound numpy gathers (as in the fused burst
path).  A change to the simulator cannot move it: its arrays are
allocated once at import, it runs with the garbage collector paused,
and it reads no simulator state.
"""

from __future__ import annotations

import gc
import time

import numpy as np

#: ``probe()`` seconds that define the reference host speed (about the
#: median on the 2-vCPU VM the bounds were set on).  Only a unit: it
#: fixes which host speed a normalized second refers to.
REFERENCE_PROBE_S = 0.02

#: The probe's time swings more than the workloads' when the host speed
#: changes (its readings' spread over ten runs was about 1.3x theirs),
#: so only this power of its ratio is applied.  Fitted once, over ten
#: seeds of every workload: it brought the largest cross-run spread of
#: a gated timing from 0.40 (raw) and 0.24 (exponent 1) to 0.17.
PROBE_EXPONENT = 0.75

_table = np.arange(1 << 20, dtype=np.int64)
_gather = np.random.default_rng(20170501).integers(0, _table.size, 100_000)


def probe() -> float:
    """Host seconds for the fixed unit of work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        counts: dict = {}
        items = []
        for j in range(100_000):
            key = j & 1023
            counts[key] = counts.get(key, 0) + j
            if j & 7 == 0:
                items.append(key)
        items.sort()
        total = 0
        for _ in range(12):
            total += int(_table[_gather].sum())
        seconds = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if total < 0:  # uses the gathers' result
        raise AssertionError
    return seconds
