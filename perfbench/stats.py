"""Small statistics helpers shared by the report and the tests."""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: A tail percentile is reported only with at least this many samples
#: strictly beyond it.
MIN_TAIL_SAMPLES = 10


def percentile_with_tail(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-th percentile, or None when fewer than
    :data:`MIN_TAIL_SAMPLES` samples lie beyond it."""
    n = len(samples)
    if n == 0:
        return None
    rank = math.ceil(q / 100.0 * n)
    if n - rank < MIN_TAIL_SAMPLES:
        return None
    return sorted(samples)[rank - 1]


def tail_samples_needed(q: float) -> int:
    """Smallest sample count for which the ``q``-th percentile has
    :data:`MIN_TAIL_SAMPLES` samples beyond it."""
    n = MIN_TAIL_SAMPLES
    while n - math.ceil(q / 100.0 * n) < MIN_TAIL_SAMPLES:
        n += 1
    return n

