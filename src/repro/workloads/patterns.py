"""Address pattern generators.

Emit batches of request offsets within a region: uniformly random (the
paper's "4 KiB rand"), sequentially wrapping (the "128 KiB seq"
phases), or strided (uFLIP's third micro-pattern — deterministic like
seq, but the gaps defeat write combining so every request pays the
mapping-unit read-modify-write that random writes pay).

Each generator owns its mutable state as a small dict, read and set
through its ``state`` property: ``{"rng": ...}`` (the bit-generator
state) for the random pattern, ``{"cursor": ...}`` for the cursor
patterns.  Every path that saves or re-applies a generator's position —
the fused path's rewind, the plan cache's probe and replay, checkpoints,
and cohort branching (which keeps a member's own ``"rng"`` entropy but
the prototype's cursors) — goes through it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import SeedLike, make_rng


class RandomPattern:
    """Uniformly random aligned offsets within ``region_bytes``."""

    name = "rand"

    def __init__(self, region_bytes: int, request_bytes: int, seed: SeedLike = None):
        if request_bytes <= 0 or region_bytes < request_bytes:
            raise ConfigurationError("region must hold at least one request")
        self.region_bytes = region_bytes
        self.request_bytes = request_bytes
        self._slots = region_bytes // request_bytes
        self._rng = make_rng(seed)

    @property
    def state(self) -> dict:
        return {"rng": self._rng.bit_generator.state}

    @state.setter
    def state(self, state: dict) -> None:
        self._rng.bit_generator.state = state["rng"]

    def next_batch(self, count: int) -> np.ndarray:
        """Return ``count`` independent request offsets."""
        return self._rng.integers(0, self._slots, size=count, dtype=np.int64) * self.request_bytes


class _CursorPattern:
    """Deterministic patterns whose whole state is a slot cursor."""

    _cursor: int

    @property
    def state(self) -> dict:
        return {"cursor": self._cursor}

    @state.setter
    def state(self, state: dict) -> None:
        self._cursor = int(state["cursor"])


class SequentialPattern(_CursorPattern):
    """Sequential aligned offsets, wrapping around the region."""

    name = "seq"

    def __init__(self, region_bytes: int, request_bytes: int, start: int = 0):
        if request_bytes <= 0 or region_bytes < request_bytes:
            raise ConfigurationError("region must hold at least one request")
        self.region_bytes = region_bytes
        self.request_bytes = request_bytes
        self._slots = region_bytes // request_bytes
        self._cursor = (start // request_bytes) % self._slots

    def next_batch(self, count: int) -> np.ndarray:
        offsets = ((self._cursor + np.arange(count, dtype=np.int64)) % self._slots) * self.request_bytes
        self._cursor = int((self._cursor + count) % self._slots)
        return offsets


class StridePattern(_CursorPattern):
    """Aligned offsets advancing by a fixed stride, wrapping.

    uFLIP's strided micro-pattern: deterministic forward progress like
    the sequential pattern, but consecutive requests are
    ``stride_requests`` slots apart, so the device's write-combining
    buffer never merges them — the request stream stays request-sized
    all the way to the FTL.
    """

    name = "stride"

    def __init__(
        self,
        region_bytes: int,
        request_bytes: int,
        stride_requests: int = 4,
        start: int = 0,
    ):
        if request_bytes <= 0 or region_bytes < request_bytes:
            raise ConfigurationError("region must hold at least one request")
        if stride_requests < 2:
            raise ConfigurationError(
                "stride_requests must be >= 2 (1 is the sequential pattern)"
            )
        self.region_bytes = region_bytes
        self.request_bytes = request_bytes
        self.stride_requests = int(stride_requests)
        self._slots = region_bytes // request_bytes
        self._cursor = (start // request_bytes) % self._slots

    def next_batch(self, count: int) -> np.ndarray:
        steps = self._cursor + np.arange(count, dtype=np.int64) * self.stride_requests
        offsets = (steps % self._slots) * self.request_bytes
        self._cursor = int((self._cursor + count * self.stride_requests) % self._slots)
        return offsets
