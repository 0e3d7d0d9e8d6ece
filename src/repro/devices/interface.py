"""Block device base class.

A :class:`BlockDevice` binds an FTL (plain or hybrid) to a performance
model and exposes the host-facing operations the filesystems and
workloads use.  All write/read calls return the simulated duration in
seconds; the experiment engine advances its virtual clock by that much.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from repro.devices.health import HealthReport
from repro.devices.perf import PerformanceModel
from repro.errors import DeviceWornOut, ReadOnlyError
from repro.ftl import plancache
from repro.ftl.burst import BurstSegment, fold_budget
from repro.ftl.ftl import PageMappedFTL
from repro.ftl.hybrid import HybridFTL

if TYPE_CHECKING:
    from repro.timing.backend import EventTimingBackend

AnyFtl = Union[PageMappedFTL, HybridFTL]


class BlockDevice:
    """A flash block device: FTL + performance model + health report.

    Args:
        name: Human-readable device name (catalog key).
        ftl: The translation layer managing the flash media.
        perf: Bandwidth curve.
        indicator_supported: False for budget devices whose firmware
            does not report reliable wear indicators (§4.4's BLU phones).
        scale: Capacity scale factor this instance was built at; volume
            reports from experiments multiply by it (DESIGN.md §6).
        timing: Optional event-driven timing backend (DESIGN.md §13).
            When set, request durations come from simulating channels,
            planes, and queue depth instead of the analytic ``perf``
            curve; wear accounting is unaffected — the FTL calls are
            identical under both backends.
    """

    def __init__(
        self,
        name: str,
        ftl: AnyFtl,
        perf: PerformanceModel,
        indicator_supported: bool = True,
        scale: int = 1,
        timing: Optional["EventTimingBackend"] = None,
    ):
        self.name = name
        self.ftl = ftl
        self.perf = perf
        self.indicator_supported = indicator_supported
        self.scale = scale
        self.timing = timing
        self.host_bytes_written = 0
        self.host_bytes_read = 0
        self.busy_seconds = 0.0
        self.failed = False

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    @property
    def logical_capacity(self) -> int:
        return self.ftl.logical_capacity_bytes

    @property
    def page_size(self) -> int:
        return self.ftl.geometry.page_size

    @property
    def read_only(self) -> bool:
        return self.failed or self.ftl.read_only

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------

    def write(self, offset: int, size: int) -> float:
        """One synchronous write; returns the simulated duration."""
        return self.write_many(np.array([offset], dtype=np.int64), size)

    def write_many(self, offsets: np.ndarray, request_bytes: int) -> float:
        """A batch of equal-sized synchronous writes.

        The batch is an efficiency device for the simulator; semantically
        each offset is an independent request.
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.size == 0:
            return 0.0
        if self.read_only:
            raise ReadOnlyError(f"{self.name} is read-only (worn out)")
        before = self.ftl.media_pages_programmed
        erases_before = self._total_erases() if self.timing is not None else 0
        # Both timing backends see the combined stream.
        eff_offsets, eff_request_bytes = self._combined(offsets, request_bytes)
        try:
            self.ftl.write_requests(eff_offsets, eff_request_bytes)
        except DeviceWornOut:
            self.failed = True
            raise
        media_pages = self.ftl.media_pages_programmed - before
        total_bytes = int(offsets.size) * request_bytes
        if self.timing is not None:
            duration = self.timing.time_writes(
                eff_offsets,
                eff_request_bytes,
                media_pages=media_pages,
                erases=self._total_erases() - erases_before,
            )
        else:
            host_pages = max(1, -(-total_bytes // self.page_size))
            duration = self.perf.write_duration(
                total_bytes, request_bytes, media_ratio=media_pages / host_pages
            )
        self.host_bytes_written += total_bytes
        self.busy_seconds += duration
        return duration

    @staticmethod
    def _combining(calls: np.ndarray, request_bytes: int) -> np.ndarray:
        """Which write calls the device's write-combining buffer merges.

        ``calls`` holds one call's offsets per row.  A call whose
        requests are back to back (each starts where the previous one
        ends) is merged into one request of the summed size, which is
        why Figure 1a's sequential small writes escape the mapping-unit
        read-modify-write that random ones (Figure 1b) pay.
        """
        combines = np.zeros(len(calls), dtype=bool)
        count = calls.shape[1]
        if count > 1:
            # Cheap screens on the first gap and the whole span; only
            # rows that pass both pay the full check.
            maybe = np.flatnonzero(
                (calls[:, 1] - calls[:, 0] == request_bytes)
                & (calls[:, -1] - calls[:, 0] == (count - 1) * request_bytes)
            )
            if maybe.size:
                combines[maybe] = (np.diff(calls[maybe], axis=1) == request_bytes).all(axis=1)
        return combines

    def _combined(self, offsets: np.ndarray, request_bytes: int):
        """The ``(offsets, request_bytes)`` one write call hands the FTL."""
        # Most calls are random and fail on their first gap; only the
        # rest pay for the row predicate.
        if (
            offsets.size > 1
            and int(offsets[1]) - int(offsets[0]) == request_bytes
            and self._combining(offsets[None, :], request_bytes)[0]
        ):
            return offsets[:1], request_bytes * int(offsets.size)
        return offsets, request_bytes

    def _total_erases(self) -> int:
        """Block erases across every flash package (timing accounting)."""
        return sum(pkg.counters.block_erases for pkg in self._packages())

    def burst_eligible(self) -> bool:
        """Static preconditions of :meth:`write_burst`.

        Cheap enough for callers to consult before pre-drawing a whole
        window of work: a device whose configuration can never take the
        fused path (hybrid FTL, read-only, event-timing backend) should
        cost nothing per window beyond this check.
        """
        return type(self.ftl) is PageMappedFTL and not self.read_only and self.timing is None

    def write_burst(self, groups, budget):
        """Fused write path covering many workload steps (DESIGN.md §11).

        Args:
            groups: One entry per workload step; each entry is a list of
                ``(offsets, request_bytes)`` pairs, each equivalent to one
                :meth:`write_many` call, in call order.
            budget: The experiment's poll budget — ``(counters, threshold)``
                pairs — or None for an unbounded burst.

        Returns:
            ``(m, seg_durations)`` where ``m`` is the number of whole steps
            executed (``m <= len(groups)``; the burst stops at the step
            whose erases exhaust the budget) and ``seg_durations`` lists the
            simulated duration of every executed call, in call order.
            Returns None when the fused path cannot run — the caller must
            fall back to per-step :meth:`write_many` calls, which reproduce
            the exact scalar behaviour (including raising the errors this
            path refuses to model).
        """
        ftl = self.ftl
        if type(ftl) is not PageMappedFTL or self.read_only:
            return None
        if self.timing is not None:
            # The event backend times each step's actual request stream;
            # refuse the fused path so callers replay per-step calls
            # (wear stays bit-identical either way — the fallback is the
            # exact scalar path).
            return None
        ok, stop_erases = fold_budget(budget, ftl.package.counters)
        if not ok:
            return None
        unit_bytes = ftl.unit_bytes
        unit_pages = ftl.unit_pages
        page = self.page_size
        limit = ftl.num_logical_units * unit_bytes
        calls = []
        buckets = {}
        for group, group_calls in enumerate(groups):
            for offsets, request_bytes in group_calls:
                offsets = np.asarray(offsets, dtype=np.int64)
                if offsets.size == 0 or request_bytes <= 0:
                    return None
                buckets.setdefault((int(offsets.size), request_bytes), []).append(len(calls))
                calls.append((group, offsets, request_bytes))
        if not calls:
            return None
        segments = [None] * len(calls)
        for (count, request_bytes), indices in buckets.items():
            rows = None
            if len(indices) > 1:
                stacked = np.stack([calls[i][1] for i in indices])
                rows = self._single_unit_rows(stacked, request_bytes, unit_bytes, page, limit)
            if rows is not None:
                # Common shape — in-range, uncombined requests that each
                # sit inside one mapping unit: one matrix pass builds
                # every call's segment.
                first_unit, host_pages = rows
                programs = count * unit_pages
                for row, i in enumerate(indices):
                    segments[i] = BurstSegment(
                        unit_lpns=first_unit[row],
                        host_pages=host_pages,
                        rmw_pages=programs - host_pages,
                        group=calls[i][0],
                        total_bytes=count * request_bytes,
                        request_bytes=request_bytes,
                    )
                continue
            for i in indices:
                group, offsets, _ = calls[i]
                eff_offsets, eff_request_bytes = self._combined(offsets, request_bytes)
                if int(eff_offsets.min()) < 0 or int(eff_offsets.max()) + eff_request_bytes > limit:
                    return None
                unit_lpns, host_pages = ftl.request_span(eff_offsets, eff_request_bytes)
                segments[i] = BurstSegment(
                    unit_lpns=unit_lpns,
                    host_pages=host_pages,
                    rmw_pages=int(unit_lpns.size) * unit_pages - host_pages,
                    group=group,
                    total_bytes=count * request_bytes,
                    request_bytes=request_bytes,
                )
        m = ftl.write_requests_batch(segments, len(groups), stop_erases)
        if m is None:
            return None
        seg_durations = []
        write_duration = self.perf.write_duration
        host_bytes = 0
        busy = self.busy_seconds
        for seg in segments:
            if seg.group >= m:
                break
            media_pages = int(seg.unit_lpns.size) * unit_pages
            host_pages = max(1, -(-seg.total_bytes // page))
            duration = write_duration(
                seg.total_bytes,
                seg.request_bytes,
                media_ratio=media_pages / host_pages,
            )
            host_bytes += seg.total_bytes
            busy += duration
            seg_durations.append(duration)
        self.host_bytes_written += host_bytes
        self.busy_seconds = busy
        cap = plancache.active_capture()
        if cap is not None:
            # Replays add host_delta and re-accumulate seg_durations in
            # this exact order from the then-current busy_seconds.
            cap.seg_durations = seg_durations
            cap.host_delta = host_bytes
        return m, seg_durations

    def _single_unit_rows(self, stacked, request_bytes, unit_bytes, page, limit):
        """Vectorized :meth:`PageMappedFTL.request_span` for a bucket of
        same-shaped calls, one per row of ``stacked``.

        Returns ``(first_unit, host_pages)`` — each row's units and the
        host pages every row carries — when every call is in range, none
        combines, and every request provably sits inside one mapping unit
        and spans the same number of pages; otherwise None, sending the
        bucket through the per-call path.  The proof is one pass with no
        temporary: a request's offset within its unit (or page) is a
        submask of the OR of all offsets, so the OR's low bits bound it.
        Units and pages are powers of two in every catalog device; other
        geometries take the per-call path.
        """
        if unit_bytes & (unit_bytes - 1):
            return None
        if int(stacked.min()) < 0 or int(stacked.max()) + request_bytes > limit:
            return None
        if self._combining(stacked, request_bytes).any():
            return None
        low = int(np.bitwise_or.reduce(stacked, axis=None))
        # Pages per request at offset-in-page 0 and at the OR's bound.
        pages = (request_bytes - 1) // page + 1
        if (
            (low & (unit_bytes - 1)) + request_bytes > unit_bytes
            or ((low & (page - 1)) + request_bytes - 1) // page + 1 != pages
        ):
            return None
        return stacked >> (unit_bytes.bit_length() - 1), pages * stacked.shape[1]

    def read(self, offset: int, size: int) -> float:
        return self.read_many(np.array([offset], dtype=np.int64), size)

    def read_many(self, offsets: np.ndarray, request_bytes: int) -> float:
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.size == 0:
            return 0.0
        self.ftl.read_requests(offsets, request_bytes)
        total_bytes = int(offsets.size) * request_bytes
        if self.timing is not None:
            duration = self.timing.time_reads(offsets, request_bytes)
        else:
            duration = self.perf.read_duration(total_bytes, request_bytes)
        self.host_bytes_read += total_bytes
        self.busy_seconds += duration
        return duration

    def trim(self, offset: int, size: int) -> None:
        """Discard a logical byte range (advisory, zero cost)."""
        page = self.page_size
        first = -(-offset // page)
        last = (offset + size) // page
        if last > first:
            self.ftl.trim_pages(first, last - first)

    def idle(self, seconds: float, temp_c: float = 25.0) -> None:
        """Idle period: trapped charge heals (§2.2)."""
        for package in self._packages():
            package.idle(seconds, temp_c)

    def _packages(self):
        if isinstance(self.ftl, HybridFTL):
            return [self.ftl.pool_a.package, self.ftl.pool_b.package]
        return [self.ftl.package]

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------

    def wear_indicators(self):
        if isinstance(self.ftl, HybridFTL):
            return self.ftl.wear_indicators()
        return {"A": self.ftl.wear_indicator()}

    def wear_poll_hints(self):
        """Per-memory-type ``(counters, min_further_erases)`` pairs.

        ``counters`` is the live :class:`~repro.flash.package.PackageCounters`
        of that pool (its ``block_erases`` field advances as the pool
        erases) and ``min_further_erases`` is a conservative lower bound
        on erases before that pool's indicator level can rise.  The
        experiment loop uses the pair to skip provably-uneventful
        ``wear_indicators()`` polls (DESIGN.md §10).
        """
        ftl = self.ftl
        if isinstance(ftl, HybridFTL):
            return {
                "A": (ftl.pool_a.package.counters, ftl.pool_a.erases_until_next_level()),
                "B": (ftl.pool_b.package.counters, ftl.pool_b.erases_until_next_level()),
            }
        return {"A": (ftl.package.counters, ftl.erases_until_next_level())}

    def health_report(self) -> HealthReport:
        indicators = self.wear_indicators()
        worst_pre_eol = max(
            (ind.pre_eol for ind in indicators.values()), key=lambda s: s.value
        )
        if isinstance(self.ftl, HybridFTL):
            host_pages = max(1, self.ftl.host_pages_requested)
        else:
            host_pages = max(1, self.ftl.stats.host_pages_requested)
        wa = self.ftl.media_pages_programmed / host_pages
        return HealthReport(
            device_name=self.name,
            indicators=indicators,
            pre_eol=worst_pre_eol,
            supported=self.indicator_supported,
            host_bytes_written=self.host_bytes_written,
            write_amplification=wa,
            read_only=self.read_only,
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} capacity={self.logical_capacity}>"
