"""Differential tests for fused burst-step execution (DESIGN.md §11).

The burst path amortizes Python dispatch by executing whole runs of
provably-uneventful workload steps as one vectorized batch.  Its
contract is bit-identity: a batched run must be indistinguishable —
FTL end state, increments, simulated clock, checkpoint files — from
the per-step loop it replaces.  These tests run the same experiment
with ``step_batching`` on and off (and against the ``fast_poll=False``
naive-polling reference) and require every observable to match
exactly, including byte-identical checkpoint snapshots.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.experiment import WearOutExperiment
from repro.devices import build_device
from repro.fs import Ext4Model, F2fsModel
from repro.ftl import plancache
from repro.ftl.burst import plan_write_burst
from repro.state.checkpoint import CheckpointManager
from repro.units import KIB
from repro.workloads import FileRewriteWorkload, generic_step_batch
from tests.test_ftl_equivalence import ftl_fingerprint

SCALE = 2048  # small scaled device: a few hundred steps to level 3


def _experiment(fs_cls=Ext4Model, pattern="rand", seed=7, **exp_kwargs):
    device = build_device("emmc-8gb", scale=SCALE, seed=seed)
    fs = fs_cls(device)
    workload = FileRewriteWorkload(
        fs, num_files=4, request_bytes=4 * KIB, pattern=pattern, seed=seed
    )
    return WearOutExperiment(device, workload, filesystem=fs, **exp_kwargs)


def _outcome(exp):
    """Every observable the scalar and batched paths must agree on."""
    result = exp.result
    return (
        ftl_fingerprint(exp.device.ftl),
        [record.to_dict() for record in result.increments],
        result.total_seconds,
        result.total_app_bytes,
        result.total_host_bytes,
        result.bricked,
        exp.clock.now,
        exp.steps_completed,
        exp.filesystem.app_bytes_written,
    )


class TestBatchedRunEquivalence:
    """Batched runs must be bit-identical to per-step runs."""

    @pytest.mark.parametrize(
        "fs_cls,pattern",
        [(Ext4Model, "rand"), (Ext4Model, "seq"), (F2fsModel, "rand"), (F2fsModel, "seq")],
    )
    def test_matches_scalar_fast_poll_loop(self, fs_cls, pattern):
        batched = _experiment(fs_cls, pattern)
        batched.run(until_level=3)

        scalar = _experiment(fs_cls, pattern)
        scalar.step_batching = False
        scalar.run(until_level=3)

        assert _outcome(batched) == _outcome(scalar)
        assert len(batched.result.increments) >= 2  # non-trivial run

    def test_matches_naive_polling_reference(self):
        """fast_poll=False / batch=1 is the untouched reference path
        (ISSUE: must stay available); the fused loop must match it."""
        batched = _experiment()
        batched.run(until_level=3)

        naive = _experiment(fast_poll=False)
        naive.run(until_level=3)

        assert _outcome(batched) == _outcome(naive)

    def test_repeated_run_at_reached_level_takes_one_step(self):
        """A second run() at an already-reached level executes exactly
        one step in the scalar loop; the fused loop must do the same."""
        batched = _experiment()
        batched.run(until_level=2)
        scalar = _experiment()
        scalar.step_batching = False
        scalar.run(until_level=2)

        batched.run(until_level=2)
        scalar.run(until_level=2)
        assert _outcome(batched) == _outcome(scalar)

    def test_duck_typed_workload_uses_generic_batcher(self):
        """A workload without step_batch runs through
        generic_step_batch and still matches the scalar loop."""

        class DuckWorkload:
            def __init__(self, inner):
                self._inner = inner
                self.description = inner.description

            @property
            def space_utilization(self):
                return self._inner.space_utilization

            def step(self):
                return self._inner.step()

        batched = _experiment()
        batched.workload = DuckWorkload(batched.workload)
        batched.run(until_level=2)

        scalar = _experiment()
        scalar.step_batching = False
        scalar.run(until_level=2)
        assert _outcome(batched) == _outcome(scalar)

    def test_delegating_wrapper_is_not_bypassed(self):
        """A wrapper forwarding unknown attributes to an inner workload
        exposes the inner step_batch; the fused loop must NOT take it
        (it would skip the wrapper's per-step behaviour) — every step
        must still go through the wrapper's own step()."""

        class Wrapper:
            def __init__(self, inner):
                self._inner = inner
                self.calls = 0

            def step(self):
                self.calls += 1
                return self._inner.step()

            def __getattr__(self, name):
                return getattr(self._inner, name)

        batched = _experiment()
        wrapper = Wrapper(batched.workload)
        batched.workload = wrapper
        batched.run(until_level=2)
        assert wrapper.calls == batched.steps_completed

    @pytest.mark.slow
    def test_retirement_crossing_truncates_and_matches_scalar(self):
        """A retirement crossing inside a fused window truncates the
        plan at the crossing group instead of bailing it wholesale
        (DESIGN.md §15): with a wide endurance spread one block retires
        mid-run, and the batched trajectory — including the truncated
        window, the scalar crossing step, and every later window planned
        around the bad block — must still match the scalar loop
        bit-for-bit."""

        def experiment():
            device = build_device(
                "emmc-8gb", scale=512, seed=127, endurance_sigma=0.35
            )
            fs = Ext4Model(device)
            workload = FileRewriteWorkload(
                fs, num_files=4, request_bytes=4 * KIB, pattern="seq", seed=127
            )
            return WearOutExperiment(device, workload, filesystem=fs)

        batched = experiment()
        batched.run(until_level=5)
        scalar = experiment()
        scalar.step_batching = False
        scalar.run(until_level=5)

        assert batched.device.ftl.package.bad_blocks_view.any()
        assert _outcome(batched) == _outcome(scalar)

    def test_generic_step_batch_stops_at_budget(self):
        exp = _experiment()
        exp.run(until_level=1)
        counters = exp.device.ftl.package.counters
        budget = [(counters, counters.block_erases + 1)]
        out = generic_step_batch(exp.workload, 64, budget)
        durations, byte_counts, bricked = out
        assert not bricked
        assert 1 <= len(durations) < 64
        assert len(byte_counts) == len(durations)
        assert counters.block_erases >= budget[0][1]


class TestCheckpointEquivalence:
    """Interval and crossing checkpoints written by a batched run must
    be byte-identical to the ones an unbatched run writes at the same
    ``steps_completed`` (satellite: fast_poll x checkpointing x
    batching)."""

    def _run_with_checkpoints(self, root, step_batching):
        exp = _experiment()
        exp.step_batching = step_batching
        manager = CheckpointManager(root)
        exp.enable_checkpointing(manager, key="burst-equiv", interval_steps=50)
        exp.run(until_level=3)
        return exp, sorted(path.name for path in manager.root.iterdir())

    def test_snapshots_byte_identical(self, tmp_path):
        batched_exp, batched_files = self._run_with_checkpoints(
            tmp_path / "batched", step_batching=True
        )
        scalar_exp, scalar_files = self._run_with_checkpoints(
            tmp_path / "scalar", step_batching=False
        )
        assert _outcome(batched_exp) == _outcome(scalar_exp)
        # Same crossing files (same steps_completed at each crossing)
        # plus the rolling interval wip file.
        assert batched_files == scalar_files
        assert any(name.endswith("-wip.npz") for name in batched_files)
        assert sum(1 for name in batched_files if "-s" in name) >= 2
        for name in batched_files:
            batched_bytes = (tmp_path / "batched" / name).read_bytes()
            scalar_bytes = (tmp_path / "scalar" / name).read_bytes()
            assert batched_bytes == scalar_bytes, name

    def test_restored_crossing_continues_on_trajectory(self, tmp_path):
        """Warm-starting from a batched run's crossing checkpoint and
        continuing (batched) reproduces the cold scalar run."""
        from repro.state.snapshot import load_state, restore_experiment

        _, files = self._run_with_checkpoints(tmp_path / "ck", step_batching=True)
        crossing = sorted(name for name in files if "-s" in name)[0]

        resumed = _experiment()
        restore_experiment(resumed, load_state(tmp_path / "ck" / crossing))
        resumed.run(until_level=3)

        cold = _experiment()
        cold.step_batching = False
        cold.run(until_level=3)
        assert ftl_fingerprint(resumed.device.ftl) == ftl_fingerprint(cold.device.ftl)
        assert resumed.steps_completed == cold.steps_completed
        assert resumed.clock.now == cold.clock.now


class TestStepBatchProtocol:
    """FileRewriteWorkload.step_batch: rewind-and-replay semantics."""

    def test_fallback_rewinds_pattern_state(self):
        """A refused burst must leave generator state untouched: the
        next scalar step draws exactly what it would have drawn."""
        broken = _experiment()
        twin = _experiment()
        # Disable the filesystem's metadata planner: write_requests_burst
        # returns None and step_batch must rewind.
        broken.filesystem._burst_metadata_plan = lambda sizes: None

        assert broken.workload.step_batch(6) is None
        assert broken.workload._next_file == twin.workload._next_file
        for g_broken, g_twin in zip(
            broken.workload._generators, twin.workload._generators
        ):
            assert np.array_equal(g_broken.next_batch(16), g_twin.next_batch(16))

    @pytest.mark.parametrize("pattern", ["rand", "seq"])
    def test_truncated_batch_replays_prefix(self, pattern):
        """A budget-truncated batch (m < n) must leave the workload in
        the exact state of m scalar steps: same durations, same device
        state, same future draws."""
        burst = _experiment(pattern=pattern)
        scalar = _experiment(pattern=pattern)
        burst.run(until_level=1)
        scalar.step_batching = False
        scalar.run(until_level=1)

        counters = burst.device.ftl.package.counters
        budget = [(counters, counters.block_erases + 2)]
        out = burst.workload.step_batch(64, budget)
        assert out is not None
        durations, byte_counts, bricked = out
        m = len(durations)
        assert not bricked
        assert 1 <= m < 64

        scalar_durations = [scalar.workload.step()[0] for _ in range(m)]
        assert durations == scalar_durations
        assert byte_counts == [
            scalar.workload.batch_requests * scalar.workload.request_bytes
        ] * m
        assert ftl_fingerprint(burst.device.ftl) == ftl_fingerprint(scalar.device.ftl)
        assert burst.workload._next_file == scalar.workload._next_file
        for g_burst, g_scalar in zip(
            burst.workload._generators, scalar.workload._generators
        ):
            assert np.array_equal(g_burst.next_batch(16), g_scalar.next_batch(16))

    def test_unbudgeted_batch_executes_all_steps(self):
        burst = _experiment()
        scalar = _experiment()
        out = burst.workload.step_batch(8, None)
        assert out is not None
        durations, byte_counts, bricked = out
        assert len(durations) == 8 and not bricked
        scalar_durations = [scalar.workload.step()[0] for _ in range(8)]
        assert durations == scalar_durations
        assert ftl_fingerprint(burst.device.ftl) == ftl_fingerprint(scalar.device.ftl)


class TestWindowWorkingSet:
    """A fused window holds a bounded working set per planned request.

    Each layer holds at most one window-sized array (DESIGN.md §11):
    the workload's draws, which the filesystem turns into device offsets
    in place; the device's bucket matrix, shifted in place to units; the
    planner's sort codes, turned in place into next-occurrence links,
    plus one scratch array while it builds them.  Measured peak: about
    35 B per request with int64 codes and 44 with uint32 codes (where
    fixed per-window costs weigh more).  Each bound sits below one more
    int64 copy of the window (8 B per request); copies at every layer
    measured about 80.
    """

    @pytest.fixture
    def cache_off(self):
        previous = plancache.cache().enabled
        plancache.configure(enabled=False)
        yield
        plancache.configure(enabled=previous)

    # 16 steps pack (LPN, position) into uint32 sort codes; 160 steps
    # need more than 32 bits at this geometry and take the int64 codes.
    # The bound is peak traced bytes per planned 4 KiB request.
    @pytest.mark.parametrize(
        "steps,wide_codes,bound", [(16, False, 50), (160, True, 42)]
    )
    def test_peak_bytes_per_request(self, steps, wide_codes, bound, cache_off, monkeypatch):
        device = build_device("emmc-8gb", scale=256, seed=3)
        fs = Ext4Model(device)
        workload = FileRewriteWorkload(
            fs, num_files=4, request_bytes=4 * KIB, pattern="rand", seed=3
        )
        planned = []

        def spy(ftl, segments, num_groups, stop_erases):
            planned.append(sum(int(s.unit_lpns.size) for s in segments))
            return plan_write_burst(ftl, segments, num_groups, stop_erases)

        monkeypatch.setattr("repro.ftl.burst.plan_write_burst", spy)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = workload.step_batch(steps, None)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

        assert out is not None and len(out[0]) == steps  # fused, whole window
        (units,) = planned
        pos_bits = (units - 1).bit_length()
        assert (device.ftl.num_logical_units > 1 << (32 - pos_bits)) == wide_codes
        requests = steps * workload.batch_requests
        assert peak / requests < bound
