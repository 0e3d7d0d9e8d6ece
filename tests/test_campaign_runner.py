"""Tests for the process-parallel campaign runner.

Covers the two acceptance contracts (DESIGN.md §8):

* Determinism — a ``workers=4`` run produces a canonical store
  byte-identical to a serial run of the same spec;
* Resume — an interrupted campaign reruns only the missing points and
  converges on the same final store.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.campaign.runner import CampaignRunner, run_point
from repro.campaign.spec import CampaignSpec, PointSpec, expand_grid, point_key, resolve_seed
from repro.campaign.store import ResultStore
from repro.errors import ConfigurationError
from repro.units import KIB


def bandwidth_campaign(name="bw", sizes=(4 * KIB, 64 * KIB), seeds=(1, 2)):
    """A fast all-bandwidth grid (fresh scaled device per point)."""
    return expand_grid(
        name, kind="bandwidth", devices=("emmc-8gb",), patterns=("rand",),
        request_sizes=sizes, seeds=seeds, scale=512,
    )


def checkpointed_grid():
    """A 3-point wear-out ladder sharing one trajectory (warm-startable)."""
    return CampaignSpec(
        name="ladder",
        points=[
            PointSpec(kind="wearout", device="emmc-8gb", scale=512, seed=7,
                      filesystem="ext4", until_level=level)
            for level in (1, 2, 3)
        ],
        base_seed=1,
    )


# Runs checkpointed_grid() serially into a store; with "kill", the
# process dies (os._exit: no cleanup, no flush beyond what append did)
# right after its second append.  Prints the run's report otherwise.
_CAMPAIGN_CHILD = textwrap.dedent("""
    import json, os, sys
    from repro.campaign.runner import CampaignRunner
    from repro.campaign.store import ResultStore
    from tests.test_campaign_runner import KILLED, checkpointed_grid

    store_path, checkpoint_dir, mode = sys.argv[1:4]
    if mode == "kill":
        append = ResultStore.append
        appended = []

        def append_then_die(self, record):
            append(self, record)
            appended.append(record["key"])
            if len(appended) == 2:
                os._exit(KILLED)

        ResultStore.append = append_then_die
    runner = CampaignRunner(
        checkpointed_grid(), ResultStore(store_path), checkpoint_dir=checkpoint_dir
    )
    report = runner.run(workers=1)
    print(json.dumps({"ran": report.ran, "skipped": report.skipped}))
""")

#: Exit status of the killed campaign child.
KILLED = 75


def _campaign_child(store_path, checkpoint_dir, mode):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    return subprocess.run(
        [sys.executable, "-c", _CAMPAIGN_CHILD, str(store_path), str(checkpoint_dir), mode],
        env=env, capture_output=True, text=True, timeout=600,
    )


def mixed_campaign():
    """Bandwidth + wear-out points: exercises device rebuild, the
    filesystem stack, and result serialization across kinds."""
    points = (
        PointSpec(kind="bandwidth", device="emmc-8gb", scale=512, seed=1,
                  pattern="rand", request_bytes=4 * KIB),
        PointSpec(kind="bandwidth", device="usd-16gb", scale=512, seed=1,
                  pattern="seq", request_bytes=64 * KIB),
        PointSpec(kind="wearout", device="emmc-8gb", scale=512, seed=7,
                  filesystem="ext4", until_level=2),
        PointSpec(kind="wearout", device="emmc-8gb", scale=512, seed=None,
                  filesystem="f2fs", until_level=2),
    )
    return CampaignSpec(name="mixed", points=points, base_seed=99)


class TestRunPoint:
    def test_bandwidth_point_payload(self):
        spec = bandwidth_campaign()
        key, point = spec.keyed_points()[0]
        record = run_point({
            "key": key, "campaign": spec.name, "spec": point.to_dict(),
            "seed": resolve_seed(point, spec.base_seed),
        })
        assert record["key"] == key
        assert record["result"]["type"] == "bandwidth"
        assert record["result"]["mib_per_s"] > 0
        assert record["telemetry"]["elapsed_s"] > 0
        assert isinstance(record["telemetry"]["worker_pid"], int)

    def test_phone_point_runs(self):
        point = PointSpec(kind="phone", device="emmc-8gb", scale=512, seed=11,
                          strategy="naive", hours=2.0)
        record = run_point({
            "key": point_key(point), "campaign": "t",
            "spec": point.to_dict(), "seed": 11,
        })
        assert record["result"]["type"] == "phone"
        assert record["result"]["strategy"] == "naive"
        assert record["result"]["attack_bytes"] > 0


class TestSerialRun:
    def test_runs_all_points_into_store(self):
        spec = bandwidth_campaign()
        store = ResultStore(None)
        report = CampaignRunner(spec, store).run(workers=1)
        assert report.ran == len(spec) and report.skipped == 0
        assert len(store) == len(spec)
        assert report.utilization > 0

    def test_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError):
            CampaignRunner(bandwidth_campaign(), ResultStore(None)).run(workers=0)

    def test_progress_callback_sees_every_point(self):
        spec = bandwidth_campaign()
        lines = []
        CampaignRunner(spec, ResultStore(None)).run(workers=1, progress=lines.append)
        assert len(lines) == len(spec)
        assert all("bandwidth" in line for line in lines)


class TestDeterminism:
    """Acceptance: N workers, any scheduling -> byte-identical store."""

    def test_workers4_matches_serial_byte_for_byte(self, monkeypatch):
        # The runner clamps the pool to the machine's core count; pin it
        # so the genuine multiprocessing path runs even on 1-core CI.
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        spec = mixed_campaign()
        serial, parallel = ResultStore(None), ResultStore(None)
        CampaignRunner(spec, serial).run(workers=1)
        report = CampaignRunner(spec, parallel).run(workers=4)
        assert report.workers == 4
        assert parallel.canonical_bytes() == serial.canonical_bytes()
        assert parallel.fingerprint() == serial.fingerprint()

    def test_pool_clamped_to_core_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        spec = bandwidth_campaign()
        report = CampaignRunner(spec, ResultStore(None)).run(workers=4)
        assert report.workers == 1
        assert report.ran == len(spec)

    def test_serial_rerun_reproduces_itself(self):
        spec = bandwidth_campaign()
        a, b = ResultStore(None), ResultStore(None)
        CampaignRunner(spec, a).run(workers=1)
        CampaignRunner(spec, b).run(workers=1)
        assert a.canonical_bytes() == b.canonical_bytes()


class TestResume:
    """Acceptance: interrupt -> resume completes only the missing
    points and yields the same final store."""

    def test_resume_skips_completed_points(self, tmp_path):
        spec = bandwidth_campaign(seeds=(1, 2, 3))
        path = tmp_path / "store.jsonl"

        # "Interrupted" run: only the first 2 of 6 points completed.
        interrupted = CampaignRunner(spec.subset(2), ResultStore(path))
        assert interrupted.run(workers=1).ran == 2

        # Resume the full campaign against the same store.
        report = CampaignRunner(spec, ResultStore(path)).run(workers=2)
        assert report.skipped == 2
        assert report.ran == len(spec) - 2

        # The final store matches an uninterrupted serial run.
        reference = ResultStore(None)
        CampaignRunner(spec, reference).run(workers=1)
        assert ResultStore(path).canonical_bytes() == reference.canonical_bytes()

    def test_killed_campaign_resumes_missing_point_only(self, tmp_path):
        """A campaign process killed right after its second append
        leaves a store that a fresh process resumes by running only the
        third point, and the result equals an uninterrupted run."""
        store_path = tmp_path / "store.jsonl"
        checkpoints = tmp_path / "ck"

        killed = _campaign_child(store_path, checkpoints, "kill")
        assert killed.returncode == KILLED, killed.stderr
        assert len(ResultStore(store_path)) == 2

        resumed = _campaign_child(store_path, checkpoints, "resume")
        assert resumed.returncode == 0, resumed.stderr
        assert json.loads(resumed.stdout.splitlines()[-1]) == {"ran": 1, "skipped": 2}

        reference = ResultStore(None)
        CampaignRunner(checkpointed_grid(), reference).run(workers=1)
        assert ResultStore(store_path).fingerprint() == reference.fingerprint()

    def test_fully_complete_campaign_reruns_nothing(self):
        spec = bandwidth_campaign()
        store = ResultStore(None)
        CampaignRunner(spec, store).run(workers=1)
        report = CampaignRunner(spec, store).run(workers=2)
        assert report.ran == 0
        assert report.skipped == len(spec)

    def test_fresh_invalidates_and_reruns(self):
        spec = bandwidth_campaign()
        store = ResultStore(None)
        CampaignRunner(spec, store).run(workers=1)
        report = CampaignRunner(spec, store).run(workers=1, fresh=True)
        assert report.ran == len(spec)
        assert report.skipped == 0


class TestReport:
    def test_describe_mentions_counts_and_utilization(self):
        spec = bandwidth_campaign()
        report = CampaignRunner(spec, ResultStore(None)).run(workers=1)
        text = report.describe()
        assert f"ran={len(spec)}" in text
        assert "skipped=0" in text
        assert "utilization=" in text
