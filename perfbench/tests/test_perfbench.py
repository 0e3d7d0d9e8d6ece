"""The benchmark's own tests: ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from perfbench import child, run, workloads  # noqa: E402
from perfbench.stats import percentile_with_tail, tail_samples_needed  # noqa: E402
from perfbench.tracing import NO_PARENT, Probe, Probes, SpanRecorder, self_times  # noqa: E402


# -- self time ---------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # op [0, 100) > a [10, 40) > a1 [12, 20); op > b [50, 60)
    starts = [0, 10, 12, 50]
    ends = [100, 40, 20, 60]
    parents = [NO_PARENT, 0, 1, 0]
    assert self_times(starts, ends, parents) == [100 - 30 - 10, 30 - 8, 8, 10]


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    starts = [0, 10, 15, 90]
    ends = [100, 30, 40, 120]
    parents = [NO_PARENT, 0, 0, 0]
    # Children cover [10, 40) and [90, 100) of the parent: 40 units.
    assert self_times(starts, ends, parents)[0] == 60


def test_recorder_nests_spans_and_tags_ops():
    recorder = SpanRecorder()
    outer, inner = recorder.intern("outer"), recorder.intern("inner")
    recorder.current_op = 7
    a = recorder.begin(outer)
    b = recorder.begin(inner)
    recorder.finish(b)
    recorder.set_tag(b, "leader")
    recorder.finish(a)
    rows = list(recorder.rows())
    assert [r[0] for r in rows] == ["outer", "inner"]
    assert rows[1][3] == a and rows[0][3] == NO_PARENT
    assert rows[1][4] == 7 and rows[1][5] == "leader"
    assert all(r[2] >= r[1] for r in rows)


# -- tail percentile rule ----------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert tail_samples_needed(90) == 100
    assert percentile_with_tail([float(i) for i in range(99)], 90) is None
    samples = [float(i) for i in range(100)]
    assert percentile_with_tail(samples, 90) == 89.0
    assert sum(s > 89.0 for s in samples) == 10


def test_summary_omits_p90_below_the_sample_rule():
    def pass_with(n):
        ops = [{"seconds": 1.0 + i / n, "gib": 1.0, "failed": False} for i in range(n)]
        return {"ops": ops, "peak_rss_mb": 1.0, "probe_s": [0.1], "setup_s": 0.5,
                "setup_probe_s": [0.1], "normalized": True}

    assert run.summarize(pass_with(99), [pass_with(1)])["op_s_p90"] is None
    assert run.summarize(pass_with(150), [pass_with(1)])["op_s_p90"] is not None


def test_timings_are_rescaled_to_the_reference_host_speed():
    from perfbench.hostspeed import PROBE_EXPONENT, REFERENCE_PROBE_S

    # A host on which the probe takes twice the reference time: host
    # seconds count half (with the probe's sensitivity taken out).
    slow = 2 ** (1 / PROBE_EXPONENT) * REFERENCE_PROBE_S
    untraced = {"ops": [{"seconds": 4.0, "gib": 8.0, "failed": False}], "peak_rss_mb": 1.0,
                "probe_s": [slow, slow, 10 * slow], "setup_s": 1.0, "setup_probe_s": [slow],
                "normalized": True}
    summary = run.summarize(untraced, [untraced])
    assert summary["op_s_p50"] == pytest.approx(2.0)
    assert summary["raw_op_s_p50"] == pytest.approx(4.0)
    assert summary["sim_gib_per_s"] == pytest.approx(4.0)
    assert summary["setup_s"] == pytest.approx(0.5)
    # A workload that opts out keeps raw pass timings; set-up is still
    # normalized.
    summary = run.summarize(dict(untraced, normalized=False), [untraced])
    assert summary["op_s_p50"] == pytest.approx(4.0)
    assert summary["setup_s"] == pytest.approx(0.5)


# -- probes ------------------------------------------------------------


def test_probes_restore_every_binding_of_a_function_and_a_method():
    import repro.campaign.runner as campaign_runner
    import repro.fleet.branch as fleet_branch
    import repro.state.snapshot as snapshot
    from repro.core.experiment import WearOutExperiment

    original_fn = snapshot.restore_experiment
    original_method = WearOutExperiment.__dict__["run"]
    bound = [m for m in (campaign_runner, fleet_branch, snapshot)
             if getattr(m, "restore_experiment") is original_fn]
    assert len(bound) == 3
    recorder = SpanRecorder()
    probes = Probes([
        Probe("repro.state.snapshot", "restore_experiment", "state.restore"),
        Probe("repro.core.experiment:WearOutExperiment", "run", "experiment.run"),
    ], recorder)
    with probes:
        for module in bound:
            assert module.restore_experiment is not original_fn
            assert module.restore_experiment.__wrapped__ is original_fn
        assert WearOutExperiment.__dict__["run"] is not original_method
    for module in bound:
        assert module.restore_experiment is original_fn
    assert WearOutExperiment.__dict__["run"] is original_method


def test_probe_on_inherited_method_is_removed_again():
    from repro.devices.emmc import EmmcDevice

    assert "write_burst" not in EmmcDevice.__dict__
    with Probes([Probe("repro.devices.emmc:EmmcDevice", "write_burst", "w")], SpanRecorder()):
        assert "write_burst" in EmmcDevice.__dict__
    assert "write_burst" not in EmmcDevice.__dict__


def test_timed_probe_records_span_and_hook_sees_result():
    import repro.state.checkpoint as checkpoint

    seen = []
    recorder = SpanRecorder()
    probe = Probe("repro.state.checkpoint", "warm_start_key", "key",
                  after=lambda a, k, result, s, span: seen.append((result, span)))
    with Probes([probe], recorder):
        key = checkpoint.warm_start_key({"kind": "wearout"}, 3)
    assert seen == [(key, 0)]
    assert [row[0] for row in recorder.rows()] == ["key"]


# -- failure accounting ------------------------------------------------


class _FakeWorkload(workloads.Workload):
    """Instant ops with a fixed payload; optional reference mismatch."""

    name = "fake"
    mismatch = False

    def op(self, i):
        return workloads.OpOutcome(payload={"op": i}, gib=1.0)

    def check(self, i, outcome):
        return ["forced reference mismatch"] if self.mismatch else []

    def replay(self, i):
        pass


def _run_child(tmp_path, monkeypatch, pinned, mismatch=False, mode="untraced"):
    class Fake(_FakeWorkload):
        pass

    Fake.mismatch = mismatch
    monkeypatch.setitem(workloads.WORKLOADS, "fake", Fake)
    pins = tmp_path / "pinned.json"
    pins.write_text(json.dumps({"fake": pinned}))
    monkeypatch.setattr(child, "PINNED", pins)
    out = tmp_path / "out.json"
    code = child.main([
        "--workload", "fake", "--seed", str(workloads.DEFAULT_SEED), "--seconds", "0.05",
        "--mode", mode, "--spawn-t", "0", "--tmp", str(tmp_path / "ckpt"),
        "--out", str(out),
    ])
    assert code == 0
    return json.loads(out.read_text())


def test_forced_digest_mismatch_counts_in_failed_frac(tmp_path, monkeypatch):
    good = workloads.digest({"op": 0})
    result = _run_child(tmp_path, monkeypatch, [good, "0" * 64])
    summary = run.summarize(result, [result])
    assert result["ops"][0]["failed"] is False
    assert result["ops"][1]["failed"] is True
    assert "pinned" in result["ops"][1]["problems"][0]
    assert summary["failed"] == 1
    assert summary["failed"] / summary["n_ops"] > 0


def test_reference_mismatch_fails_the_checked_op(tmp_path, monkeypatch):
    result = _run_child(tmp_path, monkeypatch, [], mismatch=True)
    assert result["ops"][0]["failed"] is True
    assert result["ops"][0]["problems"] == ["forced reference mismatch"]


def test_every_op_starts_with_an_empty_plan_cache(tmp_path, monkeypatch):
    from repro.ftl import plancache

    clears = []
    monkeypatch.setattr(plancache, "clear", lambda: clears.append(1))
    result = _run_child(tmp_path, monkeypatch, [])
    assert len(clears) == len(result["ops"]) >= 1


def test_step_counts_split_fused_windows_from_scalar_steps():
    from perfbench.layers import StepCounts

    from repro.core.experiment import WearOutExperiment
    from repro.devices import build_device
    from repro.ftl import plancache
    from repro.fs import make_filesystem
    from repro.units import KIB
    from repro.workloads import FileRewriteWorkload

    def counted(step_batching):
        steps = StepCounts()
        steps.op = 0
        # Built under the probes: an experiment binds its stepper when
        # it is constructed, as every benchmark op's experiments are.
        with Probes(steps.probes()), plancache.disabled():
            device = build_device("emmc-8gb", scale=256, seed=5)
            fs = make_filesystem("ext4", device)
            workload = FileRewriteWorkload(fs, num_files=4, request_bytes=4 * KIB, seed=5)
            experiment = WearOutExperiment(device, workload, filesystem=fs)
            experiment.step_batching = step_batching
            experiment.run(until_level=2)
        fused, scalar = steps.per_op(0)
        assert fused + scalar == experiment.steps_completed
        return fused, scalar

    fused, scalar = counted(True)
    assert fused > 0 and scalar > 0
    assert counted(False) == (0, fused + scalar)


def test_traced_pass_reports_warm_replay_counts(tmp_path, monkeypatch):
    result = _run_child(tmp_path, monkeypatch, [], mode="traced")
    layer = result["per_layer"]
    assert set(layer) == set(run.PER_LAYER_UNITS)
    assert layer["ftl.plancache.warm_replay_lookups"] == 0
    assert layer["ftl.plancache.warm_replay_hits"] == 0


def test_per_layer_metrics_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS


def test_traced_pass_must_match_digests_and_step_counts():
    def op(index, digest, fused):
        return {"index": index, "failed": False, "problems": [], "digest": digest,
                "fused_steps": fused, "scalar_steps": 1}

    untraced = {"ops": [op(0, "a", 5), op(1, "b", 5), op(2, "c", 5)]}
    traced = {"ops": [op(0, "a", 5), op(1, "x", 5), op(2, "c", 4)]}
    flagged = run.compare_passes(untraced, traced)
    assert [record["index"] for record, _ in flagged] == [1, 2]


@pytest.mark.parametrize("name", sorted(run.WORKLOAD_NAMES))
def test_every_workload_is_registered_with_a_reason(name):
    cls = workloads.WORKLOADS[name]
    assert cls.name == name and cls.why
