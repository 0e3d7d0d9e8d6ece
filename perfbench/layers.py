"""Which simulator call boundaries are probed, and the per-layer
metrics derived from what the probes record.

Two probe sets exist:

* :class:`StepCounts` — count-only, installed in *every* pass: how many
  workload steps each op ran on the fused path and how many on the
  scalar reference path.  They wrap ``WearOutExperiment.run``,
  ``run_one_increment`` and ``FileRewriteWorkload.step_batch`` (once
  per run or fused window, never per step) with no clock reads, so the
  untraced pass can prove that tracing did not change which path ran.
* :class:`LayerCounts` — the traced pass only: one span per call into
  each layer's entry point, plus the counts and ratios measured at the
  same boundaries.

Every ``*_s`` metric is seconds per op; ``*_s`` metrics named after a
layer are that layer's *self* time (span durations minus the time their
child spans cover), except ``experiment.run_s``, ``fleet.prototype_s``,
``fleet.leader_s`` and ``fleet.demoted_replay_s``, which are inclusive
(they time whole experiment runs).  Counts are per op.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

from perfbench.tracing import Probe, SpanRecorder, self_times


class StepCounts:
    """Fused/scalar step counts, attributed to the op that ran them.

    Total steps are ``steps_completed`` deltas across ``run`` and
    ``run_one_increment``; fused steps are the lengths of the windows
    ``FileRewriteWorkload.step_batch`` returns (one hook per window,
    never per step); every other step ran on the scalar path.
    """

    def __init__(self) -> None:
        self.op = -1
        self.total: Dict[int, int] = defaultdict(int)
        self.fused: Dict[int, int] = defaultdict(int)

    def per_op(self, op: int) -> Tuple[int, int]:
        fused = self.fused[op]
        return fused, self.total[op] - fused

    def probes(self) -> List[Probe]:
        def run_before(args, kwargs):
            return args[0].steps_completed

        def run_after(args, kwargs, result, before, span):
            self.total[self.op] += args[0].steps_completed - before

        def window_after(args, kwargs, result, state, span):
            if result is not None:
                self.fused[self.op] += len(result[0])

        exp = "repro.core.experiment:WearOutExperiment"
        return [
            Probe(exp, "run", before=run_before, after=run_after),
            Probe(exp, "run_one_increment", before=run_before, after=run_after),
            Probe("repro.workloads.wearout:FileRewriteWorkload", "step_batch", after=window_after),
        ]


class LayerCounts:
    """Counts and ratios recorded at the probed boundaries."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.n: Dict[str, float] = defaultdict(float)
        self._roles: Dict[int, str] = {}
        self._cohort_branches = 0

    # -- hooks ---------------------------------------------------------

    def _fs_burst(self, args, kwargs, result, state, span):
        self.n["predrawn"] += len(args[1])
        if result is not None:
            self.n["committed"] += result[0]

    def _write_burst(self, args, kwargs, result, state, span):
        if result is None:
            self.n["write_burst_refused"] += 1

    def _plan(self, args, kwargs, result, state, span):
        if result is None:
            self.n["plan_bails"] += 1

    def _lookup(self, args, kwargs, result, state, span):
        if result is not None:
            self.n["plancache_hits"] += 1

    def _erase_one(self, args, kwargs, result, state, span):
        self.n["erases"] += 1

    def _erase_many(self, args, kwargs, result, state, span):
        self.n["erases"] += len(args[1])

    def _erase_burst(self, args, kwargs, result, state, span):
        self.n["erases"] += args[5] if len(args) > 5 else kwargs["num_erases"]

    def _save(self, args, kwargs, result, state, span):
        self.n["bytes_written"] += Path(result).stat().st_size

    def _run_before(self, args, kwargs):
        stats = args[0].device.ftl.stats
        return stats.snapshot()

    def _run_after(self, args, kwargs, result, before, span):
        experiment = args[0]
        delta = experiment.device.ftl.stats.delta(before)
        self.n["gc_pages_copied"] += delta.gc_pages_copied
        self.n["blocks_erased"] += delta.blocks_erased
        self.n["pages_programmed"] += delta.total_pages_programmed
        self.n["host_pages"] += delta.host_pages_requested
        role = self._roles.get(id(experiment))
        if role is not None:
            self.recorder.set_tag(span, role)

    def _cohort_before(self, args, kwargs):
        self._roles.clear()
        self._cohort_branches = 0

    def _cohort_after(self, args, kwargs, result, state, span):
        self.n["advances"] += result.advances
        self.n["demoted"] += len(result.demoted)
        self.n["lockstep_members"] += result.lockstep_count
        self.n["members"] += result.population
        self._roles.clear()

    def _branch(self, args, kwargs, result, state, span):
        # Inside run_cohort the first branched member is the leader;
        # every later one is a demoted member's scalar replay.
        role = "leader" if self._cohort_branches == 0 else "demoted"
        self._cohort_branches += 1
        self._roles[id(result)] = role

    # -- probe table ---------------------------------------------------

    def probes(self) -> List[Probe]:
        exp = "repro.core.experiment:WearOutExperiment"
        pkg = "repro.flash.package:FlashPackage"
        dev = "repro.devices.interface:BlockDevice"
        fs = "repro.fs.interface:FileSystem"
        return [
            Probe("repro.workloads.wearout:FileRewriteWorkload", "step_batch", "workloads.step_batch"),
            Probe(fs, "write_requests_burst", "fs.burst", after=self._fs_burst),
            Probe(fs, "write_requests", "fs.scalar"),
            Probe(dev, "write_burst", "devices.write_burst", after=self._write_burst),
            Probe(dev, "wear_indicators", "devices.wear_poll"),
            Probe(dev, "wear_poll_hints", "devices.wear_poll_hints"),
            Probe("repro.ftl.burst", "plan_write_burst", "ftl.burst.plan", after=self._plan),
            Probe("repro.ftl.burst", "commit_planned_burst", "ftl.burst.commit"),
            Probe("repro.ftl.plancache", "lookup", "ftl.plancache.lookup", after=self._lookup),
            Probe("repro.ftl.plancache", "finish_capture", "ftl.plancache.capture"),
            Probe("repro.ftl.ftl:PageMappedFTL", "write_requests", "ftl.write_requests"),
            Probe("repro.ftl.logblock:LogBlockFTL", "write_requests", "ftl.write_requests"),
            Probe(pkg, "erase_block", "flash.erase", after=self._erase_one),
            Probe(pkg, "erase_blocks", "flash.erase", after=self._erase_many),
            Probe(pkg, "apply_erase_burst", "flash.erase", after=self._erase_burst),
            Probe(exp, "run", "experiment.run", before=self._run_before, after=self._run_after),
            Probe(exp, "run_one_increment", "experiment.run",
                  before=self._run_before, after=self._run_after),
            Probe("repro.state.snapshot", "snapshot_experiment", "state.snapshot"),
            Probe("repro.state.snapshot", "save_state", "state.save", after=self._save),
            Probe("repro.state.snapshot", "load_state", "state.load"),
            Probe("repro.state.snapshot", "load_meta", "state.load"),
            Probe("repro.state.snapshot", "restore_experiment", "state.restore"),
            Probe("repro.campaign.runner:CampaignRunner", "run", "campaign.run"),
            Probe("repro.campaign.runner", "run_point", "campaign.point"),
            Probe("repro.campaign.store:ResultStore", "append", "campaign.store_append"),
            Probe("repro.fleet.engine", "run_cohort", "fleet.cohort",
                  before=self._cohort_before, after=self._cohort_after),
            Probe("repro.fleet.engine", "prototype_snapshot", "fleet.prototype"),
            Probe("repro.fleet.branch", "branch_experiment", "fleet.branch", after=self._branch),
            Probe("repro.fleet.soa:CohortState", "post_advance", "fleet.certificate"),
        ]


#: Per-layer metric name -> unit, in report order.
PER_LAYER_UNITS: Dict[str, str] = {
    "workloads.step_batch_s": "s/op",
    "workloads.predrawn_steps": "count/op",
    "workloads.committed_steps": "count/op",
    "workloads.predraw_waste": "ratio",
    "fs.burst_s": "s/op",
    "fs.burst_calls": "count/op",
    "fs.scalar_s": "s/op",
    "fs.scalar_calls": "count/op",
    "devices.write_burst_s": "s/op",
    "devices.write_burst_refused": "count/op",
    "devices.wear_poll_s": "s/op",
    "devices.wear_polls": "count/op",
    "ftl.burst.plan_s": "s/op",
    "ftl.burst.plan_calls": "count/op",
    "ftl.burst.plan_bails": "count/op",
    "ftl.burst.plan_ok_ratio": "ratio",
    "ftl.burst.commit_s": "s/op",
    "ftl.plancache.lookups": "count/op",
    "ftl.plancache.hits": "count/op",
    "ftl.plancache.hit_ratio": "ratio",
    "ftl.plancache.lookup_s": "s/op",
    "ftl.plancache.capture_s": "s/op",
    "ftl.plancache.bytes": "B/op",
    "ftl.plancache.warm_replay_s": "s",
    "ftl.plancache.warm_replay_hits": "count",
    "ftl.plancache.warm_replay_lookups": "count",
    "ftl.write_requests_s": "s/op",
    "ftl.gc_pages_copied": "count/op",
    "ftl.blocks_erased": "count/op",
    "ftl.wa": "ratio",
    "flash.erase_s": "s/op",
    "flash.erases": "count/op",
    "experiment.run_s": "s/op",
    "experiment.self_s": "s/op",
    "experiment.fused_steps": "count/op",
    "experiment.scalar_steps": "count/op",
    "experiment.fused_share": "ratio",
    "state.snapshot_s": "s/op",
    "state.save_s": "s/op",
    "state.load_s": "s/op",
    "state.restore_s": "s/op",
    "state.saves": "count/op",
    "state.restores": "count/op",
    "state.bytes_written": "B/op",
    "campaign.point_s": "s/op",
    "campaign.store_append_s": "s/op",
    "campaign.self_s": "s/op",
    "fleet.prototype_s": "s/op",
    "fleet.branch_s": "s/op",
    "fleet.certificate_s": "s/op",
    "fleet.advances": "count/op",
    "fleet.lockstep_share": "ratio",
    "fleet.demoted": "count/op",
    "fleet.demoted_replay_s": "s/op",
    "fleet.leader_s": "s/op",
    "trace.overhead_gib_per_s": "GiB/s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    recorder: SpanRecorder,
    counts: LayerCounts,
    steps: StepCounts,
    n_ops: int,
    plancache_bytes: List[int],
    warm_replay: Dict[str, float],
    overhead_gib_per_s: float,
) -> Dict[str, float]:
    """Every per-layer metric, from the traced pass's spans and counts."""
    names = recorder.names
    self_ns = self_times(recorder.start, recorder.end, recorder.parent)
    self_s: Dict[str, float] = defaultdict(float)
    incl_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    tagged_s: Dict[str, float] = defaultdict(float)
    for i in range(len(recorder)):
        name = names[recorder.name_id[i]]
        duration = (recorder.end[i] - recorder.start[i]) * 1e-9
        self_s[name] += self_ns[i] * 1e-9
        incl_s[name] += duration
        calls[name] += 1
        tag = recorder.tag[i]
        if tag >= 0:
            tagged_s[names[tag]] += duration
    n = counts.n
    ops = max(n_ops, 1)
    fused = sum(steps.per_op(op)[0] for op in range(n_ops))
    scalar = sum(steps.per_op(op)[1] for op in range(n_ops))
    plan_calls = calls["ftl.burst.plan"]
    lookups = calls["ftl.plancache.lookup"]
    raw = {
        "workloads.step_batch_s": self_s["workloads.step_batch"],
        "workloads.predrawn_steps": n["predrawn"],
        "workloads.committed_steps": n["committed"],
        "fs.burst_s": self_s["fs.burst"],
        "fs.burst_calls": calls["fs.burst"],
        "fs.scalar_s": self_s["fs.scalar"],
        "fs.scalar_calls": calls["fs.scalar"],
        "devices.write_burst_s": self_s["devices.write_burst"],
        "devices.write_burst_refused": n["write_burst_refused"],
        "devices.wear_poll_s": self_s["devices.wear_poll"] + self_s["devices.wear_poll_hints"],
        "devices.wear_polls": calls["devices.wear_poll"],
        "ftl.burst.plan_s": self_s["ftl.burst.plan"],
        "ftl.burst.plan_calls": plan_calls,
        "ftl.burst.plan_bails": n["plan_bails"],
        "ftl.burst.commit_s": self_s["ftl.burst.commit"],
        "ftl.plancache.lookups": lookups,
        "ftl.plancache.hits": n["plancache_hits"],
        "ftl.plancache.lookup_s": self_s["ftl.plancache.lookup"],
        "ftl.plancache.capture_s": self_s["ftl.plancache.capture"],
        "ftl.write_requests_s": self_s["ftl.write_requests"],
        "ftl.gc_pages_copied": n["gc_pages_copied"],
        "ftl.blocks_erased": n["blocks_erased"],
        "flash.erase_s": self_s["flash.erase"],
        "flash.erases": n["erases"],
        "experiment.run_s": incl_s["experiment.run"],
        "experiment.self_s": self_s["experiment.run"],
        "experiment.fused_steps": fused,
        "experiment.scalar_steps": scalar,
        "state.snapshot_s": self_s["state.snapshot"],
        "state.save_s": self_s["state.save"],
        "state.load_s": self_s["state.load"],
        "state.restore_s": self_s["state.restore"],
        "state.saves": calls["state.save"],
        "state.restores": calls["state.restore"],
        "state.bytes_written": n["bytes_written"],
        "campaign.point_s": self_s["campaign.point"],
        "campaign.store_append_s": self_s["campaign.store_append"],
        "campaign.self_s": self_s["campaign.run"],
        "fleet.prototype_s": incl_s["fleet.prototype"],
        "fleet.branch_s": self_s["fleet.branch"],
        "fleet.certificate_s": self_s["fleet.certificate"],
        "fleet.advances": n["advances"],
        "fleet.demoted": n["demoted"],
        "fleet.demoted_replay_s": tagged_s["demoted"],
        "fleet.leader_s": tagged_s["leader"],
    }
    out = {name: value / ops for name, value in raw.items()}
    out["workloads.predraw_waste"] = 1.0 - _ratio(n["committed"], n["predrawn"]) if n["predrawn"] else 0.0
    out["ftl.burst.plan_ok_ratio"] = _ratio(plan_calls - n["plan_bails"], plan_calls)
    out["ftl.plancache.hit_ratio"] = _ratio(n["plancache_hits"], lookups)
    out["ftl.plancache.bytes"] = _ratio(sum(plancache_bytes), len(plancache_bytes))
    out["ftl.plancache.warm_replay_s"] = warm_replay["seconds"]
    out["ftl.plancache.warm_replay_hits"] = warm_replay["hits"]
    out["ftl.plancache.warm_replay_lookups"] = warm_replay["lookups"]
    out["ftl.wa"] = _ratio(n["pages_programmed"], n["host_pages"])
    out["experiment.fused_share"] = _ratio(fused, fused + scalar)
    out["fleet.lockstep_share"] = _ratio(n["lockstep_members"], n["members"])
    out["trace.overhead_gib_per_s"] = overhead_gib_per_s
    return {name: float(out[name]) for name in PER_LAYER_UNITS}
