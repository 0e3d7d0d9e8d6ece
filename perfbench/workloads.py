"""The three benchmark workloads.

Every workload is a closed loop of *ops*: the pass issues op ``i + 1``
only after op ``i`` has returned.  An op is one unit of user-visible
work with a fixed composition, so per-op timings are comparable
across ops, seeds and commits:

* ``wearout_cold``: one Fig. 3 attack pair — an emmc-8gb/ext4 and a
  moto-e-8gb/f2fs 4 KiB random-rewrite run to wear-indicator level 3,
  each on a new trajectory (a seed never used before in the
  process).
* ``fleet_demotion``: a 1000-member random cohort that stays in
  lockstep plus two small sequential cohorts with a wide endurance
  spread, whose members are demoted mid-run and replay on their own
  diverging trajectories.
* ``campaign_metrics``: one checkpointed campaign grid run serially
  with metrics on — a shared-trajectory ``until_level`` ladder plus
  the Fig. 4 ext4/f2fs points.

Every device, cohort and point seed is derived from the workload seed
and the op index through :func:`repro.rng.substream_seed`.

The simulator is always called through module attributes
(``engine.run_cohort``, not a name imported into this module), so the
traced run's probes see every call.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List

import repro.campaign.runner as campaign_runner
import repro.campaign.spec as campaign_spec
import repro.campaign.store as campaign_store
import repro.fleet.branch as fleet_branch
import repro.fleet.engine as fleet_engine
import repro.fleet.spec as fleet_spec
import repro.obs as obs
from repro.analysis.calibration import PAPER_TARGETS
from repro.core.experiment import WearOutExperiment
from repro.devices import build_device
from repro.fs import make_filesystem
from repro.rng import substream_seed
from repro.units import GIB, KIB
from repro.workloads import FileRewriteWorkload

#: The seed whose per-op digests are pinned in ``pinned.json``.
DEFAULT_SEED = 1


def canonical(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def digest(data: Any) -> str:
    return hashlib.sha256(canonical(data).encode("utf-8")).hexdigest()


@dataclass
class OpOutcome:
    """What one op produced, for digests and end-to-end metrics.

    ``payload`` is the op's canonical output (its digest is pinned for
    the default seed); ``gib`` is the simulated full-size host GiB the
    op delivered; ``paper_err`` lists relative errors of simulated GiB
    per increment against the matching paper target.
    """

    payload: Any
    gib: float
    paper_err: List[float] = field(default_factory=list)
    context: Dict[str, Any] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return digest(self.payload)


def _paper_errors(device: str, result_dict: Dict[str, Any]) -> List[float]:
    """Relative error of each matching increment's host GiB."""
    if device != "emmc-8gb":
        return []
    target, memory_type = PAPER_TARGETS["emmc8-gib-per-increment"], "A"
    return [
        abs(rec["host_bytes"] / GIB - target.paper_value) / target.paper_value
        for rec in result_dict["increments"]
        if rec["memory_type"] == memory_type
    ]


def _rewrite_experiment(
    device_key: str, fs_kind: str, scale: int, seed: int, pattern: str = "rand"
) -> WearOutExperiment:
    """The campaign wear-out build sequence: device, filesystem, 4 KiB
    rewrite workload, experiment."""
    device = build_device(device_key, scale=scale, seed=seed)
    fs = make_filesystem(fs_kind, device)
    workload = FileRewriteWorkload(
        fs, num_files=4, request_bytes=4 * KIB, pattern=pattern, seed=seed
    )
    return WearOutExperiment(device, workload, filesystem=fs)


def _host_gib(experiment: WearOutExperiment) -> float:
    device = experiment.device
    return device.host_bytes_written * device.scale / GIB


class Workload:
    """Base class: ``op(i)`` runs op ``i``; ``check(i, outcome)`` re-runs
    it (or a sample of it) on the scalar reference path and returns a
    list of mismatch descriptions."""

    name = ""
    why = ""
    #: Ops whose scalar reference re-run is checked after the pass.
    checked_ops = 1
    #: Whether the pass's timings are rescaled by the host-speed probe
    #: (``perfbench.hostspeed``); set-up times always are.
    host_speed_normalized = True

    def __init__(self, seed: int, tmpdir: Path):
        self.seed = int(seed)
        self.tmpdir = Path(tmpdir)

    def op_seed(self, i: int, part: str) -> int:
        return substream_seed(self.seed, f"perfbench:{self.name}:{i}:{part}")

    def op(self, i: int) -> OpOutcome:
        raise NotImplementedError

    def check(self, i: int, outcome: OpOutcome) -> List[str]:
        raise NotImplementedError

    def replay(self, i: int) -> None:
        """Repeat the last trajectory (or grid) of op ``i``, the op that
        just ran, exactly as the op ran it: its plans are the newest in
        the cache and its checkpoints are on disk (the warm number)."""
        raise NotImplementedError


class WearoutCold(Workload):
    name = "wearout_cold"
    why = (
        "distinct-seed Fig. 3 attack runs: the fused path (draw, fs burst "
        "plan, write_burst, FTL walk, apply) on new trajectories only"
    )
    checked_ops = 2
    #: (device, filesystem, scale) of the two runs in every op.
    RUNS = (("emmc-8gb", "ext4", 256), ("moto-e-8gb", "f2fs", 256))
    UNTIL_LEVEL = 3

    def _experiment(self, i: int, run: int) -> WearOutExperiment:
        device, fs_kind, scale = self.RUNS[run]
        return _rewrite_experiment(device, fs_kind, scale, self.op_seed(i, device))

    def op(self, i: int) -> OpOutcome:
        results, gib, errs = [], 0.0, []
        for run, (device, _, _) in enumerate(self.RUNS):
            experiment = self._experiment(i, run)
            result = experiment.run(until_level=self.UNTIL_LEVEL).to_dict()
            results.append(result)
            gib += _host_gib(experiment)
            errs += _paper_errors(device, result)
        return OpOutcome(payload=results, gib=gib, paper_err=errs)

    def check(self, i: int, outcome: OpOutcome) -> List[str]:
        problems = []
        for run, (device, fs_kind, _) in enumerate(self.RUNS):
            experiment = self._experiment(i, run)
            experiment.step_batching = False
            reference = experiment.run(until_level=self.UNTIL_LEVEL).to_dict()
            if canonical(reference) != canonical(outcome.payload[run]):
                problems.append(f"op {i} {device}/{fs_kind}: fused result != scalar reference")
        return problems

    def replay(self, i: int) -> None:
        self._experiment(i, len(self.RUNS) - 1).run(until_level=self.UNTIL_LEVEL)


class FleetDemotion(Workload):
    name = "fleet_demotion"
    why = (
        "wide-endurance-spread seq cohorts that demote members mid-run, beside "
        "a 1000-member rand lockstep cohort: certificates, branch, demoted replays"
    )
    #: Demotion cohorts per op: their demoted counts vary by seed, so
    #: each op runs several to keep its work steady.
    DEMOTION_COHORTS = 2
    #: The probe does not track this workload: in about one pass in
    #: three its readings sit in the host's fast mode while the cohort
    #: ops run slow, and normalized spreads over ten seeds were
    #: 0.26-0.38 against 0.13-0.17 raw.
    host_speed_normalized = False

    def specs(self, i: int):
        # Random cohort: certified lockstep for all 1000 members.
        lockstep = fleet_spec.CohortSpec(
            device="emmc-8gb", population=1000, scale=512, pattern="rand",
            request_bytes=4 * KIB, until_level=3, label="perfbench-lockstep",
        )
        # Sequential cohorts branched from a level-2 prototype, lockstep-
        # eligible, with a wide per-block endurance spread: members are
        # certified for the first advances, then the weak-block members
        # (or, once the leader nears its own frontier, all followers)
        # are demoted and replay from the prototype, diverging from the
        # leader's trajectory when their own blocks retire.
        demote = fleet_spec.CohortSpec(
            device="emmc-8gb", population=12, scale=512, pattern="seq",
            request_bytes=4 * KIB, until_level=7, warm_until=2,
            endurance_sigma=0.35, label="perfbench-demotion",
        )
        return ((lockstep, self.op_seed(i, "lockstep")),) + tuple(
            (demote, self.op_seed(i, f"demotion-{k}")) for k in range(self.DEMOTION_COHORTS)
        )

    def _run(self, specs) -> OpOutcome:
        records, gib, errs = [], 0.0, []
        cohorts = []
        for spec, seed in specs:
            cohort = fleet_engine.run_cohort(spec, seed, checkpoint_dir=str(self.tmpdir / "ckpt"))
            cohorts.append(cohort)
            records.append(cohort.to_dict())
            for index in range(spec.population):
                gib += cohort.member_result(index).total_host_bytes / GIB
            errs += _paper_errors(spec.device, cohort.shared.to_dict())
        return OpOutcome(payload=records, gib=gib, paper_err=errs,
                         context={"cohorts": cohorts})

    def op(self, i: int) -> OpOutcome:
        return self._run(self.specs(i))

    def _scalar_member(self, spec, seed: int, index: int) -> Dict[str, Any]:
        snapshot = fleet_engine.prototype_snapshot(spec, seed)
        member = fleet_branch.branch_experiment(spec, fleet_spec.device_seed(seed, index), snapshot)
        member.step_batching = False
        return member.run(until_level=spec.until_level).to_dict()

    def check(self, i: int, outcome: OpOutcome) -> List[str]:
        """Re-run members as plain scalar experiments: the first demoted
        member of each cohort, or member 1 where none demoted."""
        problems = []
        for (spec, seed), cohort in zip(self.specs(i), outcome.context["cohorts"]):
            index = min(cohort.demoted) if cohort.demoted else 1
            reference = self._scalar_member(spec, seed, index)
            if canonical(reference) != canonical(cohort.member_result(index).to_dict()):
                problems.append(f"op {i} {spec.label} member {index}: != scalar run")
        return problems

    def replay(self, i: int) -> None:
        self._run(self.specs(i)[-1:])


class CampaignMetrics(Workload):
    name = "campaign_metrics"
    why = (
        "checkpointed serial campaign grid with metrics on: campaign, "
        "ResultStore, state save/load/restore and obs on every point"
    )
    LADDER = (2, 3, 4)

    def grid(self, i: int) -> campaign_spec.CampaignSpec:
        seed = self.op_seed(i, "grid")
        points = [
            campaign_spec.PointSpec(
                kind="wearout", device="emmc-8gb", scale=512, seed=seed,
                filesystem="ext4", until_level=level, label="ladder",
            )
            for level in self.LADDER
        ] + [
            campaign_spec.PointSpec(
                kind="wearout", device="moto-e-8gb", scale=256, seed=seed,
                filesystem=fs, until_level=3, label=fs,
            )
            for fs in ("ext4", "f2fs")
        ]
        return campaign_spec.CampaignSpec(name=f"perfbench-{i}", points=tuple(points))

    def _run_grid(self, spec, store_path: Path):
        store = campaign_store.ResultStore(store_path)
        with obs.metrics_enabled(obs.MetricsRegistry()):
            campaign_runner.CampaignRunner(
                spec, store=store, checkpoint_dir=self.tmpdir / "ckpt"
            ).run(workers=1)
        return store

    def op(self, i: int) -> OpOutcome:
        spec = self.grid(i)
        store = self._run_grid(spec, self.tmpdir / f"store-{i}.jsonl")
        gib, errs = 0.0, []
        for record in store.canonical_records():
            gib += record["result"]["total_host_bytes"] / GIB
            errs += _paper_errors(record["spec"]["device"], record["result"])
        return OpOutcome(payload=store.fingerprint(), gib=gib, paper_err=errs,
                         context={"store": store, "spec": spec})

    def check(self, i: int, outcome: OpOutcome) -> List[str]:
        """Re-run the ladder's top point cold on the scalar path, with
        metrics off, and compare it with the stored record."""
        spec, store = outcome.context["spec"], outcome.context["store"]
        key, point = spec.keyed_points()[len(self.LADDER) - 1]
        experiment = _rewrite_experiment(point.device, point.filesystem, point.scale, point.seed)
        experiment.step_batching = False
        reference = {"type": "wearout", **experiment.run(until_level=point.until_level).to_dict()}
        if canonical(reference) != canonical(store.get(key)["result"]):
            return [f"op {i} point {point.display}: stored result != scalar reference"]
        return []

    def replay(self, i: int) -> None:
        """Op ``i``'s grid into a fresh store: the op's own store would
        skip every finished point."""
        self._run_grid(self.grid(i), self.tmpdir / "store-replay.jsonl")


WORKLOADS: Dict[str, Callable[[int, Path], Workload]] = {
    cls.name: cls for cls in (WearoutCold, FleetDemotion, CampaignMetrics)
}


def sampled_ops(seed: int, name: str, n_ops: int, count: int) -> List[int]:
    """Seed-derived choice of ``count`` op indices out of ``n_ops``
    (op 0 always included, so a default-seed pass checks pinned op 0
    against its scalar reference too)."""
    if n_ops <= 0:
        return []
    picks = {0}
    k = 0
    while len(picks) < min(count, n_ops):
        picks.add(substream_seed(seed, f"perfbench:{name}:sample:{k}") % n_ops)
        k += 1
    return sorted(picks)

