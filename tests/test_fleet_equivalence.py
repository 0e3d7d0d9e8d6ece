"""The spot-check contract, exhaustively at small scale: every cohort
member's reported result must be JSON-identical to the scalar
``WearOutExperiment`` run the member abbreviates (DESIGN.md §12)."""

import json

import pytest

from repro.core.experiment import WearOutExperiment
from repro.fleet import (
    CohortResult,
    CohortSpec,
    resolve_cohort_seed,
    run_cohort,
    scalar_member_result,
)
from repro.ftl import plancache
from repro.units import KIB

BASE_SEED = 7


def result_json(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def assert_all_members_equivalent(spec, checkpoint_dir=None):
    seed = resolve_cohort_seed(spec, BASE_SEED)
    cohort = run_cohort(spec, seed, checkpoint_dir=checkpoint_dir)
    for index in range(spec.population):
        scalar = scalar_member_result(spec, seed, index, checkpoint_dir=checkpoint_dir)
        assert result_json(cohort.member_result(index)) == result_json(scalar), (
            f"member {index} diverged from its scalar run"
        )
    return cohort


class TestMemberEquivalence:
    def test_rand_cohort_all_members(self):
        # The entropy-certificate mode: member workload entropy differs,
        # the certificates prove the observables are shared.
        spec = CohortSpec(device="emmc-8gb", population=4, scale=512,
                         pattern="rand", until_level=3)
        cohort = assert_all_members_equivalent(spec)
        assert cohort.lockstep_count == 4
        assert cohort.ineligible_reason is None

    @pytest.mark.slow
    def test_seq_cohort_all_members(self):
        # The exact-P/E mode: no workload entropy reaches the device, so
        # follower wear arrays equal the leader's element-wise.
        spec = CohortSpec(device="emmc-8gb", population=3, scale=512,
                         filesystem="f2fs", pattern="seq",
                         request_bytes=128 * KIB, until_level=3)
        cohort = assert_all_members_equivalent(spec)
        assert cohort.lockstep_count == 3

    def test_warm_started_cohort_all_members(self, tmp_path):
        # Branching from a cached prototype snapshot must not change a
        # single bit of any member's result.
        spec = CohortSpec(device="emmc-8gb", population=2, scale=512,
                         pattern="rand", until_level=3, warm_until=2)
        cold = CohortSpec(device="emmc-8gb", population=2, scale=512,
                         pattern="rand", until_level=3)
        warm_cohort = assert_all_members_equivalent(spec, checkpoint_dir=str(tmp_path))
        assert warm_cohort.lockstep_count == 2
        # warm_until is part of the cohort's identity (and seed), so
        # only compare structure, not bits, against the cold variant.
        assert cold.warm_until is None

    @pytest.mark.slow
    def test_ineligible_cohort_demotes_all_and_stays_exact(self):
        # Hybrid (two-pool) devices cannot be certified; the engine must
        # fall back to all-scalar execution, not refuse or approximate.
        spec = CohortSpec(device="emmc-16gb", population=2, scale=512,
                         pattern="rand", until_level=2)
        cohort = assert_all_members_equivalent(spec)
        assert cohort.ineligible_reason is not None
        assert cohort.lockstep_count == 1  # only the leader itself
        assert set(cohort.demoted) == {1}
        assert cohort.demote_summary.get("ineligible") == 1


class TestDemotionHeavyPlanSharing:
    @pytest.mark.slow
    def test_demotion_heavy_seq_cohort_shares_leader_plans(self):
        """DESIGN.md §15: a wide endurance spread demotes members whose
        weak blocks retire mid-run.  Their replays must ride the
        leader's fused windows (demoted plan-cache hits), truncate at
        their own crossing, and still be bit-identical to their scalar
        runs — as must every lockstep member."""
        spec = CohortSpec(device="emmc-8gb", population=4, scale=512,
                          pattern="seq", request_bytes=4 * KIB,
                          until_level=5, endurance_sigma=0.5)
        prev_enabled = plancache.cache().enabled
        plancache.configure(enabled=True)
        plancache.clear()
        plancache.cache().reset_stats()
        try:
            cohort = assert_all_members_equivalent(spec)
        finally:
            plancache.clear()
            plancache.configure(enabled=prev_enabled)
        assert cohort.demoted, "endurance spread produced no demotions"
        assert 0 < len(cohort.demoted) < spec.population
        assert cohort.plan_stats["demoted"]["hits"] > 0, (
            "demoted replays never hit the leader's plans"
        )
        # plan_stats is session telemetry, not part of the canonical
        # record: serialization drops it and a deserialized clone
        # carries none, so fingerprints stay worker-count invariant.
        assert "plan_stats" not in cohort.to_dict()
        assert CohortResult.from_dict(cohort.to_dict()).plan_stats is None


class TestWindowSizeIndependence:
    """Member results do not depend on the fused window cap.

    The cohort record's ``advances`` does: it counts leader advances,
    one per fused window or scalar step, so a smaller
    ``max_batch_steps`` records more of them (DESIGN.md §12).
    """

    @pytest.mark.parametrize(
        "spec",
        [
            CohortSpec(device="emmc-8gb", population=3, scale=512,
                       pattern="rand", until_level=3),
            CohortSpec(device="emmc-8gb", population=3, scale=512,
                       pattern="seq", request_bytes=4 * KIB,
                       until_level=4, endurance_sigma=0.5),
        ],
        ids=["rand", "seq"],
    )
    def test_member_results_ignore_max_batch_steps(self, spec, monkeypatch):
        seed = resolve_cohort_seed(spec, BASE_SEED)
        plancache.clear()
        default = run_cohort(spec, seed)

        init = WearOutExperiment.__init__

        def small_windows(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self.max_batch_steps = 64

        monkeypatch.setattr(WearOutExperiment, "__init__", small_windows)
        plancache.clear()
        small = run_cohort(spec, seed)
        plancache.clear()

        for index in range(spec.population):
            assert result_json(small.member_result(index)) == result_json(
                default.member_result(index)
            ), f"member {index} depends on the window cap"
        assert small.advances > default.advances  # advances count windows


class TestCohortResultRecord:
    def test_dict_roundtrip(self):
        spec = CohortSpec(device="emmc-8gb", population=2, scale=512,
                         pattern="rand", until_level=2)
        seed = resolve_cohort_seed(spec, BASE_SEED)
        cohort = run_cohort(spec, seed)
        clone = CohortResult.from_dict(cohort.to_dict())
        assert clone.spec == cohort.spec
        assert clone.cohort_seed == cohort.cohort_seed
        assert result_json(clone.shared) == result_json(cohort.shared)
        assert clone.demote_summary == cohort.demote_summary
        assert clone.advances == cohort.advances

    def test_member_result_bounds(self):
        spec = CohortSpec(device="emmc-8gb", population=2, scale=512,
                         pattern="rand", until_level=2)
        cohort = run_cohort(spec, resolve_cohort_seed(spec, BASE_SEED))
        with pytest.raises(IndexError):
            cohort.member_result(2)
        with pytest.raises(IndexError):
            cohort.member_result(-1)
