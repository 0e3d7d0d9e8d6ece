"""Randomized differential test: fused runs against the scalar reference.

The pinned scenarios in tests/test_burst_batching.py and
tests/test_ftl_equivalence.py check the fused path (burst planner walk,
vectorized apply, plan cache) on a handful of configurations.  This
fuzz draws wear-out configurations at random — catalog device,
filesystem, access pattern, request size, file count, seed — and runs
each to wear level 2 twice: once with the defaults and once with
``step_batching=False``, the per-step scalar loop.  The result dicts,
every ``seconds`` observable included, and the FTL end states must be
identical.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.experiment import WearOutExperiment
from repro.devices import build_device
from repro.fs import make_filesystem
from repro.ftl import plancache
from repro.units import KIB
from repro.workloads import FileRewriteWorkload
from tests.test_ftl_equivalence import ftl_fingerprint

SCALE = 2048  # a few hundred steps to level 2 on every drawn device

configs = st.fixed_dictionaries({
    "device": st.sampled_from(["emmc-8gb", "moto-e-8gb", "blu-4gb"]),
    "filesystem": st.sampled_from(["ext4", "f2fs"]),
    "pattern": st.sampled_from(["rand", "seq", "stride"]),
    "request_bytes": st.sampled_from([4 * KIB, 8 * KIB, 16 * KIB]),
    "num_files": st.integers(min_value=1, max_value=8),
    "seed": st.integers(min_value=0, max_value=2**16),
})


def _run(config, step_batching):
    device = build_device(config["device"], scale=SCALE, seed=config["seed"])
    fs = make_filesystem(config["filesystem"], device)
    workload = FileRewriteWorkload(
        fs,
        num_files=config["num_files"],
        request_bytes=config["request_bytes"],
        pattern=config["pattern"],
        seed=config["seed"],
    )
    experiment = WearOutExperiment(device, workload, filesystem=fs)
    experiment.step_batching = step_batching
    experiment.run(until_level=2)
    return (
        experiment.result.to_dict(),
        ftl_fingerprint(device.ftl),
        experiment.steps_completed,
        experiment.clock.now,
    )


def _check(config):
    # A fresh plan cache per example keeps every example reproducible
    # on its own, whatever ran before it.
    plancache.clear()
    try:
        fused = _run(config, step_batching=True)
    finally:
        plancache.clear()
    assert fused == _run(config, step_batching=False)


_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestFusedMatchesScalar:
    @settings(max_examples=16, **_SETTINGS)
    @given(config=configs)
    def test_random_configs(self, config):
        _check(config)

    @pytest.mark.slow
    @settings(max_examples=150, **_SETTINGS)
    @given(config=configs)
    def test_random_configs_extended(self, config):
        _check(config)
