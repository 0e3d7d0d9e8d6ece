"""One benchmark pass in a fresh process: ``python -m perfbench.child``.

Modes:

* ``probe`` — do everything a pass does before its first op (imports,
  input derivation, cold-isolation checks), report the set-up time and
  exit.  The parent runs several of these and reports their median.
* ``untraced`` — the measured pass: ops in a closed loop until
  ``--seconds`` have elapsed, then the correctness checks.
* ``traced`` — the same pass with every layer probe installed; also
  records the warm replay and the per-layer metrics, and writes the
  spans out at the end.
* ``pin`` — run exactly ``--ops`` ops untimed and report their digests
  (used to refresh ``pinned.json``).

Every op starts with an empty plan cache.

Set-up time is measured from ``--spawn-t``, the parent's
``time.monotonic()`` just before it started this process (the
monotonic clock is system-wide, so the two readings compare), to the
start of the first op.  It covers interpreter start, imports, input
derivation and the cold-isolation checks, but no device build: every
op builds its own devices and cohort prototypes, so that build is op
time.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

PINNED = Path(__file__).resolve().parent / "pinned.json"
#: Host-speed probe readings per burst, and the least time between two
#: bursts during the pass.
PROBE_BURST = 3
PROBE_EVERY_S = 2.0


def _fail_op(record, message: str) -> None:
    record["failed"] = True
    record["problems"].append(message)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("probe", "untraced", "traced", "pin"), required=True)
    parser.add_argument("--spawn-t", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--ops", type=int, default=1)
    args = parser.parse_args(argv)

    from repro.ftl import plancache

    from perfbench.hostspeed import probe
    from perfbench.layers import LayerCounts, StepCounts, per_layer_metrics
    from perfbench.tracing import Probes, SpanRecorder
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS, sampled_ops

    tmp = Path(args.tmp)
    workload = WORKLOADS[args.workload](args.seed, tmp)
    # Cold isolation: a pass starts with an empty plan cache and an
    # empty checkpoint directory.
    if plancache.stats()["entries"] != 0:
        raise RuntimeError(f"plan cache not empty before the first op: {plancache.stats()}")
    if tmp.exists() and any(tmp.iterdir()):
        raise RuntimeError(f"checkpoint directory {tmp} is not empty")
    tmp.mkdir(parents=True, exist_ok=True)

    steps = StepCounts()
    step_probes = Probes(steps.probes()).install()
    recorder = counts = layer_probes = None
    if args.mode == "traced":
        recorder = SpanRecorder()
        counts = LayerCounts(recorder)
        layer_probes = Probes(counts.probes(), recorder).install()
    op_span = recorder.intern("op") if recorder is not None else None

    setup_s = time.monotonic() - args.spawn_t
    # Host speed right after set-up (for setup_s), then in bursts
    # between ops at least PROBE_EVERY_S apart (for the pass's timings),
    # outside op timing.
    out = {"setup_s": setup_s, "setup_probe_s": [probe() for _ in range(PROBE_BURST)],
           "probe_s": [], "normalized": workload.host_speed_normalized, "ops": []}
    if args.mode == "probe":
        step_probes.uninstall()
        Path(args.out).write_text(json.dumps(out))
        return 0

    outcomes = []
    start = last_probe = time.perf_counter()
    i = 0
    while True:
        if args.mode == "pin":
            if i >= args.ops:
                break
        elif i > 0 and time.perf_counter() - start >= args.seconds:
            break
        steps.op = i
        record = {"index": i, "failed": False, "problems": []}
        outcome = None
        # Every op starts cold: no plans from earlier ops (their seeds
        # differ, but the cache keys and probes need not).
        plancache.clear()
        if recorder is not None:
            recorder.current_op = i
            span = recorder.begin(op_span)
        t0 = time.perf_counter()
        try:
            outcome = workload.op(i)
        except Exception:
            _fail_op(record, "op raised:\n" + traceback.format_exc())
        finally:
            record["seconds"] = time.perf_counter() - t0
            if recorder is not None:
                recorder.finish(span)
        record["plancache_bytes"] = plancache.stats()["bytes"]
        if outcome is not None:
            record.update(digest=outcome.digest, gib=outcome.gib, paper_err=outcome.paper_err)
        outcomes.append(outcome)
        out["ops"].append(record)
        i += 1
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            out["probe_s"] += [probe() for _ in range(PROBE_BURST)]
            last_probe = time.perf_counter()
    out["probe_s"] += [probe() for _ in range(PROBE_BURST)]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if layer_probes is not None:
        layer_probes.uninstall()
    step_probes.uninstall()
    warm_replay = {"seconds": 0.0, "hits": 0, "lookups": 0}
    completed = [record["index"] for record in out["ops"] if not record["failed"]]
    if recorder is not None and completed:
        # The warm number, before the checks touch the cache: repeat the
        # last completed op's last trajectory while its plans are the
        # newest in the cache and its checkpoints are on disk.
        before = plancache.stats()
        t0 = time.perf_counter()
        workload.replay(completed[-1])
        warm_replay["seconds"] = time.perf_counter() - t0
        after = plancache.stats()
        warm_replay["hits"] = after["hits"] - before["hits"]
        warm_replay["lookups"] = (
            after["hits"] + after["misses"] - before["hits"] - before["misses"]
        )
    for record in out["ops"]:
        record["fused_steps"], record["scalar_steps"] = steps.per_op(record["index"])

    if args.mode == "pin":
        Path(args.out).write_text(json.dumps(out))
        return 0

    # Correctness, outside the timed section: pinned digests for the
    # default seed, scalar reference re-runs for sampled ops.
    if args.seed == DEFAULT_SEED and PINNED.exists():
        pinned = json.loads(PINNED.read_text()).get(args.workload, [])
        for record, expected in zip(out["ops"], pinned):
            if not record["failed"] and record["digest"] != expected:
                _fail_op(record, f"digest {record['digest']} != pinned {expected}")
    for index in sampled_ops(args.seed, args.workload, len(outcomes), workload.checked_ops):
        record = out["ops"][index]
        if record["failed"]:
            continue
        try:
            for problem in workload.check(index, outcomes[index]):
                _fail_op(record, problem)
        except Exception:
            _fail_op(record, "reference re-run raised:\n" + traceback.format_exc())

    if recorder is not None:
        out["per_layer"] = per_layer_metrics(
            recorder, counts, steps, len(out["ops"]),
            [record["plancache_bytes"] for record in out["ops"]], warm_replay, 0.0,
        )
        out["spans"] = len(recorder)
        if args.spans:
            recorder.save(args.spans)
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
