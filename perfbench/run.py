"""Cold-first end-to-end benchmark with per-layer attribution.

Run from the repository root::

    python3 perfbench/run.py --workload wearout_cold --seed 1 --seconds 30 --trace 0

Every pass runs in a fresh, single-threaded Python process with an
empty plan cache and an empty temporary checkpoint directory, clears
the plan cache before every op (so every op is cold), issues
ops in a closed loop (op ``i + 1`` starts when op ``i`` returns) until
``--seconds`` have elapsed, then checks its outputs outside the timed
section.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it print every metric by name, unit and sample count.  The exit code is
non-zero if any op failed.

Workloads (why each was chosen)
-------------------------------
``wearout_cold``
    Distinct-seed Fig. 3 attack runs (emmc-8gb/ext4 and
    moto-e-8gb/f2fs, 4 KiB random rewrite, to wear-indicator level
    3).  Every op is a new trajectory, so it stresses the fused
    path — workload draw, fs burst plan, ``write_burst``, FTL walk,
    commit/flash apply — while the plan cache can only capture.
``fleet_demotion``
    A 1000-member random cohort that stays in certified lockstep, next
    to two 12-member sequential cohorts (emmc-8gb, 4 KiB, level 2
    prototype, to level 7) with a wide per-block endurance spread
    (sigma 0.35).  Those are lockstep-eligible: their members are
    certified for the first advances, then demoted — the weak-block
    members by the retirement frontier, or every follower once the
    leader nears its own — and replayed from the prototype, riding the
    leader's plans until their own block retirements make them
    diverge.  Exercises certificates, branch/restore and demoted
    replays; this is where forking demoted members at their last
    certified advance must show.  Per cohort the demoted count is
    bimodal by seed (about half, or all 11 followers), so each op runs
    two cohorts; a single 1000-member cohort demotes anywhere from 21
    to 999 members by seed, a spread no bound could hold.
``campaign_metrics``
    A checkpointed serial campaign grid with metrics on: a
    shared-trajectory ``until_level`` ladder plus the Fig. 4 ext4/f2fs
    points.  The only workload that exercises campaign orchestration,
    ``ResultStore``, ``state`` save/load/restore and ``obs``; metrics
    currently force the scalar loop, so it never enters ``ftl.burst``
    or ``ftl.plancache``: while that holds, it is the workload on
    which a fused-path optimisation must show no change.

Table 1's hybrid (two-pool FTL) protocol is not a workload: host speed
on the machines the benchmark was tuned on drifts by up to 1.7x over
tens of seconds, and only three workloads leave each run long enough
(``run_seconds`` 30) for the spread across runs to stay within the
bounds; its scalar FTL/flash layers are measured on
``campaign_metrics``.

End-to-end metrics (untraced pass; host time, not simulated time)
-----------------------------------------------------------------
``sim_gib_per_s``  simulated full-size host GiB per host second of ops.
``op_s_p50``       median host seconds per op.
``setup_s``        fresh process to the first op (interpreter start,
                   imports, input derivation, cold checks); the median
                   of several separate set-ups.  No device is built in
                   set-up: every op builds its own devices and cohort
                   prototypes, so that build counts as op time.
``peak_rss_mb``    peak resident memory of the timed pass (including
                   the host-speed probe's fixed 9 MB of arrays).

Every time above is host time normalized to a reference host speed
(``perfbench.hostspeed``): each pass reads a fixed, simulator-independent
probe three times right after set-up (for ``setup_s``) and three times
after the last op and between ops at least 2 s apart (for the other
timings, so a pass of long ops is not weighed by its set-up readings),
and scales its host seconds by
``(REFERENCE_PROBE_S / median(readings)) ** PROBE_EXPONENT``.  The raw
host values are printed beside them in brackets.  ``fleet_demotion``
opts out for everything but ``setup_s``
(``Workload.host_speed_normalized``): the probe does not track its
cohort ops.  Host speed on the
machines the benchmark was tuned on drifted by up to 1.75x within
twenty minutes; raw host seconds carry that drift into every
comparison.

Gated in ``BENCHMARK.json``.  Printed beside them, not gated:
``op_s_p90`` (only where at least 10 samples lie beyond it),
``failed_frac`` (0 on a correct program, so not a ratio a bound can
scale) and ``paper_err_pct`` (relative error of simulated GiB per
increment against ``repro.analysis.calibration.PAPER_TARGETS``; it is
deterministic, so any change to it is a behaviour change, not noise).

Per-layer metrics (``--trace 1``) and what each should move
-----------------------------------------------------------
=====================================================  ==========================  =====================
layer metrics                                          end-to-end metric           workload
=====================================================  ==========================  =====================
workloads.step_batch_s, .predrawn_steps,               sim_gib_per_s, peak_rss_mb  wearout_cold
.committed_steps, .predraw_waste
fs.burst_s, fs.burst_calls                             sim_gib_per_s               wearout_cold
fs.scalar_s, fs.scalar_calls                           sim_gib_per_s               campaign_metrics
devices.write_burst_s, .write_burst_refused,           op_s_p50                    wearout_cold,
.wear_poll_s, .wear_polls                                                          campaign_metrics
ftl.burst.plan_s, .plan_calls, .plan_bails,            sim_gib_per_s               wearout_cold,
.plan_ok_ratio, .commit_s (zero on campaign_metrics)                               fleet_demotion leader
ftl.plancache.lookups, .hits, .hit_ratio,              sim_gib_per_s, peak_rss_mb  wearout_cold (no hits:
.lookup_s, .capture_s, .bytes                                                      capture is overhead)
ftl.plancache.hits, .lookup_s                          op_s_p50                    fleet_demotion (hits
                                                                                   carry demoted replays)
ftl.write_requests_s, ftl.gc_pages_copied,             sim_gib_per_s               campaign_metrics
ftl.blocks_erased, ftl.wa, flash.erase_s,                                          (while scalar)
flash.erases
experiment.run_s, .self_s, .fused_steps,               sim_gib_per_s, peak_rss_mb  campaign_metrics
.scalar_steps, .fused_share
state.snapshot_s, .save_s, .load_s, .restore_s,        op_s_p50                    campaign_metrics
.saves, .restores, .bytes_written
campaign.point_s, .store_append_s, .self_s             op_s_p50                    campaign_metrics
fleet.prototype_s, .branch_s, .certificate_s,          op_s_p50, sim_gib_per_s     fleet_demotion
.advances, .lockstep_share, .demoted,                                              (near zero elsewhere)
.demoted_replay_s, .leader_s
=====================================================  ==========================  =====================

``*_s`` layer metrics are seconds per op of the layer's self time (span
duration minus child spans), except ``experiment.run_s``,
``fleet.prototype_s``, ``fleet.leader_s`` and
``fleet.demoted_replay_s``, which time whole runs.  Counts are per op;
``ftl.plancache.bytes`` is the cache size at the end of each op,
averaged over ops.  ``experiment.fused_steps`` counts the steps of the
windows ``step_batch`` returned, and ``experiment.scalar_steps`` every
other step ``run``/``run_one_increment`` completed.
``trace.overhead_gib_per_s`` is the untraced minus the traced
``sim_gib_per_s`` of the same invocation.  A traced invocation also
runs the untraced pass and fails unless both land on the same per-op
digests and fused/scalar step counts, so tracing cannot change which
path runs.

``ftl.plancache.warm_replay_s`` — the time to repeat the last trajectory
of the last completed op (``campaign_metrics``: that op's grid into a
fresh store) in the same process right after the pass, while that op's
plans are the newest in the cache and its checkpoints are on disk — is
reported but not gated, with the replay's own plan-cache hits and
lookups (``.warm_replay_hits``, ``.warm_replay_lookups``, as counted by
``plancache.stats()``) so that a replay dominated by misses shows.  The
campaign store never reruns a finished point, and whether the plan
cache should exist at all is to be decided on cold numbers; gating on
warm replay would lock the cache in.

Correctness (outside the timed section): for the default seed, every
op's digest (result dicts, cohort records, or the campaign store
fingerprint) is compared with ``pinned.json``; for any seed, sampled
ops are re-run on the scalar reference path (``step_batching=False``)
— for ``fleet_demotion``, sampled members, at least one demoted, as
plain scalar experiments — and must be JSON-identical.  A mismatch or
an exception fails the op; ops are never retried or dropped.

``--write-pins N`` refreshes ``pinned.json`` with the first N ops of
the default seed for the named workload (or all, with ``--workload
all``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.hostspeed import PROBE_EXPONENT, REFERENCE_PROBE_S  # noqa: E402
from perfbench.layers import PER_LAYER_UNITS  # noqa: E402
from perfbench.stats import percentile_with_tail, tail_samples_needed  # noqa: E402

WORKLOAD_NAMES = ("wearout_cold", "fleet_demotion", "campaign_metrics")
DEFAULT_SEED = 1
#: Every invocation must finish within this many seconds.
DEADLINE_S = 170.0
#: Fresh-process set-ups measured before the pass (the pass's own
#: set-up is the last sample); ``setup_s`` is their median.
SETUPS = 3
PINNED = ROOT / "perfbench" / "pinned.json"

END_TO_END_UNITS = {
    "sim_gib_per_s": "GiB/s",
    "op_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


class Runner:
    """Spawns child passes under one deadline and one scratch root."""

    def __init__(self, workload: str, seed: int, seconds: float, scratch: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.scratch = scratch
        self.deadline = deadline
        self.count = 0

    def spawn(self, mode: str, extra=()) -> dict:
        self.count += 1
        tag = f"{self.count:02d}-{mode}"
        tmp = self.scratch / f"{tag}-ckpt"
        out = self.scratch / f"{tag}.json"
        log = self.scratch / f"{tag}.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        cmd = [
            sys.executable, "-m", "perfbench.child",
            "--workload", self.workload, "--seed", str(self.seed),
            "--seconds", str(self.seconds), "--mode", mode,
            "--tmp", str(tmp), "--out", str(out), *extra,
        ]
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            raise BenchError(f"out of time before the {mode} pass")
        with open(log, "wb") as fh:
            spawn_t = time.monotonic()
            proc = subprocess.Popen(
                cmd + ["--spawn-t", repr(spawn_t)],
                cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT,
            )
            try:
                code = proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                raise BenchError(f"{mode} pass exceeded the {DEADLINE_S:.0f}s deadline") from None
            finally:
                # Never leave a pass running behind us (deadline, Ctrl-C,
                # or SIGTERM turned into SystemExit by main()).
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code != 0 or not out.exists():
            tail = log.read_text(errors="replace")[-4000:]
            raise BenchError(f"{mode} pass exited with code {code}:\n{tail}")
        return json.loads(out.read_text())


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def host_speed(readings) -> float:
    """Reference over current host speed: multiply host seconds by this
    to get normalized seconds."""
    return (REFERENCE_PROBE_S / statistics.median(readings)) ** PROBE_EXPONENT


def summarize(untraced: dict, setups: list) -> dict:
    """End-to-end metrics of one pass; ``setups`` are the passes (or
    set-up probes) whose set-up times enter ``setup_s``."""
    ops = untraced["ops"]
    seconds = [op["seconds"] for op in ops]
    gib = sum(op.get("gib", 0.0) for op in ops if not op["failed"])
    errors = [e for op in ops for e in op.get("paper_err", [])]
    speed = host_speed(untraced["probe_s"]) if untraced["normalized"] else 1.0
    setup_raw = [p["setup_s"] for p in setups]
    return {
        "n_ops": len(ops),
        "failed": sum(op["failed"] for op in ops),
        "busy_s": sum(seconds),
        "host_speed": speed,
        "n_probes": len(untraced["probe_s"]),
        "sim_gib_per_s": gib / (sum(seconds) * speed),
        "raw_sim_gib_per_s": gib / sum(seconds),
        "op_s_p50": statistics.median(seconds) * speed,
        "raw_op_s_p50": statistics.median(seconds),
        "op_s_p90": percentile_with_tail([x * speed for x in seconds], 90),
        "setup_s": statistics.median(
            p["setup_s"] * host_speed(p["setup_probe_s"]) for p in setups
        ),
        "raw_setup_s": statistics.median(setup_raw),
        "n_setups": len(setups),
        "peak_rss_mb": untraced["peak_rss_mb"],
        "paper_err_pct": 100.0 * statistics.fmean(errors) if errors else None,
        "n_errors": len(errors),
    }


def compare_passes(untraced: dict, traced: dict) -> list:
    """Tracing must not change results or the path taken: per-op
    digests and fused/scalar step counts agree on the common prefix."""
    problems = []
    for a, b in zip(untraced["ops"], traced["ops"]):
        if a["failed"] or b["failed"]:
            continue
        if a["digest"] != b["digest"]:
            problems.append((b, f"op {b['index']}: traced digest differs from untraced"))
        if (a["fused_steps"], a["scalar_steps"]) != (b["fused_steps"], b["scalar_steps"]):
            problems.append((b, (
                f"op {b['index']}: traced steps fused/scalar {b['fused_steps']}/"
                f"{b['scalar_steps']} != untraced {a['fused_steps']}/{a['scalar_steps']}"
            )))
    return problems


def report(workload: str, seed: int, seconds: float, s: dict) -> None:
    n = s["n_ops"]
    print(f"# {workload} seed={seed} seconds={seconds:g}: {n} ops in {s['busy_s']:.3f} host s "
          f"(cold, closed loop); host speed factor {_fmt(s['host_speed'])} "
          f"(n={s['n_probes']} probes; 1 = not normalized; raw host values in brackets)")
    print(f"  sim_gib_per_s = {_fmt(s['sim_gib_per_s'])} GiB/s  [{_fmt(s['raw_sim_gib_per_s'])}]  (n={n} ops)")
    print(f"  op_s_p50      = {_fmt(s['op_s_p50'])} s  [{_fmt(s['raw_op_s_p50'])}]  (n={n} ops)")
    if s["op_s_p90"] is None:
        print(f"  op_s_p90      = n/a  (n={n} ops; needs >= {tail_samples_needed(90)} for 10 beyond p90)")
    else:
        print(f"  op_s_p90      = {_fmt(s['op_s_p90'])} s  (n={n} ops)")
    print(f"  setup_s       = {_fmt(s['setup_s'])} s  [{_fmt(s['raw_setup_s'])}]  (median of n={s['n_setups']} set-ups)")
    print(f"  peak_rss_mb   = {_fmt(s['peak_rss_mb'])} MB  (n=1 pass)")
    print(f"  failed_frac   = {_fmt(s['failed'] / n)}  ({s['failed']}/{n} ops)")
    if s["paper_err_pct"] is None:
        print("  paper_err_pct = n/a  (no increment matches a paper target)")
    else:
        print(f"  paper_err_pct = {_fmt(s['paper_err_pct'])} %  (n={s['n_errors']} increments)")


def write_pins(names, count: int, scratch: Path) -> int:
    pinned = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    deadline = time.monotonic() + 3600.0
    for name in names:
        runner = Runner(name, DEFAULT_SEED, 0.0, scratch / name, deadline)
        (scratch / name).mkdir(parents=True, exist_ok=True)
        result = runner.spawn("pin", ["--ops", str(count)])
        bad = [op for op in result["ops"] if op["failed"]]
        if bad:
            print("\n".join(bad[0]["problems"]), file=sys.stderr)
            return 1
        pinned[name] = [op["digest"] for op in result["ops"]]
        print(f"pinned {count} ops of {name}")
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    started = time.monotonic()
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per pass (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", type=int, default=0, metavar="N")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        if args.write_pins:
            names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
            return write_pins(names, args.write_pins, scratch)
        if args.workload == "all":
            print("error: --workload all is only for --write-pins", file=sys.stderr)
            return 2
        return run(args, scratch, started + DEADLINE_S)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass


def run(args, scratch: Path, deadline: float) -> int:
    runner = Runner(args.workload, args.seed, args.seconds, scratch, deadline)
    setups = [runner.spawn("probe") for _ in range(SETUPS)]
    untraced = runner.spawn("untraced")
    setups.append(untraced)
    summary = summarize(untraced, setups)
    report(args.workload, args.seed, args.seconds, summary)
    passes = [untraced]
    metrics = {
        name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()
    }
    if args.trace:
        spans = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.npz"
        spans.parent.mkdir(parents=True, exist_ok=True)
        traced = runner.spawn("traced", ["--spans", str(spans)])
        passes.append(traced)
        for record, problem in compare_passes(untraced, traced):
            record["failed"] = True
            record["problems"].append(problem)
        traced_summary = summarize(traced, [traced])
        per_layer = traced["per_layer"]
        per_layer["trace.overhead_gib_per_s"] = (
            summary["sim_gib_per_s"] - traced_summary["sim_gib_per_s"]
        )
        print(
            f"# traced pass: {traced_summary['n_ops']} ops, {traced['spans']} spans -> "
            f"{spans.relative_to(ROOT)}; tracing overhead "
            f"{_fmt(per_layer['trace.overhead_gib_per_s'])} GiB/s "
            f"(untraced {_fmt(summary['sim_gib_per_s'])} - traced "
            f"{_fmt(traced_summary['sim_gib_per_s'])})"
        )
        for name, unit in PER_LAYER_UNITS.items():
            print(f"  {name:34s} = {_fmt(per_layer[name])} {unit}  (n={traced_summary['n_ops']} ops)")
        metrics = {
            name: {"value": per_layer[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()
        }
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(op["failed"] for p in passes for op in p["ops"])
    for p in passes:
        for op in p["ops"]:
            for problem in op["problems"]:
                print(f"FAILED op {op['index']}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
