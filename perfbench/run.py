#!/usr/bin/env python3
"""Benchmark of the FastTTS simulator: host cost and simulated outcomes.

One run measures one workload in this fresh interpreter::

    python3 perfbench/run.py --workload openloop_flood --seed 1 --seconds 15 --trace 0

``--trace 0`` repeats whole units of the workload for ``--seconds`` of
timed host time (at least two units, whose record digests must match)
and reports the end-to-end metrics. Each unit runs under a
``speed.SpeedProbe``, and host throughput is reported at the probe's
reference speed, so that the machine's own drift in speed divides out. ``--trace 1`` times untraced units,
then one unit with per-layer wrappers installed, and reports the
per-layer metrics; spans go to ``perfbench/out/``. The last line of
standard output is one JSON object; the lines before it name every
metric with its unit and sample count.

``--suite`` runs every workload on the bounds seed and the held-out seed,
each twice in its own interpreter, checks that the two digests agree and
exits non-zero if any correctness check fails.

See ``perfbench/README.md`` for why each workload exists and what each
per-layer metric is expected to move.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("wide_beam", "openloop_flood", "routed_shared_pool")
BOUNDS_SEED = 1
HELDOUT_SEED = 1001
SETUP_PROBES = 5
MIN_UNITS = 2

# Layer groups for the "which layer does most of the work" report, and
# the group each workload is built to load.
LAYER_GROUPS = {
    "fleet.drain": ("fleet.drain",),
    "scheduler": ("scheduler.pick",),
    "pool": ("pool.place", "pool.migrate"),
    "router": ("router",),
    "batcher": ("batcher.iteration",),
    "session.step": ("session.step",),
    "ledger+session.kv_segments": (
        "ledger.growth", "ledger.restore", "ledger.admit", "ledger.release",
        "session.kv_segments",
    ),
    "gen_round": ("gen_round",),
    "ver_round": ("ver_round",),
    "kvcache": ("kvcache.extend",),
    "roofline": ("roofline",),
    "rng": ("rng.draw", "rng.hash"),
    "llm": ("llm.plan",),
}
EXPECTED_LAYER = {
    "wide_beam": "gen_round",
    "openloop_flood": "fleet.drain",
    "routed_shared_pool": "ledger+session.kv_segments",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=BOUNDS_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--suite", action="store_true",
                        help="every workload on both recorded seeds, twice each")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.suite and args.workload is None:
        parser.error("--workload is required (or use --suite)")
    return args


def load_workloads():
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"error: simulator sources not found at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def setup_probe(workload: str, seed: int) -> float:
    """Host seconds from spawning a fresh interpreter to its first timed call."""
    start = time.time()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, check=True,
    )
    return float(done.stdout.split()[-1]) - start


def timed_units(workload, inputs, seconds: float, min_units: int):
    """Repeat whole units until ``seconds`` of timed host time (and at
    least ``min_units``), each under a ``SpeedProbe``. Each unit is
    summarized outside the timed region and its output dropped, except
    the first one's (for the correctness gate), so memory does not grow
    with the number of units.

    Returns ``(units, summaries, first output)``; each unit is a tuple
    ``(host s less the probe's own time, the same at the reference speed,
    speed scale)``."""
    units, summaries, first = [], [], None
    while len(units) < min_units or sum(u[0] for u in units) < seconds:
        gc.collect()
        with SpeedProbe() as speed:
            start = time.perf_counter()
            output = workload.run(inputs)
        elapsed = time.perf_counter() - start
        units.append((elapsed - speed.probe_s, speed.normalise(elapsed), speed.scale))
        summary = workload.summarize(inputs, output)
        if first is None:
            first = output
        else:
            summary.reports, summary.results = [], []
        summaries.append(summary)
        del output
    return units, summaries, first


def emit(name, value, unit, samples, metrics):
    print(f"{name:32s} {value:14.6g} {unit:14s} n={samples}")
    metrics[name] = {"value": value, "unit": unit}


def run_measured(args, wl) -> int:
    workload = wl.WORKLOADS[args.workload]
    setups = [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    inputs = workload.prepare(args.seed)

    units, summaries, first_output = timed_units(
        workload, inputs, args.seconds, MIN_UNITS)
    first = summaries[0]
    failures, failed_checks = workload.check(inputs, first_output)
    first.failed_requests = failed_checks
    digests = {s.digest for s in summaries}
    if len(digests) != 1:
        failures.append(f"sim_digest differs between units: {sorted(digests)}")
    failed = sum(s.unserved for s in summaries) + failed_checks + sum(
        s.submitted for s in summaries if s.digest != first.digest
    )
    attempted = sum(s.submitted for s in summaries)
    rates = [s.submitted / ref_s for (_, ref_s, _), s in zip(units, summaries)]
    raw_rates = [s.submitted / host_s for (host_s, _, _), s in zip(units, summaries)]

    print(f"workload {args.workload} ({workload.loop}), seed {args.seed}, "
          f"{len(units)} units of {first.submitted} requests, "
          f"{sum(u[0] for u in units):.2f} timed host s")
    print("unit host s:            " + " ".join(f"{u[0]:8.3f}" for u in units))
    print("unit speed scale:       " + " ".join(f"{u[2]:8.3f}" for u in units))
    print("unit s at ref. speed:   " + " ".join(f"{u[1]:8.3f}" for u in units))
    print("set-up host s:          " + " ".join(f"{s:8.3f}" for s in setups))
    print(f"raw host_requests_per_s {statistics.median(raw_rates):.6g} "
          "(unscaled, moves with the machine)")
    print(f"sim_digest {first.digest}")
    print("generator lateness: 0 s (arrivals are simulated-time events; "
          "latency counts from each request's scheduled arrival)")
    metrics: dict = {}
    emit("setup_s", statistics.median(setups), "s", len(setups), metrics)
    emit("host_requests_per_s", statistics.median(rates), "req/s", len(rates), metrics)
    emit("peak_rss_mib", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
         "MiB", 1, metrics)
    for name, (value, unit, samples) in wl.sim_metrics(first).items():
        emit(name, value, unit, samples, metrics)
    q = wl.tail_quantile(len(first.sojourn_s))
    print(f"sim_latency_tail_s is p{100 * q:.4g} of {len(first.sojourn_s)} served; "
          f"failed_ratio {failed / attempted:.6g} ({failed}/{attempted})")
    for failure in failures:
        print(f"FAILED: {failure}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failures else 0


def run_traced(args, wl) -> int:
    from tracer import Tracer

    workload = wl.WORKLOADS[args.workload]
    start = time.perf_counter()
    inputs = workload.prepare(args.seed)
    build_s = time.perf_counter() - start

    units, summaries, _ = timed_units(workload, inputs, args.seconds / 2, 1)
    untraced_s = statistics.median(u[0] for u in units)
    reference = summaries[0]
    del summaries

    tracer = Tracer()
    gc.collect()
    tracer.install()
    try:
        start = time.perf_counter()
        output = workload.run(inputs)
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    summary = workload.summarize(inputs, output)
    failures, failed = workload.check(inputs, output)
    if summary.digest != reference.digest:
        failures.append("tracing changed the simulated records")
        failed += summary.submitted

    metrics: dict = {}
    print(f"workload {args.workload}, seed {args.seed}: traced unit "
          f"{traced_s:.3f} host s, untraced {untraced_s:.3f} host s")
    for name, (value, unit, base) in layer_metrics(
        tracer, summary, traced_s, untraced_s, build_s
    ).items():
        print(f"{name:32s} {value:14.6g} {unit:14s} {base}")
        metrics[name] = {"value": value, "unit": unit}
    report_dominant(args.workload, tracer, traced_s)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans)
    print(f"{len(tracer.spans)} spans written to {spans.relative_to(HERE.parent)}")
    for failure in failures:
        print(f"FAILED: {failure}")
    print(json.dumps({"correct": not failures, "attempted": summary.submitted,
                      "failed": failed + summary.unserved, "metrics": metrics}))
    return 1 if failures else 0


def layer_metrics(tracer, summary, traced_s, untraced_s, build_s):
    """Per-layer metrics: name -> (value, unit, base description)."""
    self_s, calls, qty = tracer.self_s, tracer.calls, tracer.quantity
    reports, results = summary.reports, summary.results
    devices = [d for report in reports for d in report.devices]

    def per(num, den):
        return num / den if den else 0.0

    spec_used = sum(r.tokens.speculative_used for r in results)
    spec_tokens = spec_used + sum(r.tokens.speculative_wasted for r in results)
    placements = sum(d.placements for d in devices)
    peak_bytes = sum(d.kv_peak_resident_bytes for d in devices)
    logical_bytes = sum(d.kv_dedup_ratio * d.kv_peak_resident_bytes for d in devices)
    escalations = sum(report.metrics.escalations for report in reports)
    kv_swap_s = sum(report.metrics.kv_swap_s for report in reports)
    steps = calls["scheduler.pick"] + calls["batcher.iteration"]
    n = len(results)
    return {
        "fleet.drain_self_s": (self_s["fleet.drain"], "s", ""),
        "fleet.loop_steps": (steps, "count", "scheduler picks + batcher iterations"),
        "fleet.self_us_per_step": (per(self_s["fleet.drain"], steps) * 1e6, "us",
                                   f"over {steps} steps"),
        "scheduler.pick_calls": (calls["scheduler.pick"], "count", ""),
        "scheduler.pick_s": (self_s["scheduler.pick"], "s", ""),
        "scheduler.runnable_per_pick": (
            per(qty["scheduler.pick"], calls["scheduler.pick"]), "handles/pick",
            f"{qty['scheduler.pick']} handles over {calls['scheduler.pick']} picks"),
        "pool.place_calls": (calls["pool.place"], "count", ""),
        "pool.place_s": (self_s["pool.place"], "s", ""),
        "pool.migrate_calls": (calls["pool.migrate"], "count", ""),
        "pool.migrate_s": (self_s["pool.migrate"], "s", ""),
        "pool.affinity_hit_ratio": (
            per(sum(d.affinity_hits for d in devices), placements), "ratio",
            f"over {placements} placements"),
        "pool.placements": (placements, "count", ""),
        "router.route_calls": (calls["router"], "count", ""),
        "router.route_s": (self_s["router"], "s", "route + accept + escalate_lanes"),
        "router.escalations": (escalations, "count",
                               f"of {summary.submitted} requests"),
        "batcher.iterations": (calls["batcher.iteration"], "count", ""),
        "batcher.iteration_self_s": (self_s["batcher.iteration"], "s", ""),
        "batcher.members_per_iteration": (
            per(qty["batcher.iteration"], calls["batcher.iteration"]), "members/iter",
            f"{qty['batcher.iteration']} members over {calls['batcher.iteration']} iterations"),
        "session.steps": (calls["session.step"], "count", ""),
        "session.step_self_s": (self_s["session.step"], "s", ""),
        "session.kv_segments_calls": (calls["session.kv_segments"], "count", ""),
        "session.kv_segments_s": (self_s["session.kv_segments"], "s", ""),
        "gen_round.runs": (calls["gen_round"], "count", ""),
        "gen_round.self_s": (self_s["gen_round"], "s", ""),
        "gen_round.jobs_per_run": (per(qty["gen_round"], calls["gen_round"]), "jobs/run",
                                   f"{qty['gen_round']} jobs over {calls['gen_round']} runs"),
        "gen_round.spec_used_ratio": (per(spec_used, spec_tokens), "ratio",
                                      f"{spec_used} of {spec_tokens} speculative tokens"),
        "gen_round.spec_tokens": (spec_tokens, "count", ""),
        "ver_round.runs": (calls["ver_round"], "count", ""),
        "ver_round.self_s": (self_s["ver_round"], "s", ""),
        "kvcache.extend_calls": (calls["kvcache.extend"], "count", ""),
        "kvcache.extend_s": (self_s["kvcache.extend"], "s", ""),
        "kvcache.gen_hit_rate": (per(sum(r.gen_cache_hit_rate for r in results), n),
                                 "ratio", f"mean over {n} results"),
        "kvcache.ver_hit_rate": (per(sum(r.ver_cache_hit_rate for r in results), n),
                                 "ratio", f"mean over {n} results"),
        "kvcache.evicted_segments": (
            sum(r.gen_evicted_segments + r.ver_evicted_segments for r in results),
            "count", ""),
        "ledger.growth_calls": (calls["ledger.growth"], "count", ""),
        "ledger.growth_s": (self_s["ledger.growth"], "s", ""),
        "ledger.restore_calls": (calls["ledger.restore"], "count", ""),
        "ledger.restore_s": (self_s["ledger.restore"], "s", ""),
        "ledger.evictions": (qty["ledger.evictions"], "count", ""),
        "ledger.dedup_ratio": (
            per(logical_bytes, peak_bytes) or 1.0, "ratio",
            f"peak logical over peak resident KV, {peak_bytes} B resident"),
        "ledger.kv_swap_s": (kv_swap_s, "sim_s", ""),
        "roofline.calls": (calls["roofline"], "count", ""),
        "roofline.s": (self_s["roofline"], "s", ""),
        "rng.draws": (calls["rng.draw"], "count", ""),
        "rng.draw_s": (self_s["rng.draw"], "s", ""),
        "rng.hash_calls": (calls["rng.hash"], "count", ""),
        "rng.hash_s": (self_s["rng.hash"], "s", ""),
        "llm.plan_calls": (calls["llm.plan"], "count", ""),
        "llm.plan_s": (self_s["llm.plan"], "s", ""),
        "workloads.build_s": (build_s, "s", "inputs from the seed"),
        "trace.overhead_ratio": (per(traced_s, untraced_s), "ratio",
                                 f"{traced_s:.3f} s traced / {untraced_s:.3f} s untraced"),
        "trace.covered_ratio": (per(tracer.covered_s(), traced_s), "ratio",
                                f"{tracer.covered_s():.3f} s in named layers"),
    }


def report_dominant(workload, tracer, traced_s) -> None:
    """Rank layer groups by self time, twice: strictly, and with the leaf
    counters (hashing, draws, extends, roofline, plans) charged to the
    span they ran under. The verdict is on the strict ranking."""
    expected = EXPECTED_LAYER[workload]
    for label, seconds in (("self time", tracer.self_s),
                           ("leaves charged to caller", tracer.charged_to_callers())):
        shares = {group: sum(seconds.get(key, 0.0) for key in keys) / traced_s
                  for group, keys in LAYER_GROUPS.items()}
        ranked = sorted(shares.items(), key=lambda kv: kv[1], reverse=True)
        print(f"share by layer ({label}): " + ", ".join(
            f"{group} {share:.1%}" for group, share in ranked if share >= 0.005))
        verdict = "matches" if ranked[0][0] == expected else "MISMATCH with"
        print(f"  largest layer {ranked[0][0]} {verdict} the workload's target {expected}")


def run_suite(args) -> int:
    """Every workload on both recorded seeds, twice each in a fresh process."""
    status = 0
    for workload in WORKLOAD_NAMES:
        for seed in (BOUNDS_SEED, HELDOUT_SEED):
            digests = []
            for _ in range(2):
                done = subprocess.run(
                    [sys.executable, str(Path(__file__).resolve()),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", str(args.seconds), "--trace", "0"],
                    capture_output=True, text=True,
                )
                lines = done.stdout.splitlines()
                digests += [l.split()[1] for l in lines if l.startswith("sim_digest ")]
                if done.returncode != 0:
                    status = 1
            print("\n".join(lines[:-1]))
            agree = len(digests) == 2 and digests[0] == digests[1]
            print(f"cross-process sim_digest {'agrees' if agree else 'DIFFERS'}: "
                  f"{' '.join(digests)}\n")
            if not agree:
                status = 1
    print("suite " + ("passed" if status == 0 else "FAILED"))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.suite:
        return run_suite(args)
    wl = load_workloads()
    if args.probe:
        wl.WORKLOADS[args.workload].prepare(args.seed)
        print(time.time())
        return 0
    if args.trace:
        return run_traced(args, wl)
    return run_measured(args, wl)


if __name__ == "__main__":
    raise SystemExit(main())
