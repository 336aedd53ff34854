"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    List registered devices, models, datasets, and search algorithms.
``solve``
    Serve one problem and print the FastTTS-vs-baseline comparison.
``sweep``
    Baseline-vs-FastTTS beam sweep through the parallel orchestrator:
    ``--jobs N`` shards cells over worker processes, and completed cells
    are memoized in the on-disk result cache (default
    ``benchmarks/benchmark_results/cache/``; ``--cache-dir`` /
    ``$REPRO_CACHE_DIR`` override, ``--no-cache`` disables).
``fleet``
    Multi-request serving: queue a stream of solve requests with simulated
    arrival times onto a device pool and report fleet metrics (request
    throughput, p50/p95 queueing delay and sojourn, busy fraction, KV swap
    time). ``--scheduler`` picks the request-scheduling policy (``fifo``,
    ``sjf``, ``round_robin``, ``first_finish``, ``prefix_affinity``) or
    compares them all (``--scheduler all``); ``--devices
    rtx4090,rtx4070ti`` spans a heterogeneous pool and ``--placement``
    picks how requests spread across it (``first_fit``, ``least_loaded``,
    ``kv_balanced``); ``--kv-sharing prefix`` dedups KV prefix segments
    shared by co-resident sessions in each lane's ledger (``off`` keeps
    whole-session accounting, byte-identical to the goldens);
    ``--batching continuous`` coalesces co-resident sessions' rounds into
    jointly-costed batches per lane — weight reads amortize across the
    batch and the report gains TTFT/TPOT and occupancy rows (``off``
    time-slices one session per round, byte-identical to the goldens);
    ``--lane MODEL@DEVICE[:DTYPE][:mem=FRACTION],...`` deploys a
    *different* model pairing (optionally quantized) per lane and
    ``--router {static,predicted,cascade}`` picks which lane class serves
    each request — ``cascade`` escalates verifier-rejected cheap attempts
    to the bigger class, billing the abandoned work honestly.
``trace``
    Open-loop trace-driven serving. ``trace generate`` synthesizes a
    multi-tenant arrival trace (``--tenant
    "chat:arrival=poisson,rate=0.05,deadline=300,ttft=60"`` — arrival
    processes ``poisson``/``diurnal``/``bursty``, per-tenant dataset,
    difficulty mix, search budget and SLO targets) and writes replayable
    JSONL; ``trace run`` generates and serves it in one step; ``trace
    replay`` serves a trace file byte-identically to the run that wrote
    it. Requests arrive at their trace timestamps regardless of capacity
    — queues build and deadlines expire; ``--late-policy drop`` sheds
    queued requests at deadline expiry, ``serve_late`` (default) serves
    them anyway and lets SLO attainment take the hit. Reports add SLO
    attainment, goodput-under-deadline, queue-depth/overload stats, and
    a per-tenant table; all ``fleet`` axes (scheduler, devices,
    placement, kv-sharing, batching, oversubscription) apply.
``schedulers``
    List the registered request-scheduling and placement policies.
``devices``
    List the registered device specs (VRAM, peak FLOPs, bandwidths).
``report``
    Deployment feasibility + roofline report for a config on a device.
``straggler``
    Analytical idle-fraction table (why speculation has room to work).
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.reports import deployment_report
from repro.analysis.straggler import idle_fraction
from repro.core.config import baseline_config, fasttts_config
from repro.core.fleet import TTSFleet, generate_arrivals, run_trace
from repro.core.pool import list_placements, placement_descriptions
from repro.core.scheduler import list_schedulers, scheduler_descriptions
from repro.core.server import TTSServer
from repro.errors import ConfigError
from repro.faults import fault_descriptions, parse_fault_spec
from repro.metrics.fleet import compare_policies
from repro.routing import (
    build_router,
    parse_lane_list,
    router_descriptions,
)
from repro.utils.suggest import did_you_mean
from repro.workloads.arrivals import arrival_descriptions
from repro.workloads.tenants import TenantSpec, generate_trace
from repro.workloads.trace import Trace
from repro.experiments.parallel import (
    ParallelOrchestrator,
    ResultCache,
    use_orchestrator,
)
from repro.experiments.runner import ExperimentSpec, sweep_n
from repro.hardware.device import get_device, list_devices
from repro.metrics.goodput import format_gain, throughput_gain
from repro.models.zoo import list_models
from repro.search.registry import build_algorithm, list_algorithms
from repro.utils.tables import render_table
from repro.workloads.datasets import DATASET_PROFILES, build_dataset, list_datasets

__all__ = ["main", "build_parser"]


def _cmd_info(args: argparse.Namespace) -> int:
    print("devices:   " + ", ".join(list_devices()))
    print("models:    " + ", ".join(list_models()))
    print("datasets:  " + ", ".join(list_datasets()))
    print("algorithms:" + " " + ", ".join(list_algorithms()))
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.problem < 0:
        print(
            f"error: --problem must be a non-negative index, got {args.problem}",
            file=sys.stderr,
        )
        return 2
    dataset = build_dataset(args.dataset, seed=args.seed, size=args.problem + 1)
    problem = list(dataset)[args.problem]
    algorithm = build_algorithm(args.algorithm, args.n)
    rows = []
    for label, factory in (("baseline", baseline_config), ("fasttts", fasttts_config)):
        config = factory(
            device_name=args.device,
            model_config=args.config,
            memory_fraction=args.memory_fraction,
            seed=args.seed,
        )
        result = TTSServer(config, dataset).solve(problem, algorithm)
        rows.append([
            label,
            round(result.goodput, 1),
            round(result.latency.total, 1),
            round(result.latency.generation, 1),
            round(result.latency.verification, 1),
            result.top1_correct,
        ])
    print(render_table(
        ["system", "goodput tok/s", "latency s", "gen s", "verify s", "top1"],
        rows,
        title=(f"{problem.problem_id} | {args.config} on {args.device} "
               f"| {args.algorithm} n={args.n}"),
    ))
    gain = throughput_gain(rows[1][1], rows[0][1])
    print(f"goodput gain: {format_gain(gain)}x")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    if args.problems < 1:
        print(f"error: --problems must be >= 1, got {args.problems}", file=sys.stderr)
        return 2
    spec = ExperimentSpec(
        dataset_name=args.dataset,
        dataset_size=args.problems,
        model_config=args.config,
        device_name=args.device,
        algorithm=args.algorithm,
        seed=args.seed,
        memory_fraction=args.memory_fraction,
    )
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    with ParallelOrchestrator(jobs=args.jobs, cache=cache) as orchestrator:
        with use_orchestrator(orchestrator):
            pairs = sweep_n(spec, list(args.n_values))
    print(render_table(
        ["config", "dataset", "algorithm", "n", "baseline tok/s",
         "fasttts tok/s", "gain x", "latency -%"],
        [pair.summary_row() for pair in pairs],
        title=(f"sweep: {args.config} on {args.device} | {args.algorithm} "
               f"| {args.problems} problems | jobs={args.jobs}"),
    ))
    if cache is not None:
        print(
            f"result cache: {cache.hits} hits, {cache.misses} misses "
            f"under {cache.directory}/"
        )
    return 0


def _parse_device_list(spec: str | None) -> list[str] | None:
    """Parse/validate ``--devices`` (raises ConfigError).

    ``None`` spec means the flag was not given — the single ``--device``
    default applies. An empty list, blank entries, or unknown device names
    are errors (exit-2 convention, with a nearest-name suggestion).

    Duplicate names are deliberately legal: ``--devices
    rtx4090,rtx4090`` builds a two-lane pool of identical cards, and the
    pool suffixes each lane id with its index (``dev0:rtx4090``,
    ``dev1:rtx4090``) so ids never collide.
    """
    if spec is None:
        return None
    names = [name.strip() for name in spec.split(",")]
    if not any(names):
        raise ConfigError("--devices must name at least one device")
    if any(not name for name in names):
        raise ConfigError(f"--devices has an empty entry in {spec!r}")
    known = list_devices()
    for name in names:
        if name not in known:
            raise ConfigError(
                f"--devices: unknown device {name!r}"
                f"{did_you_mean(name, known)}; known: {', '.join(known)}"
            )
    return names


def _parse_hetero_flags(args: argparse.Namespace):
    """Validate ``--lane``/``--router``; returns the lane specs or None.

    ``--lane`` and ``--devices`` are mutually exclusive (a lane spec
    already names its device); lane grammar and router names follow the
    exit-2 convention with nearest-name suggestions (raises ConfigError).
    """
    lanes = None
    if args.lane is not None:
        if args.devices is not None:
            raise ConfigError(
                "--lane and --devices are mutually exclusive; "
                "a lane spec already names its device"
            )
        try:
            lanes = parse_lane_list(args.lane)
        except ConfigError as exc:
            raise ConfigError(f"--lane: {exc}") from exc
    if args.router != "off":
        try:
            build_router(args.router)
        except ConfigError as exc:
            raise ConfigError(f"--router: {exc}") from exc
    return lanes


def _serve_setup(args: argparse.Namespace, seed: int):
    """Validate the shared serve flags (raises ConfigError).

    Returns ``(config, options)``: the server config for the first lane
    (or ``--devices`` entry, or ``--device``) and the :class:`TTSFleet`
    keyword arguments every serving subcommand passes; each subcommand
    adds its own ``scheduler`` (and ``trace`` its ``late_policy``).
    """
    if args.max_in_flight is not None and args.max_in_flight < 1:
        raise ConfigError(
            f"--max-in-flight must be >= 1, got {args.max_in_flight}"
        )
    device_names = _parse_device_list(args.devices)
    lanes = _parse_hetero_flags(args)
    try:
        parse_fault_spec(args.faults)
    except ConfigError as exc:
        raise ConfigError(f"--faults: {exc}") from exc
    factory = fasttts_config if args.system == "fasttts" else baseline_config
    config = factory(
        device_name=(lanes[0].device_name if lanes
                     else device_names[0] if device_names else args.device),
        model_config=(lanes[0].model_config if lanes else args.config),
        memory_fraction=args.memory_fraction,
        seed=seed,
    )
    return config, dict(
        max_in_flight=args.max_in_flight,
        devices=device_names,
        lanes=lanes,
        router=args.router,
        placement=args.placement,
        oversubscription=args.oversubscription,
        kv_sharing=args.kv_sharing,
        batching=args.batching,
        faults=args.faults,
        recovery=args.recovery,
        retry_budget=args.retry_budget,
    )


def _served_label(args: argparse.Namespace, options: dict) -> str:
    if options["lanes"]:
        return "lanes " + ",".join(spec.label for spec in options["lanes"])
    device_label = (
        ",".join(options["devices"]) if options["devices"] else args.device
    )
    return f"{args.config} on {device_label}"


def _multi_device(options: dict) -> bool:
    return len(options["lanes"] or options["devices"] or ()) > 1


def _print_unserved(report) -> None:
    for record in report.records:
        if record.dropped:
            print(f"dropped {record.request_id}: {record.reject_reason}")
        elif record.lost:
            print(f"lost {record.request_id}: {record.reject_reason}")
        elif not record.accepted:
            print(f"rejected {record.request_id}: {record.reject_reason}")


def _cmd_fleet(args: argparse.Namespace) -> int:
    if args.requests < 1:
        print(f"error: --requests must be >= 1, got {args.requests}", file=sys.stderr)
        return 2
    if args.n < 1:
        print(f"error: -n must be >= 1, got {args.n}", file=sys.stderr)
        return 2
    if args.rate <= 0:
        print(f"error: --rate must be > 0, got {args.rate}", file=sys.stderr)
        return 2
    try:
        config, options = _serve_setup(args, args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    arrivals = generate_arrivals(
        args.requests, args.rate, seed=args.seed, distribution=args.arrivals
    )
    algorithm = build_algorithm(args.algorithm, args.n)
    dataset = build_dataset(args.dataset, seed=args.seed, size=args.requests)
    policies = list_schedulers() if args.scheduler == "all" else [args.scheduler]

    reports = {}
    for policy in policies:
        fleet = TTSFleet(config, dataset, scheduler=policy, **options)
        fleet.submit_stream(list(dataset), algorithm, arrivals)
        reports[policy] = fleet.drain()

    workload = (f"{args.requests} requests @ {args.rate}/s ({args.arrivals}) "
                f"| {args.system} {_served_label(args, options)} "
                f"| {args.algorithm} n={args.n}")
    if args.router != "off":
        workload += f" | router {args.router}"
    if args.kv_sharing != "off":
        workload += f" | kv-sharing {args.kv_sharing}"
    if args.batching != "off":
        workload += f" | batching {args.batching}"
    if args.faults != "off":
        workload += f" | faults {args.faults} | recovery {args.recovery}"
    multi_device = _multi_device(options)
    if multi_device:
        workload += f" | placement {args.placement}"
    if len(reports) == 1:
        policy, report = next(iter(reports.items()))
        print(report.table(title=f"fleet [{policy}]: {workload}"))
        if multi_device:
            print(report.device_table(title="per-device utilization"))
        if args.router != "off":
            print(report.lane_class_table(title="per-lane-class rollup"))
            decisions = ", ".join(
                f"{cls}: {count}"
                for cls, count in report.router_decisions().items()
            )
            print(f"router decisions: {decisions or 'none'}")
        _print_unserved(report)
    else:
        print(compare_policies(
            {policy: report.metrics for policy, report in reports.items()},
            title=f"fleet scheduler comparison: {workload}",
        ))
    return 0


#: Tenants used when ``trace generate``/``trace run`` get no ``--tenant``:
#: a latency-sensitive interactive stream plus a bursty batch backfill.
_DEFAULT_TENANTS = (
    "chat:arrival=poisson,rate=0.02,deadline=300,ttft=120",
    "batch:arrival=bursty,rate=0.01,deadline=1200,slo=batch",
)


def _trace_from_args(args: argparse.Namespace) -> Trace:
    """Build a trace from ``--tenant`` specs (raises ConfigError)."""
    if args.requests < 1:
        raise ConfigError(f"--requests must be >= 1, got {args.requests}")
    specs = list(args.tenant) if args.tenant else list(_DEFAULT_TENANTS)
    tenants = [TenantSpec.parse(spec) for spec in specs]
    return generate_trace(
        tenants,
        seed=args.seed,
        default_requests=args.requests,
        base_dataset=args.base_dataset,
    )


def _print_trace_summary(trace: Trace) -> None:
    per_tenant: dict[str, int] = {}
    for request in trace.requests:
        per_tenant[request.tenant] = per_tenant.get(request.tenant, 0) + 1
    rows = [[name, count] for name, count in sorted(per_tenant.items())]
    print(render_table(
        ["tenant", "requests"], rows,
        title=(f"trace: {len(trace.requests)} requests | seed {trace.seed} "
               f"| horizon {trace.horizon_s:.0f}s "
               f"| base dataset {trace.base_dataset}"),
    ))


def _serve_trace(trace: Trace, args: argparse.Namespace) -> int:
    """Replay ``trace`` through the open-loop fleet and print SLO tables."""
    try:
        config, options = _serve_setup(args, trace.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_trace(
        trace, config,
        scheduler=args.scheduler, late_policy=args.late_policy, **options,
    )
    workload = (f"{len(trace.requests)} requests / {len(trace.tenants)} tenants "
                f"over {trace.horizon_s:.0f}s "
                f"| {args.system} {_served_label(args, options)} "
                f"| late-policy {args.late_policy}")
    if args.router != "off":
        workload += f" | router {args.router}"
    if args.faults != "off":
        workload += f" | faults {args.faults} | recovery {args.recovery}"
    print(report.table(title=f"trace [{args.scheduler}]: {workload}"))
    if _multi_device(options):
        print(report.device_table(title="per-device utilization"))
    if args.router != "off":
        print(report.lane_class_table(title="per-lane-class rollup"))
    print(report.tenant_table(title="per-tenant SLOs"))
    print(report.slo_summary().table(title="fleet SLO summary"))
    _print_unserved(report)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    try:
        trace = (
            Trace.load(args.trace) if args.trace_command == "replay"
            else _trace_from_args(args)
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace_command == "generate":
        trace.save(args.out)
        _print_trace_summary(trace)
        print(f"wrote {args.out}")
        return 0
    # run (generate + serve in one step) or replay
    if args.trace_command == "run" and args.out is not None:
        trace.save(args.out)
        print(f"wrote {args.out}")
    return _serve_trace(trace, args)


def _cmd_schedulers(args: argparse.Namespace) -> int:
    rows = [[name, desc] for name, desc in scheduler_descriptions().items()]
    print(render_table(["scheduler", "policy"], rows,
                       title="registered request schedulers"))
    rows = [[name, desc] for name, desc in placement_descriptions().items()]
    print(render_table(["placement", "policy"], rows,
                       title="registered placement policies"))
    rows = [[name, desc] for name, desc in router_descriptions().items()]
    print(render_table(["router", "policy"], rows,
                       title="registered routing policies"))
    return 0


def _cmd_devices(args: argparse.Namespace) -> int:
    rows = []
    for name in list_devices():
        spec = get_device(name)
        rows.append([
            name,
            round(spec.vram_bytes / 1024**3, 1),
            round(spec.peak_flops / 1e12, 1),
            round(spec.mem_bandwidth / 1e9, 1),
            round(spec.pcie_bandwidth / 1e9, 1),
        ])
    print(render_table(
        ["device", "vram GB", "peak TFLOP/s", "mem GB/s", "pcie GB/s"],
        rows,
        title="registered devices",
    ))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    print(deployment_report(
        model_config=args.config,
        device_name=args.device,
        memory_fraction=args.memory_fraction,
        dataset_name=args.dataset,
        n=args.n,
    ))
    return 0


def _cmd_straggler(args: argparse.Namespace) -> int:
    profile = DATASET_PROFILES[args.dataset]
    rows = [
        [batch, round(idle_fraction(profile.step_model, batch) * 100, 1)]
        for batch in (1, 4, 16, 64, 256)
    ]
    print(render_table(
        ["batch size", "expected idle slot-time %"],
        rows,
        title=f"straggler idle fraction ({args.dataset} step lengths)",
    ))
    return 0


def _add_serve_flags(p: argparse.ArgumentParser) -> None:
    """The serving-policy flags ``fleet``, ``trace run`` and ``trace replay`` share."""
    p.add_argument("--config", default="1.5B+1.5B")
    p.add_argument("--device", default="rtx4090", choices=list_devices())
    p.add_argument("--system", choices=("baseline", "fasttts"),
                   default="fasttts")
    p.add_argument("--max-in-flight", type=int, default=None,
                   help="admission-control cap on queued+running requests")
    p.add_argument("--devices", default=None, metavar="NAME[,NAME...]",
                   help="comma-separated device pool (overrides --device), "
                        "e.g. rtx4090,rtx4070ti; duplicates are legal "
                        "(lane ids are index-suffixed)")
    router_help = "; ".join(
        f"{name}: {desc}" for name, desc in router_descriptions().items()
    )
    p.add_argument("--lane", default=None, metavar="SPEC[,SPEC...]",
                   help="comma-separated heterogeneous lane specs "
                        "MODEL@DEVICE[:DTYPE][:mem=FRACTION], e.g. "
                        "7B+1.5B@rtx4090,1.5B+1.5B@rtx4090:int8 "
                        "(mutually exclusive with --devices)")
    p.add_argument("--router", default="off", metavar="NAME",
                   help="difficulty-aware model router across lane "
                        "classes ('off' keeps the routerless path, "
                        f"byte-identical to the goldens). {router_help}")
    p.add_argument("--placement", choices=list_placements(),
                   default="first_fit",
                   help="how new requests spread across the device pool")
    p.add_argument("--oversubscription", choices=("swap", "deny"),
                   default="swap",
                   help="KV contention policy: charge eviction/restore "
                        "PCIe time (swap) or refuse admission (deny)")
    p.add_argument("--kv-sharing", choices=("off", "prefix"),
                   default="off", dest="kv_sharing",
                   help="dedup KV prefix segments shared by co-resident "
                        "sessions in each lane's ledger (off = "
                        "whole-session accounting)")
    p.add_argument("--batching", choices=("off", "continuous"),
                   default="off",
                   help="coalesce co-resident sessions' rounds into one "
                        "jointly-costed batch per lane iteration (off = "
                        "one session's round at a time)")
    fault_help = "; ".join(
        f"{name}: {desc}" for name, desc in fault_descriptions().items()
    )
    p.add_argument("--faults", default="off", metavar="SPEC",
                   help="fault-injection spec 'kind:key=value,...' "
                        "(';'-separated clauses; 'off' disables). "
                        "Each clause fires once (at=) or as a Poisson "
                        f"process (rate=). Kinds — {fault_help}")
    p.add_argument("--recovery", choices=("failover", "retry", "shed"),
                   default="failover",
                   help="what a lane crash does to its in-flight "
                        "requests: re-place on a healthy lane "
                        "(failover), re-queue with exponential backoff "
                        "(retry), or fail fast (shed)")
    p.add_argument("--retry-budget", type=int, default=3,
                   dest="retry_budget",
                   help="max re-queues per request under --recovery "
                        "retry before it is declared lost")
    p.add_argument("--memory-fraction", type=float, default=0.4)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="FastTTS reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list devices/models/datasets/algorithms")

    solve = sub.add_parser("solve", help="serve one problem on both systems")
    solve.add_argument("--dataset", default="aime24", choices=list_datasets())
    solve.add_argument("--problem", type=int, default=0)
    solve.add_argument("--config", default="1.5B+1.5B")
    solve.add_argument("--device", default="rtx4090", choices=list_devices())
    solve.add_argument("--algorithm", default="beam_search",
                       choices=list_algorithms())
    solve.add_argument("-n", type=int, default=16)
    solve.add_argument("--memory-fraction", type=float, default=0.4)
    solve.add_argument("--seed", type=int, default=0)

    sweep = sub.add_parser(
        "sweep", help="parallel cached baseline-vs-fasttts beam sweep"
    )
    sweep.add_argument("--dataset", default="aime24", choices=list_datasets())
    sweep.add_argument("--config", default="1.5B+1.5B")
    sweep.add_argument("--device", default="rtx4090", choices=list_devices())
    sweep.add_argument("--algorithm", default="beam_search",
                       choices=list_algorithms())
    sweep.add_argument("--n-values", type=int, nargs="+", default=[4, 8, 16],
                       help="beam budgets to sweep")
    sweep.add_argument("--problems", type=int, default=2)
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes to shard cells across")
    sweep.add_argument("--cache-dir", default=None,
                       help="result-cache directory (default: "
                            "benchmarks/benchmark_results/cache or "
                            "$REPRO_CACHE_DIR)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="run every cell even if cached")
    sweep.add_argument("--memory-fraction", type=float, default=None,
                       help="override the paper's per-config memory fraction")
    sweep.add_argument("--seed", type=int, default=0)

    fleet = sub.add_parser(
        "fleet", help="serve a multi-request stream and report fleet metrics"
    )
    fleet.add_argument("--dataset", default="amc23", choices=list_datasets())
    fleet.add_argument("--algorithm", default="beam_search",
                       choices=list_algorithms())
    fleet.add_argument("-n", type=int, default=8)
    fleet.add_argument("--requests", type=int, default=6)
    fleet.add_argument("--rate", type=float, default=0.02,
                       help="arrival rate in requests per simulated second")
    fleet.add_argument("--arrivals", choices=("poisson", "uniform"),
                       default="poisson")
    fleet.add_argument("--scheduler",
                       choices=(*list_schedulers(), "all"), default="fifo",
                       help="request-scheduling policy, or 'all' to compare "
                            "every registered policy on the same workload")
    fleet.add_argument("--seed", type=int, default=0)
    _add_serve_flags(fleet)

    trace = sub.add_parser(
        "trace", help="open-loop trace-driven serving with SLO metrics"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    arrival_help = "; ".join(
        f"{name}: {desc}" for name, desc in arrival_descriptions().items()
    )

    def add_workload_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tenant", action="append", metavar="SPEC",
                       help="tenant spec 'name:key=value,...' (repeatable); "
                            "keys: arrival, rate, peak_rate, period, "
                            "burst_rate, on_s, off_s, dataset, difficulty, "
                            "algorithm, n, deadline, ttft, slo, requests. "
                            f"Arrival processes — {arrival_help}")
        p.add_argument("--requests", type=int, default=8,
                       help="requests per tenant unless the spec overrides")
        p.add_argument("--base-dataset", default=None, choices=list_datasets(),
                       help="dataset whose step-length dynamics the serving "
                            "fleet uses (default: first tenant's dataset)")
        p.add_argument("--seed", type=int, default=0)

    def add_trace_serve_flags(p: argparse.ArgumentParser) -> None:
        _add_serve_flags(p)
        p.add_argument("--scheduler", choices=list_schedulers(),
                       default="fifo")
        p.add_argument("--late-policy", choices=("serve_late", "drop"),
                       default="serve_late", dest="late_policy",
                       help="what happens when a queued request's deadline "
                            "expires before it starts: serve it anyway "
                            "(serve_late) or shed it (drop)")

    trace_generate = trace_sub.add_parser(
        "generate", help="synthesize a multi-tenant trace and write JSONL"
    )
    add_workload_flags(trace_generate)
    trace_generate.add_argument("--out", required=True, metavar="PATH",
                                help="JSONL trace file to write")

    trace_run = trace_sub.add_parser(
        "run", help="generate a trace and serve it open-loop in one step"
    )
    add_workload_flags(trace_run)
    add_trace_serve_flags(trace_run)
    trace_run.add_argument("--out", default=None, metavar="PATH",
                           help="also save the generated trace as JSONL")

    trace_replay = trace_sub.add_parser(
        "replay", help="serve a previously generated JSONL trace"
    )
    trace_replay.add_argument("--trace", required=True, metavar="PATH",
                              help="JSONL trace file to replay")
    add_trace_serve_flags(trace_replay)

    sub.add_parser("schedulers",
                   help="list request-scheduling and placement policies")

    sub.add_parser("devices", help="list registered device specs")

    report = sub.add_parser("report", help="deployment feasibility report")
    report.add_argument("--config", default="1.5B+1.5B")
    report.add_argument("--device", default="rtx4090", choices=list_devices())
    report.add_argument("--dataset", default="aime24", choices=list_datasets())
    report.add_argument("-n", type=int, default=64)
    report.add_argument("--memory-fraction", type=float, default=0.9)

    straggler = sub.add_parser("straggler", help="idle-fraction analysis")
    straggler.add_argument("--dataset", default="aime24", choices=list_datasets())

    return parser


_HANDLERS = {
    "info": _cmd_info,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "fleet": _cmd_fleet,
    "trace": _cmd_trace,
    "schedulers": _cmd_schedulers,
    "devices": _cmd_devices,
    "report": _cmd_report,
    "straggler": _cmd_straggler,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
