"""Multi-request serving: ``TTSFleet`` multiplexes queued solves on a device pool.

The figure experiments measure one solve at a time; a deployed edge system
sees a *stream* of requests. ``TTSFleet`` adds that serving dimension on
top of a :class:`~repro.core.pool.DevicePool` — one or many simulated
devices, each its own :class:`~repro.core.server.TTSServer`, clock lane
and per-device KV ledger. Every admitted request is placed on one device
(a :class:`~repro.core.pool.PlacementPolicy`, or the scheduler's
``choose_device`` override) and becomes one or more resumable
:class:`~repro.core.session.SolveSession` objects; between rounds a
pluggable :class:`~repro.core.scheduler.RequestScheduler` policy decides,
per device, which session occupies it next. That makes smarter-than-FIFO
serving (SJF, round-robin time-slicing, First-Finish racing with
cancellation) *and* fleet scaling (heterogeneous pools, placement,
migration) policy choices instead of architecture changes:

* requests carry **arrival times on the pool's shared timeline**; each
  session keeps its own service-time clock, and a
  :class:`~repro.engine.clock.ClockBinding` anchors it onto its device's
  lane whenever the scheduler hands it the device;
* an arrival that lands *during* a solve preempts Phase-2 speculation via
  the session's arrival hook (Sec. 4.1.2), so a busy fleet automatically
  sheds speculative work;
* **admission control**: a request whose beam budget cannot be planned
  inside any device's KV budget is rejected up front
  (:class:`CapacityError` from the allocator), as is any arrival that
  would exceed ``max_in_flight`` queued-plus-running requests (replica
  sessions of one request count once). With
  ``oversubscription="deny"``, a request whose planned KV would
  oversubscribe every eligible device's ledger is also refused;
* **KV contention is charged**: with the default
  ``oversubscription="swap"``, interleaved sessions whose combined KV
  oversubscribes a device's ledger pay PCIe swap time — the
  least-recently-run co-resident's KV is written out to host, and a
  paused session's evicted KV is read back before it resumes
  (:class:`~repro.hardware.memory.KVLedger`). Run-to-completion policies
  never trigger it; interleaving policies now pay the true price of
  co-residency instead of getting paused KV for free. With
  ``kv_sharing="prefix"`` each lane's ledger is a
  :class:`~repro.hardware.memory.SharedKVLedger`: sessions report their
  beams' segment lineages, prefix bytes shared across co-resident
  sessions (First-Finish replicas, same-problem requests) are billed
  once, and swap traffic covers only unique bytes — replica racing
  becomes genuinely cheaper, not just differently scheduled;
* the run aggregates into :class:`~repro.metrics.fleet.FleetMetrics` —
  request throughput, p50/p95 queueing delay and sojourn, busy fraction,
  KV swap time, cancelled-work time for racing schedulers — plus a
  per-device :class:`~repro.metrics.fleet.DeviceUtilization` rollup.

Everything stays simulated and deterministic: a fleet run is a pure
function of (pool, submitted requests, scheduler policy, placement
policy), and a single-device pool with ``scheduler="fifo"`` reproduces
the pre-pool fleet byte for byte (pinned by
``tests/goldens/fleet_fifo_goldens.json``).
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.batcher import RoundBatcher
from repro.core.config import ServerConfig
from repro.core.pool import DevicePool, PlacementPolicy, PooledDevice, build_placement
from repro.core.scheduler import (
    RequestScheduler,
    SessionHandle,
    _arrival_key,
    build_scheduler,
)
from repro.core.server import TTSServer
from repro.core.session import SessionState, planned_kv_segments
from repro.engine.clock import ClockBinding
from repro.errors import CapacityError, ConfigError, RetryExhaustedError
from repro.faults import FaultInjector, FaultProcess, RetryPolicy, parse_fault_spec
from repro.metrics.fleet import DeviceUtilization, FleetMetrics, FleetRequestRecord
from repro.metrics.report import ProblemRunResult
from repro.routing.lanes import LaneSpec
from repro.routing.router import RoutingPolicy, build_router
from repro.search.base import SearchAlgorithm
from repro.utils.rng import KeyedRng
from repro.workloads.problem import Dataset, Problem

__all__ = [
    "FleetRequest",
    "FleetReport",
    "TTSFleet",
    "generate_arrivals",
    "run_trace",
]


def generate_arrivals(
    count: int,
    rate_rps: float,
    seed: int = 0,
    distribution: str = "poisson",
) -> tuple[float, ...]:
    """Deterministic arrival-time generator for fleet workloads.

    ``"poisson"`` draws exponential inter-arrival gaps at ``rate_rps`` from
    a keyed stream (same seed, same arrivals — everywhere); ``"uniform"``
    spaces requests exactly ``1/rate_rps`` apart.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if rate_rps <= 0:
        raise ValueError("rate_rps must be positive")
    if distribution == "uniform":
        return tuple(i / rate_rps for i in range(count))
    if distribution == "poisson":
        stream = KeyedRng(seed).stream("fleet-arrivals", count, rate_rps)
        gaps = stream.exponential(1.0 / rate_rps, size=count)
        times, now = [], 0.0
        for gap in gaps:
            now += float(gap)
            times.append(now)
        return tuple(times)
    raise ValueError(f"unknown arrival distribution {distribution!r}")


@dataclass(frozen=True, slots=True)
class FleetRequest:
    """One queued solve: a problem, its search budget, and when it arrived.

    Open-loop trace requests additionally carry their latency contract —
    ``deadline_s`` / ``ttft_slo_s`` relative to arrival — and traffic
    provenance (``tenant``, ``slo_class``); closed-loop submissions leave
    them ``None`` and behave exactly as before.
    """

    request_id: str
    problem: Problem
    algorithm: SearchAlgorithm
    arrival_s: float
    deadline_s: float | None = None
    ttft_slo_s: float | None = None
    tenant: str | None = None
    slo_class: str | None = None

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ValueError("arrival_s must be non-negative")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive when set")
        if self.ttft_slo_s is not None and self.ttft_slo_s <= 0:
            raise ValueError("ttft_slo_s must be positive when set")


@dataclass(frozen=True, slots=True)
class FleetReport:
    """Everything one drained fleet run produced."""

    records: tuple[FleetRequestRecord, ...]
    results: dict[str, ProblemRunResult] = field(default_factory=dict)
    scheduler: str = "fifo"
    placement: str = "first_fit"
    devices: tuple[DeviceUtilization, ...] = ()
    kv_sharing: str = "off"
    batching: str = "off"
    late_policy: str = "serve_late"
    faults: str = "off"
    recovery: str = "failover"
    router: str = "off"

    @property
    def metrics(self) -> FleetMetrics:
        return FleetMetrics.aggregate(
            self.records,
            pool_size=len(self.devices) or None,
            devices=self.devices or None,
        )

    def table(self, title: str | None = None) -> str:
        return self.metrics.table(title=title)

    def device_table(self, title: str | None = None) -> str:
        from repro.metrics.fleet import device_table

        return device_table(self.devices, title=title)

    def _correct_by_request(self) -> dict[str, bool]:
        return {rid: res.top1_correct for rid, res in self.results.items()}

    def slo_summary(self):
        """Fleet-wide SLO attainment / goodput-under-deadline rollup."""
        from repro.metrics.fleet import SLOSummary

        return SLOSummary.aggregate(
            self.records,
            self._correct_by_request(),
            pool_size=len(self.devices) or None,
        )

    def tenant_slos(self):
        """Per-tenant SLO rows (records without a tenant group under '-')."""
        from repro.metrics.fleet import tenant_slo_rollup

        return tenant_slo_rollup(self.records, self._correct_by_request())

    def tenant_table(self, title: str | None = None) -> str:
        from repro.metrics.fleet import tenant_table

        return tenant_table(self.tenant_slos(), title=title)

    def lane_classes(self):
        """Per-lane-class accuracy/latency rollup (heterogeneous pools)."""
        from repro.metrics.fleet import lane_class_rollup

        return lane_class_rollup(self.records, self._correct_by_request())

    def lane_class_table(self, title: str | None = None) -> str:
        from repro.metrics.fleet import lane_class_table

        return lane_class_table(self.lane_classes(), title=title)

    def router_decisions(self) -> dict[str, int]:
        """Initial routing decisions: lane class → requests sent there."""
        from repro.metrics.fleet import router_decisions

        return router_decisions(self.records)

    def frontier_point(self, label: str):
        """This run's point on the accuracy-vs-cost frontier."""
        from repro.metrics.fleet import frontier_point

        return frontier_point(label, self.records, self._correct_by_request())


@dataclass(slots=True, eq=False)
class _RequestState:
    """Fleet-side life of one request (and its replicas).

    One object lives from the request's first admission to its terminal
    record, across re-placement (cascade escalation, failover) and
    re-queueing (retry backoff, waiting for a lane repair): placement
    swaps in fresh ``handles`` and a new ``device``, while the life's
    accounting — ``retries``, ``redone_work_s``, ``failed_over``, the
    router's initial ``routed_class``, ``escalations`` and
    ``escalated_work_s`` — accumulates here and reaches every terminal
    record through :meth:`record`. ``redone_work_s`` and
    ``escalated_work_s`` are disjoint: a crash voids its sessions into
    the first before recovery re-places the request, an escalation bills
    its (never-crashed) sessions into the second.

    ``device`` is the placement-chosen primary lane; racing replicas may
    sit on other lanes (each handle's own ``device``). ``claim_lanes``
    tracks which lanes currently hold this request's live-count and
    planned-KV claims, so crash handling can release exactly the dead
    lane's share and settlement the rest — never double-counting.
    ``claim_bytes`` records what each lane was actually billed (unique
    planned bytes on sharing lanes, the full claim elsewhere) and
    ``claim_segs`` the planned segments noted there, so releases undo
    exactly what placement charged.
    """

    request: FleetRequest
    seq: int
    handles: list[SessionHandle] = field(default_factory=list)
    device: PooledDevice | None = None
    start_s: float | None = None
    claim_lanes: list[PooledDevice] = field(default_factory=list)
    claim_bytes: dict[int, int] = field(default_factory=dict)
    claim_segs: dict[int, tuple] = field(default_factory=dict)
    retries: int = 0
    redone_work_s: float = 0.0
    failed_over: bool = False
    routed_class: str | None = None
    escalations: int = 0
    escalated_work_s: float = 0.0

    def record(self, **outcome) -> FleetRequestRecord:
        """The terminal record: this life's facts plus the ``outcome`` fields."""
        request = self.request
        return FleetRequestRecord(
            request_id=request.request_id,
            arrival_s=request.arrival_s,
            tenant=request.tenant,
            slo_class=request.slo_class,
            deadline_s=request.deadline_s,
            ttft_slo_s=request.ttft_slo_s,
            retries=self.retries,
            redone_work_s=self.redone_work_s,
            failed_over=self.failed_over,
            routed_class=self.routed_class,
            escalations=self.escalations,
            escalated_work_s=self.escalated_work_s,
            **outcome,
        )


class TTSFleet:
    """Scheduler-driven multiplexing of solve requests over a device pool.

    Submit requests (``submit`` / ``submit_stream``), then ``drain()`` to
    simulate the whole run and collect the :class:`FleetReport`. Each pool
    lane owns a :class:`~repro.engine.clock.SimClock` on a shared time
    origin; sessions run on private clocks that a :class:`ClockBinding`
    stitches onto their lane round by round, so any
    :class:`RequestScheduler` policy — FIFO, SJF, round-robin,
    First-Finish racing — can interleave them, and any
    :class:`~repro.core.pool.PlacementPolicy` can spread requests across
    the lanes.

    Construct either from ``(config, dataset)`` — optionally with
    ``devices=["rtx4090", "rtx4070ti"]`` to span several device specs — or
    from a prepared ``pool=DevicePool(...)``.
    """

    def __init__(
        self,
        config: ServerConfig | None = None,
        dataset: Dataset | None = None,
        max_in_flight: int | None = None,
        scheduler: RequestScheduler | str = "fifo",
        pool: DevicePool | None = None,
        placement: PlacementPolicy | str = "first_fit",
        devices: list[str] | None = None,
        oversubscription: str = "swap",
        kv_sharing: str = "off",
        batching: str = "off",
        late_policy: str = "serve_late",
        faults: "str | Sequence[FaultProcess]" = "off",
        recovery: str = "failover",
        retry_budget: int = 3,
        retry_backoff_s: float = 1.0,
        lanes: Sequence[LaneSpec] | None = None,
        router: RoutingPolicy | str | None = "off",
    ) -> None:
        if max_in_flight is not None and max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1 when set")
        if late_policy not in ("serve_late", "drop"):
            raise ConfigError(
                f"late_policy must be 'serve_late' or 'drop', got {late_policy!r}"
            )
        if recovery not in ("failover", "retry", "shed"):
            raise ConfigError(
                f"recovery must be 'failover', 'retry' or 'shed', "
                f"got {recovery!r}"
            )
        if isinstance(faults, str):
            self._faults_label = faults if faults.strip() else "off"
            self._fault_processes = parse_fault_spec(faults)
        else:
            self._fault_processes = tuple(faults)
            self._faults_label = (
                ";".join(p.name for p in self._fault_processes)
                if self._fault_processes else "off"
            )
        if pool is None:
            if config is None or dataset is None:
                raise ConfigError(
                    "TTSFleet needs either a DevicePool (pool=...) or a "
                    "(config, dataset) pair to build one"
                )
            pool = DevicePool.build(
                config, dataset, device_names=devices,
                kv_sharing=kv_sharing, batching=batching, lanes=lanes,
            )
        elif config is not None or dataset is not None or devices is not None:
            raise ConfigError(
                "pass either pool=... or (config, dataset[, devices]), not both"
            )
        elif lanes is not None:
            raise ConfigError(
                "a prepared pool owns its lanes; build it with "
                "DevicePool.build(..., lanes=[LaneSpec...]) instead of "
                "passing lanes to TTSFleet"
            )
        elif kv_sharing != "off":
            raise ConfigError(
                "a prepared pool owns its ledgers; build it with "
                "DevicePool.build(..., kv_sharing='prefix') instead of "
                "passing kv_sharing to TTSFleet"
            )
        elif batching != "off":
            raise ConfigError(
                "a prepared pool owns its lanes' batching mode; build it "
                "with DevicePool.build(..., batching='continuous') instead "
                "of passing batching to TTSFleet"
            )
        if oversubscription not in ("swap", "deny"):
            raise ConfigError(
                f"oversubscription must be 'swap' or 'deny', got {oversubscription!r}"
            )
        self._pool = pool
        self._batcher = RoundBatcher()
        self._oversubscription = oversubscription
        self._late_policy = late_policy
        self._max_in_flight = max_in_flight
        self._recovery = recovery
        self._retry_policy = RetryPolicy(
            budget=retry_budget, backoff_s=retry_backoff_s
        )
        self._scheduler = (
            build_scheduler(scheduler) if isinstance(scheduler, str) else scheduler
        )
        self._placement = (
            build_placement(placement) if isinstance(placement, str) else placement
        )
        # Routing: None / "off" leaves the drain loop byte-identical to
        # the routerless fleet; a policy (by registry name or instance)
        # narrows admission's eligible lanes per request and may escalate
        # settled attempts to bigger-model lanes.
        if router is None or router == "off":
            self._router: RoutingPolicy | None = None
        elif isinstance(router, str):
            self._router = build_router(router)
        else:
            self._router = router
        if self._router is not None:
            self._router.bind(self._pool)
        self._queue: list[FleetRequest] = []
        self._next_id = 0
        # Allocation feasibility is a pure function of (device, n) for a
        # fixed dataset, so admission memoizes the (often expensive) plan
        # search as (verdict, planned on-device KV claim); the claim rides
        # along for the ledger bookkeeping and deny-mode admission.
        self._kv_plans: dict[tuple[int, int], tuple[str | None, int]] = {}
        # Planned prompt-root segments per (lane, problem): what a session
        # for that problem would register at admission, used by dedup-aware
        # billing and the prefix_affinity placement counters.
        self._planned_memo: dict[tuple[int, str], tuple] = {}

    # -- submission ------------------------------------------------------

    @property
    def pool(self) -> DevicePool:
        return self._pool

    @property
    def server(self) -> TTSServer:
        """The first pool device's server (single-device compatibility)."""
        return self._pool[0].server

    @property
    def clock(self):
        """The first pool device's clock lane (single-device compatibility)."""
        return self._pool[0].clock

    @property
    def scheduler(self) -> RequestScheduler:
        return self._scheduler

    @property
    def placement(self) -> PlacementPolicy:
        return self._placement

    @property
    def pending(self) -> int:
        return len(self._queue)

    @property
    def late_policy(self) -> str:
        return self._late_policy

    @property
    def faults(self) -> str:
        """The fault spec label this fleet injects (``"off"`` = none)."""
        return self._faults_label

    @property
    def recovery(self) -> str:
        return self._recovery

    @property
    def router(self) -> str:
        """The bound routing policy's name (``"off"`` = no router)."""
        return self._router.name if self._router is not None else "off"

    def submit(
        self,
        problem: Problem,
        algorithm: SearchAlgorithm,
        arrival_s: float = 0.0,
        deadline_s: float | None = None,
        ttft_slo_s: float | None = None,
        tenant: str | None = None,
        slo_class: str | None = None,
    ) -> str:
        """Queue one request; returns its fleet-assigned id."""
        request_id = f"req-{self._next_id:04d}"
        self._next_id += 1
        self._queue.append(
            FleetRequest(
                request_id=request_id,
                problem=problem,
                algorithm=algorithm,
                arrival_s=arrival_s,
                deadline_s=deadline_s,
                ttft_slo_s=ttft_slo_s,
                tenant=tenant,
                slo_class=slo_class,
            )
        )
        return request_id

    def submit_stream(
        self,
        problems: list[Problem],
        algorithm: SearchAlgorithm,
        arrivals: tuple[float, ...] | list[float],
    ) -> list[str]:
        """Queue one request per problem with the given arrival times."""
        if len(problems) != len(arrivals):
            raise ValueError("problems and arrivals must have the same length")
        return [
            self.submit(problem, algorithm, arrival_s=arrival)
            for problem, arrival in zip(problems, arrivals)
        ]

    # -- admission -------------------------------------------------------

    def _kv_plan(self, lane: PooledDevice, n: int) -> tuple[str | None, int]:
        """Can ``lane``'s allocator plan a beam budget of ``n``? Memoized.

        Returns ``(reject_reason, planned_kv_bytes)``: the reason is None
        when the plan fits, and the claim is 0 when it does not.
        """
        key = (lane.index, n)
        if key not in self._kv_plans:
            try:
                plan = lane.server.plan_allocation(n)
            except CapacityError as error:
                self._kv_plans[key] = (f"KV budget: {error}", 0)
            else:
                self._kv_plans[key] = (None, plan.kv_total_bytes)
        return self._kv_plans[key]

    def _feasible_lanes(self, n: int) -> list[PooledDevice]:
        """Serving lanes whose allocator can plan a beam budget of ``n``."""
        return [
            lane for lane in self._pool
            if lane.serving and self._kv_plan(lane, n)[0] is None
        ]

    def _route(
        self, request: FleetRequest, eligible: list[PooledDevice], now: float
    ) -> list[PooledDevice]:
        """Narrow ``eligible`` to the router's preferred lane class.

        Placement and scheduling pick the concrete lane within it. A
        policy returning nothing (defensive guard) falls back to every
        eligible lane; without a router nothing is narrowed.
        """
        if self._router is None:
            return eligible
        return self._router.route(request, eligible, now) or eligible

    def _planned_claims(self, lane: PooledDevice, problem: Problem) -> tuple:
        """The prompt-root KV segments a session would register on ``lane``."""
        key = (lane.index, problem.problem_id)
        if key not in self._planned_memo:
            self._planned_memo[key] = planned_kv_segments(lane.server, problem)
        return self._planned_memo[key]

    def _billable_claim(self, lane: PooledDevice, request: FleetRequest) -> int:
        """The planned-KV bytes ``lane`` actually charges for ``request``.

        On sharing lanes this is the *unique* planned bytes: the full
        claim minus prefix bytes already resident (or already planned by
        a co-admitted same-prefix request) on that lane. Non-segment
        ledgers have nothing to deduplicate, so the full claim is billed
        and the ``--kv-sharing off`` path stays byte-identical.
        """
        claim = self._kv_plan(lane, request.algorithm.n)[1]
        if not lane.ledger.segment_granular:
            return claim
        overlap = lane.prefix_overlap_bytes(
            self._planned_claims(lane, request.problem)
        )
        return max(0, claim - overlap)

    def _admission(
        self,
        request: FleetRequest,
        finish_times: list[float],
        running_requests: int,
    ) -> tuple[str | None, list[PooledDevice]]:
        """Admission control at arrival.

        Returns ``(reject_reason, eligible_devices)``; exactly one of the
        two is meaningful. Checks run in the legacy order — queue depth
        first, then per-device KV feasibility, then (deny mode only)
        ledger headroom.
        """
        if self._max_in_flight is not None:
            in_flight = running_requests + sum(
                1 for f in finish_times if f > request.arrival_s
            )
            if in_flight >= self._max_in_flight:
                return f"queue full (max_in_flight={self._max_in_flight})", []
        n = request.algorithm.n
        eligible = [
            lane for lane in self._pool if self._kv_plan(lane, n)[0] is None
        ]
        if not eligible:
            # Every lane refused; surface the first lane's allocator error
            # (identical to the single-device fleet's reject reason).
            return self._kv_plan(self._pool[0], n)[0], []
        if self._oversubscription == "deny":
            fitting = [
                lane for lane in eligible
                if lane.planned_kv_bytes + self._billable_claim(lane, request)
                <= lane.ledger.capacity_bytes
            ]
            if not fitting:
                return (
                    f"KV budget: admitting n={n} would oversubscribe every "
                    f"device's KV ledger (co-resident sessions hold the "
                    f"planned capacity)",
                    [],
                )
            eligible = fitting
        return None, eligible

    # -- the serving loop ------------------------------------------------

    def drain(self) -> FleetReport:
        """Serve every queued request through the scheduler and aggregate.

        The loop interleaves the pool's lanes in deterministic time order:
        the runnable lane furthest behind acts next, and an arrival is
        admitted (and placed on a device) as soon as every runnable lane
        has reached its arrival time — or immediately, when the whole pool
        is idle. Arrivals landing during a session's service reach its
        preemption hook (as offsets on that session's clock, plus an
        explicit signal for interleaved schedules), so speculation halts
        as soon as the fleet has a waiting customer — the same
        minimal-residual-work policy as ``TTSServer.serve_stream``.

        Arrival preemption is deliberately *pool-global*: a session sheds
        speculative work when any later request arrives, even one placed
        on another lane. Per-lane preemption is not expressible here —
        the offsets are installed at service start, when later requests'
        placements have not happened yet — and the global rule is the
        conservative reading of Sec. 4.1.2 (a busy fleet sheds
        speculation); it slightly understates multi-device speedups.

        Bookkeeping is linear in the trace: ``states`` holds only live
        requests (a request retires when its terminal record is written),
        and each lane keeps a run queue of its runnable handles in
        arrival-key order. ``pick`` receives the acting lane's queue as
        is — non-empty, one lane, runnable handles only, no duplicates,
        strictly ascending ``(arrival, seq, replica)`` — see
        :meth:`RequestScheduler.pick`.
        """
        order = sorted(
            range(len(self._queue)), key=lambda i: (self._queue[i].arrival_s, i)
        )
        requests = [self._queue[i] for i in order]
        self._queue = []

        # Min-heap of (arrival, seq, life): initial entries pop in the
        # exact (arrival, submission) order the old deque served, and
        # retried/re-queued requests merge back in at their new times.
        # ``seq`` is unique, so two entries never compare their states.
        pending: list[tuple[float, int, _RequestState]] = [
            (request.arrival_s, seq, _RequestState(request, seq))
            for seq, request in enumerate(requests)
        ]
        heapq.heapify(pending)
        states: dict[int, _RequestState] = {}
        records: dict[int, FleetRequestRecord] = {}
        results: dict[str, ProblemRunResult] = {}
        finish_times: list[float] = []
        lanes = list(self._pool)
        current: dict[int, SessionHandle | None] = {lane.index: None for lane in lanes}
        turn = 0

        # Fault machinery: the injector's keyed timeline, plus a heap of
        # scheduled restorations ((time, tiebreak, kind, lane) — lane
        # recovery after MTTR, link restore, KV-pressure relief).
        injector = (
            FaultInjector(
                self._fault_processes,
                KeyedRng(self._pool[0].server.config.seed).fork("faults"),
                len(lanes),
            )
            if self._fault_processes
            else None
        )
        recoveries: list[tuple[float, int, str, PooledDevice]] = []
        recovery_seq = 0

        # One run queue per lane: the runnable handles of live requests
        # placed there, in ``_arrival_key`` order (the ``pick`` contract).
        # ``place`` enqueues; ``unqueue`` prunes handles that stopped
        # being runnable and retires whole requests.
        runq: dict[int, list[SessionHandle]] = {lane.index: [] for lane in lanes}

        def running_requests() -> int:
            return len(states)

        def acting_lane() -> PooledDevice | None:
            best = None
            for lane in lanes:
                if runq[lane.index] and (
                    best is None or lane.clock.now < best.clock.now
                ):
                    best = lane
            return best

        def unqueue(st: _RequestState, retire: bool = False) -> None:
            """Drop ``st``'s non-runnable handles from their run queues.

            ``retire`` drops every handle and takes the request off the
            live set: it is terminal, re-queued, or about to be re-placed.
            """
            for h in st.handles:
                queue = runq[h.device.index]
                if (retire or not h.runnable) and h in queue:
                    queue.remove(h)
            if retire:
                del states[st.seq]

        def release_claims(
            st: _RequestState, only: PooledDevice | None = None
        ) -> None:
            """Return a request's live-count/planned-KV claims to its lanes.

            Idempotent per lane: ``claim_lanes`` shrinks as shares are
            returned, so a crash releasing the dead lane's share and a
            later settlement releasing the rest never double-count.
            """
            for lane in list(st.claim_lanes):
                if only is not None and lane is not only:
                    continue
                lane.live_requests -= 1
                lane.planned_kv_bytes -= st.claim_bytes.pop(lane.index)
                segs = st.claim_segs.pop(lane.index, None)
                if segs is not None:
                    lane.forget_planned_segments(segs)
                st.claim_lanes.remove(lane)

        def place(
            st: _RequestState, eligible: list[PooledDevice], now: float
        ) -> None:
            """Create a request's sessions and bind them to pool lanes.

            The scheduler picks the primary lane (placement hook) and may
            spread racing replicas across further eligible lanes
            (``replica_lanes``); each replica's session is created on the
            server of the lane it will run on — identical search results
            either way, since every lane shares the pairing and seed.

            ``now`` is the placement instant; handles carry it as their
            effective (re-)arrival so a failover or retry restart never
            begins before the crash that caused it — even on an idle lane
            whose clock lags the fault time. First placements pass the
            arrival itself, so nothing changes without faults.

            A re-placement (escalation, failover) reuses ``st``: its
            handles and primary lane are replaced, and its claims were
            already released, so only the life's accounting and
            ``start_s`` carry over.
            """
            request, seq = st.request, st.seq
            rearrival = max(request.arrival_s, now)
            device = self._scheduler.choose_device(
                request, eligible, self._placement, now
            )
            replica_lanes = self._scheduler.replica_lanes(
                request, device, eligible
            )
            sessions_by_lane = {
                device.index: self._scheduler.sessions_for(device.server, request)
            }
            handles = []
            for replica in range(len(sessions_by_lane[device.index])):
                lane = replica_lanes[replica % len(replica_lanes)]
                if lane.index not in sessions_by_lane:
                    sessions_by_lane[lane.index] = self._scheduler.sessions_for(
                        lane.server, request
                    )
                session = sessions_by_lane[lane.index][replica]
                handles.append(
                    SessionHandle(
                        request_id=request.request_id,
                        arrival_s=rearrival,
                        seq=seq,
                        replica=replica,
                        session=session,
                        binding=ClockBinding(session.clock),
                        device=lane,
                    )
                )
            st.handles = handles
            st.device = device
            # Affinity accounting happens before any claim registration so
            # a request's own planned segments never count as a "hit".
            device.placements += 1
            if device.ledger.segment_granular and device.prefix_affinity_bytes(
                self._planned_claims(device, request.problem)
            ) > 0:
                device.affinity_hits += 1
            seen: set[int] = set()
            for handle in handles:
                if handle.device.index in seen:
                    continue
                seen.add(handle.device.index)
                lane = handle.device
                billed = self._billable_claim(lane, request)
                lane.live_requests += 1
                lane.planned_kv_bytes += billed
                st.claim_lanes.append(lane)
                st.claim_bytes[lane.index] = billed
                if lane.ledger.segment_granular:
                    segs = self._planned_claims(lane, request.problem)
                    lane.note_planned_segments(segs)
                    st.claim_segs[lane.index] = segs
                    lane.planned_admitted_bytes += self._kv_plan(
                        lane, request.algorithm.n
                    )[1]
                    lane.unique_admitted_bytes += billed
            if st.routed_class is None:
                st.routed_class = device.lane_class
            states[seq] = st
            for handle in handles:
                bisect.insort(runq[handle.device.index], handle, key=_arrival_key)

        def next_lane_recovery() -> float | None:
            times = [t for t, _, kind, _ in recoveries if kind == "lane_recover"]
            return min(times) if times else None

        def requeue(st: _RequestState, time_s: float) -> None:
            """Send a request back to admission at ``time_s``.

            It starts afresh: its service start is stamped again when it
            next runs.
            """
            st.start_s = None
            heapq.heappush(
                pending, (max(st.request.arrival_s, time_s), st.seq, st)
            )

        def admit(st: _RequestState, now: float) -> None:
            request = st.request
            reason, eligible = self._admission(
                request, finish_times, running_requests()
            )
            lost = False
            if reason is None:
                healthy = [lane for lane in eligible if lane.serving]
                if not healthy:
                    # Every eligible lane is down. Wait for a scheduled
                    # repair if one exists; otherwise the request is lost
                    # to the outage, not to admission policy.
                    t_rec = next_lane_recovery()
                    if t_rec is not None:
                        requeue(st, t_rec)
                        return
                    reason = "no healthy device lane (pool lanes crashed)"
                    lost = True
            if reason is not None:
                records[st.seq] = st.record(
                    start_s=request.arrival_s,
                    finish_s=request.arrival_s,
                    accepted=False,
                    reject_reason=reason,
                    lost=lost,
                )
            else:
                place(st, self._route(request, healthy, now), now)
            # Either way somebody new showed up: running sessions must stop
            # speculating (round-granular analogue of the arrival offsets).
            for other in states.values():
                if other is st:
                    continue
                for h in other.handles:
                    if h.start_s is not None and h.runnable:
                        h.session.notify_arrival()

        def charge_swap(
            lane: PooledDevice,
            handle: SessionHandle,
            restored: int,
            evicted: list[tuple[str, int]],
        ) -> None:
            """Charge PCIe time for ledger traffic to the session that caused it."""
            dt = sum(
                lane.link.transfer_time(num_bytes) for _, num_bytes in evicted
            )
            if restored:
                dt += lane.link.transfer_time(restored)
            if dt == 0:
                return
            handle.session.charge_kv_swap(dt)
            handle.kv_swap_s += dt
            lane.kv_swap_s += dt

        def charge_restore(lane: PooledDevice, handle: SessionHandle) -> None:
            """Bring a resumed session's evicted KV back; charge the reads."""
            restored, evicted = lane.ledger.restore(handle.session.session_id)
            charge_swap(lane, handle, restored, evicted)

        def service_start(lane: PooledDevice, handle: SessionHandle) -> None:
            """First pick of a handle: stamp service start, install offsets."""
            start = max(lane.clock.now, handle.arrival_s)
            handle.start_s = start
            st = states[handle.seq]
            if st.start_s is None:
                st.start_s = start
            # The next arrival expressed on the session's own clock (t=0
            # at service start); a non-positive offset means someone is
            # already waiting and speculation never starts. Only the
            # earliest later arrival matters and ``requests`` is sorted.
            nxt = handle.seq + 1
            handle.session.set_arrival_offsets(
                (requests[nxt].arrival_s - start,) if nxt < len(requests) else ()
            )

        def capture_first_token(handle: SessionHandle) -> None:
            """Map a session's first-token time onto the fleet timeline."""
            if (
                handle.first_token_s is None
                and handle.session.first_token_s is not None
            ):
                handle.first_token_s = (
                    handle.binding.anchor + handle.session.first_token_s
                )

        def charge_growth(lane: PooledDevice, handle: SessionHandle) -> None:
            """Post-round ledger update; the grower pays for evictions.

            Shared-ledger lanes get the session's segment lineage so
            prefix bytes co-resident sessions share are billed once;
            whole-session lanes get the opaque byte count. Either way a
            ledger can report ``restored`` bytes — KV the owner lost to
            eviction since it last ran that had to come back over PCIe
            before this round — and the grower pays for both directions.
            """
            session = handle.session
            if not session.state.live:
                return  # released in settle()
            if lane.ledger.segment_granular:
                restored, evicted = lane.ledger.charge_growth_segments(
                    session.session_id, session.kv_segments()
                )
            else:
                restored, evicted = lane.ledger.charge_growth(
                    session.session_id, session.resident_kv_bytes
                )
            charge_swap(lane, handle, restored, evicted)

        def escalate(
            st: _RequestState, lane: PooledDevice, targets: list[PooledDevice]
        ) -> None:
            """Abandon a settled cheap attempt and re-place on a bigger class.

            Every session of the attempt is cancelled and its device
            seconds billed as escalated work (the honest cost of trying
            small first); ledger claims are released on their lanes, and
            the request re-enters placement on the escalation targets —
            a full re-prefill through the bigger lane's ledger, exactly
            like a fresh admission. The escalation instant is the
            settling lane's clock, so the restart never predates the
            rejected attempt's finish.
            """
            abandoned = 0.0
            for h in st.handles:
                if h.session.state.live:
                    h.session.cancel()
                abandoned += h.session.clock.now
                (h.device or lane).ledger.release(h.session.session_id)
            st.escalated_work_s += abandoned
            st.escalations += 1
            release_claims(st)
            unqueue(st, retire=True)
            place(st, targets, lane.clock.now)

        def settle(handle: SessionHandle, lane: PooledDevice) -> None:
            st = states[handle.seq]
            siblings = st.handles
            if self._scheduler.race_decided(handle, siblings):
                winner = handle
            elif all(not h.session.state.live for h in siblings):
                # Nobody produced a verified finish: the lowest-replica
                # *finished* sibling stands — the canonical replica when
                # it survived (identical to what FIFO would have served),
                # else the surviving replica a lane crash left behind.
                finished = [
                    h for h in siblings
                    if h.session.state is SessionState.DONE
                ]
                if not finished:
                    unqueue(st)
                    return  # every replica crashed; recovery owns this one
                winner = min(finished, key=lambda h: h.replica)
            else:
                unqueue(st)
                return  # race continues
            if self._router is not None and not self._router.accept(
                st.request, winner
            ):
                # Verifier rejection: ask the router for bigger-class
                # lanes this request could still plan on. With nowhere
                # to escalate (already on the biggest class, or no
                # feasible bigger lane), the attempt commits as-is.
                targets = self._router.escalate_lanes(
                    st.request,
                    (winner.device or lane).model_cost_bytes,
                    self._feasible_lanes(st.request.algorithm.n),
                )
                if targets:
                    escalate(st, lane, targets)
                    return
            cancelled_work = 0.0
            for h in siblings:
                if h is winner:
                    continue
                if h.session.state.live:
                    h.session.cancel()
                cancelled_work += h.session.clock.now
            for h in siblings:
                (h.device or lane).ledger.release(h.session.session_id)
            result = winner.session.outcome.result
            committed = result.tokens.committed
            records[st.seq] = st.record(
                start_s=st.start_s,
                finish_s=lane.clock.now,
                latency=result.latency,
                replicas=len(siblings),
                cancelled_work_s=cancelled_work,
                # Device seconds across every session of the request; the
                # start→finish window also contains other requests' rounds
                # under interleaving schedulers. Work redone after a lane
                # crash (failover/retry restarts) counts, as do abandoned
                # cheaper attempts a cascade escalated past.
                device_time_s=(
                    winner.session.clock.now + cancelled_work
                    + st.redone_work_s + st.escalated_work_s
                ),
                device_id=lane.device_id,
                kv_swap_s=sum(h.kv_swap_s for h in siblings),
                ttft_s=(
                    winner.first_token_s - st.request.arrival_s
                    if winner.first_token_s is not None
                    else None
                ),
                tpot_s=(
                    result.latency.generation / committed
                    if committed > 0
                    else None
                ),
                lane_class=lane.lane_class,
            )
            results[st.request.request_id] = result
            finish_times.append(lane.clock.now)
            release_claims(st)
            unqueue(st, retire=True)
            lane.requests_served += 1

        def drop(st: _RequestState) -> None:
            """Shed a still-queued request whose deadline expired.

            The drop is stamped at the deadline expiry itself (arrival +
            deadline), not at the lane-clock instant the sweep noticed it
            — the record is a pure function of the request, independent
            of how far the lane's clock had jumped past the deadline.
            None of the current placement's sessions ever ran, so there
            is no cancelled work to account; their ledger claims (if any)
            are released like a settled race's losers. Earlier attempts a
            crash voided keep their retries and redone work on the record.
            """
            request = st.request
            lane = st.device
            for h in st.handles:
                if h.session.state.live:
                    h.session.cancel()
                (h.device or lane).ledger.release(h.session.session_id)
            records[st.seq] = st.record(
                start_s=request.arrival_s,
                finish_s=request.arrival_s + request.deadline_s,
                accepted=False,
                dropped=True,
                reject_reason=(
                    f"deadline expired after {request.deadline_s:g}s in queue "
                    f"(late_policy=drop)"
                ),
            )
            release_claims(st)
            unqueue(st, retire=True)

        def drop_expired(lane: PooledDevice) -> bool:
            """Open-loop shedding sweep: drop expired queued work on ``lane``.

            Only requests whose service has not started are candidates —
            once a request holds the device its lateness is the SLO
            metrics' problem, not admission's. Returns True when anything
            was dropped (the caller re-evaluates which lane acts next).
            """
            dropped_any = False
            for st in list(states.values()):
                if st.start_s is not None or st.device is not lane:
                    continue
                if self._scheduler.drop_expired(
                    st.request, lane.clock.now, self._late_policy
                ):
                    drop(st)
                    dropped_any = True
            return dropped_any

        # -- fault handling ----------------------------------------------

        def schedule_recovery(time_s: float, kind: str, lane: PooledDevice) -> None:
            nonlocal recovery_seq
            heapq.heappush(recoveries, (time_s, recovery_seq, kind, lane))
            recovery_seq += 1

        def lose_request(
            st: _RequestState, lane: PooledDevice, now: float, reason: str
        ) -> None:
            """Terminal fault outcome: the request leaves the system unserved."""
            records[st.seq] = st.record(
                start_s=st.request.arrival_s,
                finish_s=max(now, st.request.arrival_s),
                accepted=False,
                lost=True,
                reject_reason=reason,
                device_id=lane.device_id,
            )

        def recover_request(
            st: _RequestState, lane: PooledDevice, now: float
        ) -> None:
            """Apply the recovery policy to a request the crash left session-less.

            All of the request's device seconds so far are charged as
            redone work — the crash voided them — and its sessions and
            claims are torn down before the policy decides the request's
            next attempt: ``shed`` fails fast, ``retry`` re-queues after
            backoff (until the per-request budget runs out), ``failover``
            re-places on a healthy lane immediately (checkpoint-free
            restart).
            """
            st.redone_work_s += sum(h.session.clock.now for h in st.handles)
            release_claims(st)
            unqueue(st, retire=True)
            if self._recovery == "shed":
                lose_request(
                    st, lane, now,
                    f"lane {lane.device_id} crashed (recovery=shed)",
                )
                return
            if self._recovery == "retry":
                try:
                    delay = self._retry_policy.backoff(st.retries + 1)
                except RetryExhaustedError as error:
                    lose_request(
                        st, lane, now, f"lane {lane.device_id} crashed; {error}"
                    )
                    return
                st.retries += 1
                requeue(st, now + delay)
                return
            # failover: restart on any healthy KV-feasible lane right now
            # (honouring the router: the restart lands on its preferred
            # class among the survivors, falling through the class order
            # when the original class died with the lane), or wait for a
            # scheduled repair, or concede the request.
            healthy = self._feasible_lanes(st.request.algorithm.n)
            if healthy:
                st.failed_over = True
                place(st, self._route(st.request, healthy, now), now)
                return
            t_rec = next_lane_recovery()
            if t_rec is not None:
                st.failed_over = True
                requeue(st, t_rec)
                return
            lose_request(
                st, lane, now,
                f"lane {lane.device_id} crashed and no healthy lane remains",
            )

        def on_lane_crash(
            lane: PooledDevice, time_s: float, mttr_s: float | None
        ) -> None:
            """A lane dies: resident KV is gone, its sessions are voided.

            Requests racing replicas on surviving lanes keep running (the
            crash must not fail a request that still has a live replica);
            requests whose only sessions died go to the recovery policy.
            """
            if not lane.serving:
                return  # coincident crash on an already-dead lane
            lane.fail_lane(time_s)
            current[lane.index] = None
            if mttr_s is not None:
                schedule_recovery(time_s + mttr_s, "lane_recover", lane)
            for st in list(states.values()):
                dead = [h for h in st.handles if h.device is lane]
                if not dead:
                    continue
                for h in dead:
                    if h.session.state.live:
                        h.session.cancel()
                release_claims(st, only=lane)
                unqueue(st)
                survivors = [h for h in st.handles if h.device is not lane]
                if any(h.session.state.live for h in survivors):
                    continue  # the race carries on without the dead replica
                done = [
                    h for h in survivors
                    if h.session.state is SessionState.DONE
                ]
                if done:
                    settle(done[0], done[0].device)
                else:
                    recover_request(st, lane, time_s)

        def reanchor_residents(lane: PooledDevice) -> None:
            """Shift resident sessions past a fault that ate lane time.

            A stall or forced eviction advances the lane clock underneath
            its live handles; without re-anchoring, their next ``sync``
            would reconstruct a timeline *before* the fault and trip the
            clock's rewind guard. Rebinding preserves each session's
            accumulated service and resumes it at the post-fault instant.
            """
            for st in states.values():
                for handle in st.handles:
                    if handle.device is lane and handle.session.state.live:
                        handle.binding.rebind(lane.clock)

        def apply_fault_event(event) -> None:
            lane = lanes[event.lane]
            if event.kind == "crash":
                on_lane_crash(lane, event.time_s, event.mttr_s)
                return
            if not lane.serving:
                return  # non-crash faults have nothing to act on when down
            if event.kind == "stall":
                lane.clock.advance_to(max(lane.clock.now, event.time_s))
                lane.stall(event.duration_s)
                reanchor_residents(lane)
            elif event.kind == "link_degrade":
                lane.degrade_link(event.factor)
                if event.duration_s is not None:
                    schedule_recovery(
                        event.time_s + event.duration_s, "link_restore", lane
                    )
            elif event.kind == "kv_pressure":
                evicted = lane.apply_kv_pressure(event.factor)
                dt = sum(
                    lane.link.transfer_time(num_bytes)
                    for _, num_bytes in evicted
                )
                if dt:
                    # The pressure spike's forced write-out is PCIe time on
                    # the lane; victims pay their read-back on next resume.
                    lane.clock.advance(dt)
                    lane.kv_swap_s += dt
                    reanchor_residents(lane)
                if event.duration_s is not None:
                    schedule_recovery(
                        event.time_s + event.duration_s, "kv_relieve", lane
                    )

        def apply_recovery_event(
            kind: str, lane: PooledDevice, time_s: float
        ) -> None:
            if kind == "lane_recover":
                if not lane.serving:
                    lane.recover_lane(time_s)
            elif kind == "link_restore":
                if lane.serving:
                    lane.restore_link()
            elif kind == "kv_relieve":
                if lane.serving:
                    lane.relieve_kv_pressure()

        def next_fault_time() -> float | None:
            times = []
            if injector is not None:
                head = injector.peek()
                if head is not None:
                    times.append(head)
            if recoveries:
                times.append(recoveries[0][0])
            return min(times) if times else None

        def pump_faults(up_to: float) -> None:
            """Apply every fault onset and restoration due by ``up_to``.

            Restorations win time ties so a lane repaired exactly when the
            next fault (or arrival) lands is already serving again.
            """
            while True:
                t_rec = recoveries[0][0] if recoveries else None
                t_ev = injector.peek() if injector is not None else None
                if (
                    t_rec is not None
                    and t_rec <= up_to
                    and (t_ev is None or t_rec <= t_ev)
                ):
                    time_s, _, kind, lane = heapq.heappop(recoveries)
                    apply_recovery_event(kind, lane, time_s)
                    continue
                if t_ev is not None and t_ev <= up_to:
                    for event in injector.pop_due(t_ev):
                        apply_fault_event(event)
                    continue
                return

        while True:
            act = acting_lane()
            t_fault = next_fault_time()
            if t_fault is not None:
                # Pump faults only while a serving horizon exists — a
                # runnable lane or a pending arrival the fault could
                # land before. With neither, the run is over: a
                # rate-based (unbounded) clause must not keep the loop
                # consuming its infinite Poisson stream, so trailing
                # events after the last settlement are never applied.
                horizon = [act.clock.now] if act is not None else []
                if pending:
                    horizon.append(pending[0][0])
                if horizon and t_fault <= min(horizon):
                    pump_faults(t_fault)
                    continue
            if pending and (act is None or pending[0][0] <= act.clock.now):
                # Every lane with work has reached the arrival time (or the
                # pool is idle — early admission: service still begins no
                # sooner than the arrival itself).
                t_queue, _, st = heapq.heappop(pending)
                admit(st, t_queue)
                continue
            if act is None:
                break
            if self._late_policy == "drop" and drop_expired(act):
                continue

            clock = act.clock
            if act.batching == "continuous":
                # Iteration-level admission: every runnable session that
                # has arrived (or already started) joins this iteration's
                # jointly-costed batch; later arrivals join the next one.
                members = [
                    h for h in runq[act.index]
                    if h.start_s is not None or h.arrival_s <= clock.now
                ]
                if members:
                    turn = self._batcher.run_iteration(
                        act,
                        members,
                        turn=turn,
                        on_service_start=service_start,
                        charge_restore=charge_restore,
                        charge_growth=charge_growth,
                        on_done=settle,
                    )
                    # The lane clock sits at the batch horizon, not at any
                    # single member's position: force the next solo step
                    # to rebind (and restore) whichever session it picks.
                    current[act.index] = None
                    continue

            handle = self._scheduler.pick(runq[act.index], clock.now)
            session = handle.session
            if handle.start_s is None:
                service_start(act, handle)
                if handle.start_s > clock.now:
                    clock.advance(handle.start_s - clock.now)  # idle gap
                handle.binding.rebind(clock)
            elif handle is not current[act.index]:
                handle.binding.rebind(clock)
                charge_restore(act, handle)

            if session.state is SessionState.ADMITTED:
                session.step()  # zero-cost setup: plan, caches, workers
            session.step()  # one generation / verification / finalize round
            charge_growth(act, handle)
            capture_first_token(handle)
            handle.binding.sync(clock)
            handle.last_stepped = turn
            turn += 1
            current[act.index] = handle
            if session.state is SessionState.DONE:
                settle(handle, act)

        ordered = tuple(records[seq] for seq in sorted(records))
        return FleetReport(
            records=ordered,
            results=results,
            scheduler=self._scheduler.name,
            placement=self._placement.name,
            devices=DeviceUtilization.rollup(ordered, lanes),
            kv_sharing=(
                "prefix"
                if any(lane.ledger.segment_granular for lane in lanes)
                else "off"
            ),
            batching=(
                "continuous"
                if any(lane.batching == "continuous" for lane in lanes)
                else "off"
            ),
            late_policy=self._late_policy,
            faults=self._faults_label,
            recovery=self._recovery,
            router=self.router,
        )


def run_trace(trace, config: ServerConfig, **options) -> FleetReport:
    """Drive an open-loop :class:`~repro.workloads.trace.Trace` end to end.

    Requests are submitted at their trace timestamps regardless of
    capacity — queues build, deadlines expire, and ``late_policy``
    decides whether expired queued requests are shed (``"drop"``) or
    served anyway (``"serve_late"``). The serving dynamics (step-length
    model, termination) come from the trace's ``base_dataset`` profile;
    each request's *problem* is rebuilt from its own ``(dataset, seed,
    index)`` coordinates, so a serialized trace replays byte-identically
    to the in-memory one that produced it. ``options`` are
    :class:`TTSFleet`'s keyword arguments (scheduler, placement, devices,
    lanes, router, late_policy, faults, ...), forwarded unchanged.
    """
    from repro.search.registry import build_algorithm
    from repro.workloads.datasets import build_dataset
    from repro.workloads.trace import materialize_problems

    problems = materialize_problems(trace)
    server_dataset = build_dataset(trace.base_dataset, seed=trace.seed)
    fleet = TTSFleet(config, server_dataset, **options)
    for request in trace:
        fleet.submit(
            problems[request.request_id],
            build_algorithm(request.algorithm, request.n),
            arrival_s=request.arrival_s,
            deadline_s=request.deadline_s,
            ttft_slo_s=request.ttft_slo_s,
            tenant=request.tenant,
            slo_class=request.slo_class,
        )
    return fleet.drain()
