"""The drain loop's per-lane run queues: the ``pick`` contract and scaling.

``TTSFleet.drain`` hands every scheduler ``pick`` the acting lane's run
queue. A checking wrapper asserts the contract on every call across the
policy matrix (schedulers × faults × recovery × late policy, plus a
cascade router that escalates); each run must also leave exactly one
terminal record per request. The scaling guard counts
``SessionHandle.runnable`` evaluations — deterministic, no wall clock —
so a return of the per-step full-history scans fails loudly.
"""

import itertools

import pytest

from repro.core.config import baseline_config
from repro.core.fleet import TTSFleet, generate_arrivals, run_trace
from repro.core.scheduler import (
    FirstFinishScheduler,
    RequestScheduler,
    SessionHandle,
    _arrival_key,
    build_scheduler,
)
from repro.engine.clock import ClockBinding
from repro.routing import parse_lane_list
from repro.search.registry import build_algorithm
from repro.workloads.datasets import build_dataset
from repro.workloads.tenants import TenantSpec, generate_trace


class ContractCheckingScheduler(RequestScheduler):
    """Delegates to ``inner``; asserts the run-queue contract on each pick."""

    def __init__(self, inner: RequestScheduler) -> None:
        self.inner = inner
        self.name = inner.name
        self.picks = 0

    def choose_device(self, request, devices, placement, now):
        return self.inner.choose_device(request, devices, placement, now)

    def replica_lanes(self, request, chosen, devices):
        return self.inner.replica_lanes(request, chosen, devices)

    def sessions_for(self, server, request):
        return self.inner.sessions_for(server, request)

    def drop_expired(self, request, now, late_policy):
        return self.inner.drop_expired(request, now, late_policy)

    def race_decided(self, finished, siblings):
        return self.inner.race_decided(finished, siblings)

    def pick(self, runnable, now):
        self.picks += 1
        assert len(runnable) > 0
        assert all(h.runnable for h in runnable)
        assert len({h.device.index for h in runnable}) == 1
        assert len({id(h) for h in runnable}) == len(runnable)
        keys = [_arrival_key(h) for h in runnable]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        choice = self.inner.pick(runnable, now)
        assert any(choice is h for h in runnable)
        return choice


def assert_one_terminal_record(report, submitted: int) -> None:
    ids = [record.request_id for record in report.records]
    assert len(ids) == submitted == len(set(ids))
    served = {r.request_id for r in report.records if r.accepted}
    assert served == set(report.results)


def checked(name: str) -> ContractCheckingScheduler:
    inner = (
        FirstFinishScheduler(replicas=2)
        if name == "first_finish"
        else build_scheduler(name)
    )
    return ContractCheckingScheduler(inner)


def drain_checked(scheduler, faults, recovery, late_policy, *, requests=6,
                  rate=0.2, deadline_s=40.0):
    """Two rtx4090 lanes; first_finish spreads its replicas across both."""
    dataset = build_dataset("amc23", seed=0, size=requests)
    policy = checked(scheduler)
    fleet = TTSFleet(
        baseline_config(memory_fraction=0.4, seed=0), dataset,
        scheduler=policy, devices=["rtx4090"] * 2,
        faults=faults, recovery=recovery, late_policy=late_policy,
    )
    arrivals = generate_arrivals(requests, rate, seed=0)
    for problem, arrival in zip(dataset, arrivals):
        fleet.submit(
            problem, build_algorithm("beam_search", 4),
            arrival_s=arrival, deadline_s=deadline_s,
        )
    report = fleet.drain()
    assert policy.picks > 0
    assert_one_terminal_record(report, requests)
    return report


MATRIX = [
    (scheduler, faults, recovery, late_policy)
    for scheduler, faults, late_policy in itertools.product(
        ["fifo", "round_robin", "sjf", "first_finish"],
        ["off", "crash:at=15,lane=0,mttr=60"],
        ["serve_late", "drop"],
    )
    for recovery in (
        ["failover"] if faults == "off" else ["failover", "retry", "shed"]
    )
]


class TestPickContract:
    @pytest.mark.parametrize("scheduler,faults,recovery,late_policy", MATRIX)
    def test_contract_holds_on_every_pick(
        self, scheduler, faults, recovery, late_policy
    ):
        report = drain_checked(scheduler, faults, recovery, late_policy)
        if faults != "off":
            assert report.metrics.lane_failures == 1

    def test_racing_primary_replica_crash_under_drop(self):
        """A crash kills a racing request's primary-lane replica while its
        sibling lives on; the lane repairs fast and the drop sweep still
        runs, so the queues must shed the dead replica and keep the rest."""
        report = drain_checked(
            "first_finish", "crash:at=20,lane=0,mttr=5", "failover", "drop",
            requests=12, rate=0.5, deadline_s=20.0,
        )
        assert any(record.dropped for record in report.records)

    def test_cascade_escalations(self):
        size = 10
        dataset = build_dataset("amc23", seed=0, size=size)
        policy = checked("fifo")
        fleet = TTSFleet(
            baseline_config(memory_fraction=0.9, seed=0), dataset,
            lanes=parse_lane_list("7B+1.5B@rtx4090,1.5B+1.5B@rtx4090:int8"),
            router="cascade", placement="least_loaded", scheduler=policy,
        )
        fleet.submit_stream(
            list(dataset), build_algorithm("beam_search", 4),
            generate_arrivals(size, 0.05, seed=0),
        )
        report = fleet.drain()
        assert report.metrics.escalations > 0
        assert_one_terminal_record(report, size)


class TestHandleIdentity:
    def test_equal_fields_are_distinct_handles(self):
        dataset = build_dataset("amc23", seed=0, size=1)
        server = TTSFleet(
            baseline_config(memory_fraction=0.4, seed=0), dataset
        ).server
        session = server.session(
            list(dataset)[0], build_algorithm("beam_search", 4)
        )
        binding = ClockBinding(session.clock)
        first, twin = (
            SessionHandle(
                request_id="req-0000", arrival_s=0.0, seq=0, replica=0,
                session=session, binding=binding,
            )
            for _ in range(2)
        )
        queue = [first, twin]
        queue.remove(twin)
        assert len(queue) == 1 and queue[0] is first


def count_runnable_checks(monkeypatch, requests: int) -> int:
    """``SessionHandle.runnable`` evaluations over a one-lane fifo flood.

    The tenants are the open-loop flood's (poisson chat plus bursty
    batch at about four times one baseline lane's capacity), scaled to
    ``requests`` in total.
    """
    half = requests // 2
    specs = [
        TenantSpec.parse(
            f"chat:arrival=poisson,rate=0.6,n=1,deadline=600,ttft=300,"
            f"requests={half}"
        ),
        TenantSpec.parse(
            f"batch:arrival=bursty,rate=0.3,burst_rate=3.0,on_s=5,off_s=20,"
            f"n=1,requests={requests - half}"
        ),
    ]
    trace = generate_trace(specs, seed=1)
    calls = 0
    original = SessionHandle.runnable.fget

    def counting(handle):
        nonlocal calls
        calls += 1
        return original(handle)

    with monkeypatch.context() as patch:
        patch.setattr(SessionHandle, "runnable", property(counting))
        report = run_trace(
            trace, baseline_config(memory_fraction=0.4),
            scheduler="fifo", late_policy="serve_late",
        )
    assert report.metrics.completed == requests
    return calls


class TestScalingGuard:
    def test_runnable_checks_grow_linearly(self, monkeypatch):
        small = count_runnable_checks(monkeypatch, 150)
        large = count_runnable_checks(monkeypatch, 600)
        # Linear bookkeeping gives ~4x for 4x the requests; the
        # full-history scans this replaced gave ~15x.
        assert large <= 5 * small
