"""The benchmark's three workloads: inputs from a seed, one unit of work,
and the simulated outcome of that unit.

Every workload has the same four steps:

``prepare(seed)``
    Builds the inputs (problems or an open-loop trace) from the seed.
    This is set-up; nothing here is timed as throughput.
``run(inputs)``
    One *unit*: the public-API call(s) that serve every input once —
    ``TTSServer`` sessions for the closed loop, ``run_trace`` for the
    open loops. A timed run repeats whole units.
``summarize(inputs, output)``
    The simulated outcome and a digest of the per-request records.
    Simulated results are a pure function of the inputs, so two units on
    the same seed must produce the same digest.
``check(inputs, output)``
    The correctness gate: ``(failure messages, failed request count)``.

Problems come from one fixed corpus (the ``amc23`` profile built with
``CORPUS_SEED``), standing in for a fixed benchmark set. The seed decides
which corpus problems a closed-loop caller asks, and for the open loops
the arrival times and which request carries which problem.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
import statistics
from dataclasses import dataclass, field

from repro.core.config import baseline_config, fasttts_config
from repro.core.fleet import run_trace
from repro.core.server import TTSServer
from repro.experiments.reference import pure_search
from repro.routing import parse_lane_list
from repro.search.registry import build_algorithm
from repro.workloads.datasets import build_dataset
from repro.workloads.tenants import TenantSpec, generate_trace
from repro.workloads.trace import Trace

CORPUS_SEED = 1
CORPUS_DATASET = "amc23"


@dataclass
class Summary:
    """What one unit delivered, in simulated terms, and its record digest."""

    submitted: int
    served: int
    sojourn_s: list[float]
    ttft_s: list[float]
    correct: int
    met_deadline: int
    goodput_ud_rps: float
    digest: str
    failed_requests: int = 0
    reports: list = field(default_factory=list)  # FleetReports (open loops)
    results: list = field(default_factory=list)  # ProblemRunResult per served request

    @property
    def unserved(self) -> int:
        return self.submitted - self.served


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``0 < q <= 1``)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_quantile(samples: int) -> float:
    """p90, or lower when fewer than 100 samples, so ten lie beyond it."""
    return min(0.9, 1.0 - 10.0 / samples) if samples > 10 else 0.5


def digest(rows) -> str:
    """SHA-256 over the ``repr`` of every record row (floats exactly)."""
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def corpus(size: int):
    return build_dataset(CORPUS_DATASET, seed=CORPUS_SEED, size=size)


# -- wide_beam: closed loop, one caller ---------------------------------------

class WideBeam:
    """Sequential n=32 beam-search solves on the memory-constrained edge
    setting (1.5B+1.5B, 40% of an RTX 4090): the paper-figure path."""

    name = "wide_beam"
    loop = "closed loop, 1 caller"
    corpus_size = 40
    problems_per_unit = 32
    width = 32

    def prepare(self, seed: int):
        dataset = corpus(self.corpus_size)
        picks = random.Random(f"wide_beam:{seed}").sample(
            range(self.corpus_size), self.problems_per_unit
        )
        return dataset, [dataset.problems[i] for i in picks]

    def run(self, inputs):
        dataset, problems = inputs
        server = TTSServer(fasttts_config(memory_fraction=0.4), dataset)
        solved = []
        for problem in problems:
            session = server.session(problem, build_algorithm("beam_search", self.width))
            solved.append((problem, session.run(), session.first_token_s))
        return solved

    def summarize(self, inputs, output) -> Summary:
        latencies = [outcome.result.latency.total for _, outcome, _ in output]
        correct = sum(outcome.result.top1_correct for _, outcome, _ in output)
        rows = [
            (problem.problem_id, outcome.result.latency.total, first_token,
             outcome.result.top1_correct, signature(outcome.collected))
            for problem, outcome, first_token in output
        ]
        return Summary(
            submitted=len(output),
            served=len(output),
            sojourn_s=latencies,
            ttft_s=[t for _, _, t in output if t is not None],
            correct=correct,
            met_deadline=len(output),  # no deadline: every served solve counts
            goodput_ud_rps=correct / sum(latencies),
            digest=digest(rows),
            results=[outcome.result for _, outcome, _ in output],
        )

    def check(self, inputs, output) -> tuple[list[str], int]:
        """Each solve collects exactly what the serving-free reference does."""
        dataset, _ = inputs
        failures = []
        for problem, outcome, _ in output:
            reference = pure_search(
                problem, dataset, build_algorithm("beam_search", self.width)
            )
            if signature(reference.collected) != signature(outcome.collected):
                failures.append(f"{problem.problem_id}: differs from pure_search")
        return failures, len(failures)


def signature(paths):
    return sorted((p.lineage, p.total_tokens, p.answer) for p in paths)


# -- open-loop workloads --------------------------------------------------------

class OpenLoop:
    """Shared machinery of the trace-driven workloads.

    A unit serves ``replicas`` independent traces, each on a fresh fleet,
    and pools their records. Arrivals come from the repo's own tenant
    generator; with ``paced_rps`` set, the merged stream is re-timed to a
    constant rate with uniform jitter (request ``k`` arrives in
    ``[k, k+1) / paced_rps``), keeping the tenants' interleaving. Each
    tenant's requests carry the problems of ``pools()[tenant]`` in a
    seeded shuffle, every pool problem equally often.
    """

    name = ""
    loop = "open loop"
    corpus_size = 24
    replicas = 1
    paced_rps: float | None = None
    tenants: tuple[str, ...] = ()

    def pools(self) -> dict[str, list[int]]:
        everything = list(range(self.corpus_size))
        return {spec.split(":", 1)[0]: everything for spec in self.tenants}

    def prepare(self, seed: int) -> list[Trace]:
        return [self.trace(f"{seed}.{k}" if self.replicas > 1 else str(seed),
                           seed * self.replicas + k)
                for k in range(self.replicas)]

    def trace(self, label: str, seed: int) -> Trace:
        specs = [TenantSpec.parse(spec) for spec in self.tenants]
        trace = generate_trace(specs, seed=seed, base_dataset=CORPUS_DATASET)
        picks = {}
        for tenant, pool in self.pools().items():
            count = sum(1 for req in trace if req.tenant == tenant)
            order = [pool[k % len(pool)] for k in range(count)]
            random.Random(f"{self.name}:{label}:{tenant}").shuffle(order)
            picks[tenant] = iter(order)
        jitter = random.Random(f"{self.name}:{label}:pace")
        return Trace(
            seed=seed,
            requests=tuple(
                dataclasses.replace(
                    req, dataset_seed=CORPUS_SEED,
                    problem_index=next(picks[req.tenant]),
                    arrival_s=(req.arrival_s if self.paced_rps is None
                               else (k + jitter.random()) / self.paced_rps),
                )
                for k, req in enumerate(trace)
            ),
            base_dataset=CORPUS_DATASET,
        )

    def serve(self, trace: Trace):
        raise NotImplementedError

    def run(self, inputs):
        return [self.serve(trace) for trace in inputs]

    def summarize(self, inputs, output) -> Summary:
        rows, sojourn, ttft, results = [], [], [], []
        correct = met = served = 0
        good = makespan = 0.0
        for k, report in enumerate(output):
            correct_by = {rid: res.top1_correct for rid, res in report.results.items()}
            for r in report.records:
                rows.append((k, r.request_id, r.arrival_s, r.start_s, r.finish_s,
                             r.accepted, r.device_id, r.ttft_s, r.escalations,
                             r.kv_swap_s, correct_by.get(r.request_id)))
                correct += correct_by.get(r.request_id, False)
                met += r.accepted and r.deadline_met is not False
                if r.accepted:
                    served += 1
                    sojourn.append(r.sojourn_s)
                    if r.ttft_s is not None:
                        ttft.append(r.ttft_s)
                    results.append(report.results[r.request_id])
            slo = report.slo_summary()
            good += slo.goodput_ud_rps * slo.makespan_s
            makespan += slo.makespan_s
        return Summary(
            submitted=sum(len(trace) for trace in inputs),
            served=served,
            sojourn_s=sojourn,
            ttft_s=ttft,
            correct=correct,
            met_deadline=met,
            goodput_ud_rps=good / makespan,
            digest=digest(rows),
            reports=list(output),
            results=results,
        )

    def check(self, inputs, output) -> tuple[list[str], int]:
        """One terminal record per request, outcomes add up, times ordered."""
        failures: list[str] = []
        failed = 0
        for k, (trace, report) in enumerate(zip(inputs, output)):
            records = report.records
            ids = [r.request_id for r in records]
            if len(ids) != len(trace) or len(set(ids)) != len(ids):
                failures.append(f"trace {k}: {len(ids)} records "
                                f"({len(set(ids))} distinct) for {len(trace)} requests")
                failed += abs(len(trace) - len(set(ids)))
            accepted = sum(r.accepted for r in records)
            dropped = sum(r.dropped for r in records)
            lost = sum(r.lost for r in records)
            rejected = sum(not (r.accepted or r.dropped or r.lost) for r in records)
            if accepted + rejected + dropped + lost != len(trace):
                failures.append(
                    f"trace {k}: accepted {accepted} + rejected {rejected} + dropped "
                    f"{dropped} + lost {lost} != submitted {len(trace)}")
            bad = [r for r in records if r.accepted and not (
                r.arrival_s <= r.start_s <= r.finish_s and r.request_id in report.results)]
            if bad:
                failures.append(f"trace {k}: {len(bad)} served records out of "
                                "order or without a result")
                failed += len(bad)
        return failures, failed


class OpenLoopFlood(OpenLoop):
    """One baseline lane, n=1 requests arriving about 4x faster than the
    lane serves them: the drain loop's scans dominate."""

    name = "openloop_flood"
    loop = "open loop, 1 lane, ~4x overload"
    tenants = (
        "chat:arrival=poisson,rate=0.6,n=1,deadline=600,ttft=300,requests=300",
        "batch:arrival=bursty,rate=0.3,burst_rate=3.0,on_s=5,off_s=20,n=1,requests=300",
    )

    def serve(self, trace: Trace):
        return run_trace(
            trace, baseline_config(memory_fraction=0.4),
            scheduler="fifo", late_policy="serve_late",
        )


class RoutedSharedPool(OpenLoop):
    """Four heterogeneous lanes under the cascade router with prefix KV
    sharing, continuous batching and prefix-affinity placement; three
    independent 48-request traces per unit, paced at 1 request/s."""

    name = "routed_shared_pool"
    loop = "open loop, 4 lanes, cascade router, 3 traces paced at 1 req/s"
    lanes = "7B+1.5B@rtx4090,7B+1.5B@rtx4090,1.5B+1.5B@rtx4090:int8,1.5B+1.5B@rtx4090:int8"
    replicas = 3
    paced_rps = 1.0
    tenants = (
        "chat:arrival=poisson,rate=0.5,n=8,deadline=60,ttft=10,requests=24",
        "batch:arrival=poisson,rate=0.5,n=8,requests=24",
    )

    def pools(self) -> dict[str, list[int]]:
        # Chat asks the easier half of the corpus, batch all of it: the
        # two streams overlap, so prompt prefixes repeat across tenants.
        problems = corpus(self.corpus_size).problems
        easier = sorted(range(self.corpus_size), key=lambda i: problems[i].difficulty)
        return {"chat": easier[: self.corpus_size // 2],
                "batch": list(range(self.corpus_size))}

    def serve(self, trace: Trace):
        return run_trace(
            trace, fasttts_config(memory_fraction=0.9),
            lanes=parse_lane_list(self.lanes), router="cascade",
            kv_sharing="prefix", batching="continuous",
            placement="prefix_affinity",
        )


WORKLOADS = {w.name: w for w in (WideBeam(), OpenLoopFlood(), RoutedSharedPool())}


def sim_metrics(summary: Summary) -> dict[str, tuple[float, str, int]]:
    """Simulated end-to-end metrics: name -> (value, unit, samples)."""
    n = summary.submitted
    tail_q = tail_quantile(len(summary.sojourn_s))
    return {
        "sim_latency_p50_s": (statistics.median(summary.sojourn_s), "sim_s", len(summary.sojourn_s)),
        "sim_latency_tail_s": (percentile(summary.sojourn_s, tail_q), "sim_s", len(summary.sojourn_s)),
        "sim_ttft_p50_s": (statistics.median(summary.ttft_s), "sim_s", len(summary.ttft_s)),
        "sim_goodput_ud_rps": (summary.goodput_ud_rps, "req/sim_s", n),
        "slo_attainment": (summary.met_deadline / n, "ratio", n),
        "accuracy": (summary.correct / n, "ratio", n),
        "ok_ratio": (1.0 - (summary.unserved + summary.failed_requests) / n, "ratio", n),
    }
