"""Session-scoped id memos: same ids as the stateless helpers, hashed once.

``SolveSession`` memoizes its segment ids by lineage prefix and its
lane-tree node ids by ``_lane_node_id``'s arguments. Two checks:

* equivalence — over full solves, every ``kv_segments()`` claim and every
  generation/verification job's segment ids equal what the unmemoized
  helpers (``path_segments``, ``step_segment_id``, ``_lane_node_id``)
  compute, for a canonical session, a forked-RNG (namespaced) replica and
  a ``prefix_caching``-off session;
* a wall-clock-free guard — on a small ``kv_sharing="prefix"`` fleet run,
  id hashes per distinct id stay near one per session.
"""

from collections import Counter

import pytest

import repro.core.session as session_mod
import repro.search.tree as tree_mod
from repro.core.config import baseline_config, fasttts_config
from repro.core.fleet import TTSFleet
from repro.core.generation_round import GenerationRound
from repro.core.server import TTSServer
from repro.core.session import _lane_node_id, path_segments
from repro.core.verification_round import VerificationRound
from repro.hardware.memory import KVSegment
from repro.search.registry import build_algorithm
from repro.search.tree import step_segment_id
from repro.utils.rng import stable_hash64
from repro.workloads.datasets import build_dataset

SEED = 3
ID_TAGS = ("lane-kv", "segment", "private-prompt", "private-segment")


def reference_kv_segments(session):
    """``kv_segments()`` recomputed with no memo: one hash per lookup."""
    if session._gen_cache is None:
        return ()
    server = session.server
    views = [
        ("gen", session._gen_cache, server.gen_model.kv_bytes_per_token),
        ("ver", session._ver_cache, server.ver_model.kv_bytes_per_token),
    ]
    if session._plan.offload:
        views = [views[0] if session._active_model == "generator" else views[1]]
    namespace = session.kv_namespace
    claims = []
    for tag, cache, bytes_per_token in views:
        tree = cache.tree
        for state in cache.resident_segments():
            node = tree.get(state.segment_id)
            parent_id = None
            if node.parent_id is not None:
                grandparent = tree.get(node.parent_id).parent_id
                parent_id = _lane_node_id(
                    tag, namespace, node.parent_id, grandparent is None
                )
            claims.append(KVSegment(
                _lane_node_id(tag, namespace, state.segment_id, node.parent_id is None),
                parent_id,
                state.token_len * bytes_per_token,
            ))
    return tuple(claims)


def check_gen_job(config, problem, job):
    steps_done = len(job.lineage) - 1
    assert job.path_segments == path_segments(
        config, problem, job.lineage, steps_done
    )
    if config.prefix_caching:
        expected = step_segment_id(problem, job.lineage, steps_done)
    else:
        expected = stable_hash64(
            "private-segment", problem.problem_id, job.lineage, steps_done
        )
    assert job.new_segment == expected


def check_verify_job(config, problem, job):
    segments = path_segments(config, problem, job.lineage, job.step_idx + 1)
    assert job.path_segments == segments[:-1]
    assert job.new_segment == segments[-1]
    if job.lookahead_child is not None:
        assert job.lookahead_segment == step_segment_id(
            problem, job.lookahead_child, job.step_idx + 1
        )


@pytest.mark.parametrize(
    "system, algorithm_name, forked",
    [
        ("fasttts", "beam_search", False),
        ("fasttts", "beam_search", True),
        ("fasttts", "best_of_n", False),
        ("baseline", "beam_search", False),
        ("baseline", "best_of_n", True),
    ],
)
def test_memoized_ids_match_unmemoized_helpers(
    monkeypatch, system, algorithm_name, forked
):
    dataset = build_dataset("amc23", seed=SEED, size=1)
    factory = fasttts_config if system == "fasttts" else baseline_config
    server = TTSServer(factory(memory_fraction=0.4, seed=SEED), dataset)
    problem = list(dataset)[0]
    rng = server.rng.fork("replica", 1) if forked else None
    session = server.session(
        problem, build_algorithm(algorithm_name, 8), rng=rng,
        session_id="replica-1" if forked else None,
    )
    assert (session.kv_namespace is not None) == forked

    jobs = {"gen": [], "verify": []}
    claims_checked = 0
    gen_run, verify_run = GenerationRound.run, VerificationRound.run

    def check_claims():
        # Also mid-step, right after a round: without prefix caching the
        # caches are emptied before the step returns.
        nonlocal claims_checked
        claims = session.kv_segments()
        assert claims == reference_kv_segments(session)
        claims_checked += len(claims)

    def record_gen(self, round_jobs, *args, **kwargs):
        jobs["gen"].extend(round_jobs)
        result = gen_run(self, round_jobs, *args, **kwargs)
        check_claims()
        return result

    def record_verify(self, prob, round_jobs, *args, **kwargs):
        jobs["verify"].extend(round_jobs)
        result = verify_run(self, prob, round_jobs, *args, **kwargs)
        check_claims()
        return result

    monkeypatch.setattr(GenerationRound, "run", record_gen)
    monkeypatch.setattr(VerificationRound, "run", record_verify)

    while session.state.live:
        session.step()
        check_claims()
    assert claims_checked > 0

    config = server.config
    assert jobs["gen"] and jobs["verify"]
    for job in jobs["gen"]:
        check_gen_job(config, problem, job)
    for job in jobs["verify"]:
        check_verify_job(config, problem, job)


def test_id_hashes_per_distinct_id_stay_bounded(monkeypatch):
    """Two co-resident same-problem sessions on one prefix-sharing lane.

    Each session hashes a segment or lane-node id once, so calls per
    distinct id stay at most 2 (1.70 here). Rehashing every id on every
    ``kv_segments()`` and job build made 23.5 calls per distinct id on
    this run (15,567 calls for 662 ids).
    """
    calls = Counter()
    for module in (session_mod, tree_mod):
        original = module.stable_hash64

        def counted(*parts, _original=original):
            if parts[0] in ID_TAGS:
                calls[parts] += 1
            return _original(*parts)

        monkeypatch.setattr(module, "stable_hash64", counted)

    dataset = build_dataset("amc23", seed=0, size=2)
    fleet = TTSFleet(
        fasttts_config(memory_fraction=0.34, seed=0), dataset,
        scheduler="round_robin", kv_sharing="prefix",
    )
    problem = list(dataset)[0]
    fleet.submit(problem, build_algorithm("beam_search", 16), 0.0)
    fleet.submit(problem, build_algorithm("beam_search", 16), 1.0)
    fleet.drain()

    assert len(calls) > 100
    assert sum(calls.values()) <= 2 * len(calls)
