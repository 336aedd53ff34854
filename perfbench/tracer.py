"""Per-layer timing wrappers, installed from outside the program.

``Tracer.install()`` rebinds the public entry points of each layer (class
methods, and ``stable_hash64`` in every module that imported it) to thin
wrappers; ``uninstall()`` puts the originals back. Nothing under ``src/``
changes.

Every wrapper keeps a stack frame, so a layer's *self* time is its
duration minus the time of wrapped calls made inside it. Entry points
become spans (id, layer key, start, end, parent span, session id); the
session id comes from a context variable that the ``SolveSession``
wrappers set. Leaf functions called hundreds of thousands of times only
add to per-key count and time counters. Spans stay in memory until
``write_spans`` at the end of the run.
"""

from __future__ import annotations

import contextvars
import json
import sys
import time
from collections import Counter, defaultdict

_session = contextvars.ContextVar("perfbench_session", default=None)


def _subclasses(cls):
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.quantity: Counter[str] = Counter()
        # Self time of each leaf counter, split by the nearest enclosing
        # span's key: who the hashing, draws and extends worked for.
        self.leaf_by_owner: defaultdict[tuple[str, str | None], float] = defaultdict(float)
        self.spans: list[tuple] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrapper(self, fn, key, span, count, quantity, session, on_result):
        stack, self_s = self.stack, self.self_s
        calls, qty, spans = self.calls, self.quantity, self.spans
        by_owner = self.leaf_by_owner
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if count and (parent is None or parent[0] != key):
                calls[key] += 1
            if quantity is not None:
                qty[key] += quantity(args, kwargs)
            if span:
                span_id, owner = tracer._next_id, key
                tracer._next_id += 1
            elif parent is not None:
                span_id, owner = parent[3], parent[4]
            else:
                span_id, owner = -1, None
            token = _session.set(args[0].session_id) if session else None
            frame = [key, 0.0, 0.0, span_id, owner]
            stack.append(frame)
            start = frame[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                elapsed = end - start
                own = elapsed - frame[2]
                self_s[key] += own
                if not span:
                    by_owner[key, owner] += own
                if parent is not None:
                    parent[2] += elapsed
                if span:
                    spans.append((span_id, key, start, end,
                                  parent[3] if parent is not None else -1,
                                  _session.get()))
                if token is not None:
                    _session.reset(token)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(self, owner, attr, key, *, span=True, count=True, quantity=None,
             session=False, on_result=None) -> None:
        """Rebind ``owner.attr`` (defined on ``owner`` itself) to a wrapper."""
        original = vars(owner)[attr]
        setattr(owner, attr, self._wrapper(
            original, key, span, count, quantity, session, on_result))
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        from repro.core.batcher import RoundBatcher
        from repro.core.fleet import TTSFleet
        from repro.core.generation_round import GenerationRound
        from repro.core.pool import DevicePool, PlacementPolicy
        from repro.core.scheduler import RequestScheduler
        from repro.core.session import SolveSession
        from repro.core.verification_round import VerificationRound
        from repro.hardware.memory import KVLedger
        from repro.hardware.roofline import Roofline
        from repro.kvcache.cache import PagedKVCache
        from repro.llm.generator import SimulatedGenerator
        from repro.routing.router import RoutingPolicy
        from repro.utils import rng

        def evictions(result):
            # Ledger calls return ``(restored, evicted)`` or ``evicted``;
            # a ledger call nested in another reports the same victims.
            if self.stack and self.stack[-1][0].startswith("ledger."):
                return
            evicted = result[1] if isinstance(result, tuple) else result
            self.quantity["ledger.evictions"] += len(evicted)

        self.wrap(TTSFleet, "drain", "fleet.drain")
        for cls in _subclasses(RequestScheduler):
            if "pick" in vars(cls):
                self.wrap(cls, "pick", "scheduler.pick",
                          quantity=lambda a, k: len(a[1]))
        for cls in _subclasses(PlacementPolicy):
            if "choose" in vars(cls):
                self.wrap(cls, "choose", "pool.place")
        self.wrap(DevicePool, "migrate", "pool.migrate")
        for cls in _subclasses(RoutingPolicy):
            for attr in ("route", "accept", "escalate_lanes"):
                if attr in vars(cls):
                    self.wrap(cls, attr, "router", count=attr == "route")
        self.wrap(RoundBatcher, "run_iteration", "batcher.iteration",
                  quantity=lambda a, k: len(a[2]))
        for attr in ("step", "begin_generation_round", "step_verification"):
            self.wrap(SolveSession, attr, "session.step", session=True)
        self.wrap(SolveSession, "finish_generation_round", "session.step",
                  session=True, count=False)
        self.wrap(SolveSession, "kv_segments", "session.kv_segments", session=True)
        self.wrap(GenerationRound, "run", "gen_round",
                  quantity=lambda a, k: len(a[1]))
        self.wrap(VerificationRound, "run", "ver_round")
        self.wrap(PagedKVCache, "extend_segment", "kvcache.extend", span=False)
        for cls in _subclasses(KVLedger):
            for attr, key in (("charge_growth", "ledger.growth"),
                              ("charge_growth_segments", "ledger.growth"),
                              ("restore", "ledger.restore"),
                              ("admit", "ledger.admit"),
                              ("admit_segments", "ledger.admit"),
                              ("release", "ledger.release")):
                if attr in vars(cls):
                    hook = evictions if key != "ledger.release" else None
                    self.wrap(cls, attr, key, on_result=hook)
        self.wrap(Roofline, "point", "roofline", span=False)
        self.wrap(Roofline, "batched_point", "roofline", span=False)
        self.wrap(rng.KeyedRng, "stream", "rng.draw", span=False)
        self.wrap(SimulatedGenerator, "plan_step", "llm.plan", span=False)

        original = rng.stable_hash64
        hashed = self._wrapper(original, "rng.hash", False, True, None, False, None)
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if name.split(".")[0] == "repro" and getattr(module, "stable_hash64", None) is original:
                module.stable_hash64 = hashed
                self._patched.append((module, "stable_hash64", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output -------------------------------------------------------------

    def charged_to_callers(self) -> dict[str, float]:
        """Self time with every leaf counter's time moved to its owner span."""
        charged = dict(self.self_s)
        for (leaf, owner), seconds in self.leaf_by_owner.items():
            if owner is not None:
                charged[leaf] -= seconds
                charged[owner] = charged.get(owner, 0.0) + seconds
        return charged

    def covered_s(self) -> float:
        """Time some wrapped layer accounts for (the sum of self times)."""
        return sum(self.self_s.values())

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
