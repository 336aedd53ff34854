"""GPU memory ledgers.

:class:`MemoryLedger` tracks how a device's usable VRAM is split between
model weights, per-model KV cache partitions, and the reserved slice
(Fig. 9 of the paper). The asymmetric allocator (Sec. 4.3) decides the KV
split; this ledger enforces that the decision is feasible and answers "how
much KV memory is left?".

:class:`KVLedger` tracks the *runtime* KV footprints of the sessions
co-resident on one device of a :class:`~repro.core.pool.DevicePool`. A
single session's plan is guaranteed to fit the device's KV budget by
admission control, but interleaving schedulers pause sessions with their
KV still resident — two KV-heavy sessions can together oversubscribe the
device. The ledger models that contention with whole-session granularity:
when the active session's growth (or a paused session's restore) does not
fit, the least-recently-run co-resident sessions are swapped out to host
memory, and the fleet charges the PCIe write/read time on the device
clock. Eviction is bookkeeping here; *time* is charged by the caller via
:class:`~repro.hardware.offload.OffloadLink`.

:class:`SharedKVLedger` refines that accounting to *segment* granularity
against a per-lane :class:`~repro.kvcache.radix.RadixTree` (the paper's
Sec. 4.2 structure, lifted from one request's beams to the whole lane).
Sessions report their beams' KV as segment lineages
(:class:`KVSegment` claims); a segment resident on behalf of N sessions
is charged once and refcounted, eviction picks LRU leaf-frontier
segments that no *running* session's path needs, and restore charges
PCIe only for the unique bytes actually swapped. This is what makes
replica racing (First Finish Search) and multi-tenant lanes cheaper
than run-to-completion instead of merely differently scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import CapacityError
from repro.hardware.device import DeviceSpec
from repro.kvcache.radix import RadixTree
from repro.utils.rng import stable_hash64

__all__ = [
    "KVLedger",
    "KVSegment",
    "MemoryLedger",
    "MemoryReservation",
    "SharedKVLedger",
]


@dataclass(frozen=True, slots=True)
class MemoryReservation:
    """One named allocation inside the ledger."""

    owner: str
    kind: str  # "weights" | "kv"
    num_bytes: int


@dataclass
class MemoryLedger:
    """Accounting of VRAM across weights and KV partitions.

    The ledger is intentionally strict: over-allocation raises
    :class:`~repro.errors.CapacityError` instead of silently clamping,
    because a real serving system would fail to initialize in the same
    situation.
    """

    device: DeviceSpec
    _reservations: dict[tuple[str, str], MemoryReservation] = field(default_factory=dict)

    @property
    def capacity_bytes(self) -> int:
        """Usable VRAM (device capacity minus the reserved fraction)."""
        return self.device.usable_bytes

    @property
    def allocated_bytes(self) -> int:
        return sum(r.num_bytes for r in self._reservations.values())

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.allocated_bytes

    def reserve(self, owner: str, kind: str, num_bytes: int) -> MemoryReservation:
        """Reserve ``num_bytes`` for ``(owner, kind)``.

        Re-reserving the same key replaces the prior amount (the allocator
        re-partitions KV at runtime when system state changes, Sec. 4.3.1).
        """
        if kind not in ("weights", "kv"):
            raise ValueError("kind must be 'weights' or 'kv'")
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        key = (owner, kind)
        previous = self._reservations.get(key)
        available = self.free_bytes + (previous.num_bytes if previous else 0)
        if num_bytes > available:
            raise CapacityError(
                f"cannot reserve {num_bytes} bytes for {owner}/{kind}: "
                f"only {available} of {self.capacity_bytes} bytes available"
            )
        reservation = MemoryReservation(owner=owner, kind=kind, num_bytes=num_bytes)
        self._reservations[key] = reservation
        return reservation

    def release(self, owner: str, kind: str) -> None:
        """Drop a reservation; releasing a missing key is an error."""
        try:
            del self._reservations[(owner, kind)]
        except KeyError:
            raise CapacityError(f"no reservation for {owner}/{kind}") from None

    def reserved_for(self, owner: str, kind: str) -> int:
        """Bytes currently reserved under ``(owner, kind)`` (0 if none)."""
        reservation = self._reservations.get((owner, kind))
        return reservation.num_bytes if reservation else 0

    def breakdown(self) -> dict[str, int]:
        """Human-readable split: ``{"owner/kind": bytes, ..., "free": bytes}``."""
        result = {f"{o}/{k}": r.num_bytes for (o, k), r in sorted(self._reservations.items())}
        result["free"] = self.free_bytes
        return result


class KVLedger:
    """Runtime accounting of co-resident sessions' KV on one device.

    Each owner (a session id) has a device-resident byte count and a
    host-swapped byte count. The invariants the fleet relies on:

    * an owner's KV is fully device-resident while it runs (the fleet
      calls :meth:`restore` before resuming a paused owner);
    * when total residency would exceed capacity, *other* owners are
      evicted in least-recently-run order (whole-owner granularity — the
      simulation does not split one session's KV across device and host
      mid-run, matching the offload strategy's all-or-nothing transfers);
    * eviction never raises: a lone owner whose plan legitimately fills
      the budget simply occupies it. Oversubscription therefore costs
      swap *time* (charged by the caller from the returned byte counts),
      never correctness.

    All byte movements are tallied (``swapped_out_bytes`` /
    ``swapped_in_bytes`` / ``peak_resident_bytes``) for the per-device
    fleet metrics rollup.
    """

    #: Whether this ledger accounts segment lineages (``charge_growth_segments``)
    #: rather than opaque per-owner byte blobs. The fleet dispatches on it.
    segment_granular = False

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self._capacity = int(capacity_bytes)
        self._resident: dict[str, int] = {}
        self._swapped: dict[str, int] = {}
        self._stamp: dict[str, int] = {}
        self._tick = 0
        self.swapped_out_bytes = 0
        self.swapped_in_bytes = 0
        self.peak_resident_bytes = 0

    # -- introspection ---------------------------------------------------

    @property
    def shared_bytes(self) -> int:
        """Bytes saved right now by cross-session sharing (0 without it)."""
        return 0

    @property
    def peak_shared_bytes(self) -> int:
        """Running peak of :attr:`shared_bytes` (0 without sharing)."""
        return 0

    @property
    def logical_resident_bytes(self) -> int:
        """Sum of every owner's logical footprint (= resident, no sharing)."""
        return self.resident_bytes

    @property
    def peak_logical_bytes(self) -> int:
        """Running peak of :attr:`logical_resident_bytes` (= resident peak)."""
        return self.peak_resident_bytes

    @property
    def dedup_ratio(self) -> float:
        """Logical over physical resident bytes (1.0 without sharing)."""
        return 1.0

    @property
    def capacity_bytes(self) -> int:
        return self._capacity

    @property
    def resident_bytes(self) -> int:
        return sum(self._resident.values())

    @property
    def free_bytes(self) -> int:
        return self._capacity - self.resident_bytes

    @property
    def owners(self) -> list[str]:
        return sorted(self._resident)

    def resident_of(self, owner: str) -> int:
        return self._resident.get(owner, 0)

    def swapped_of(self, owner: str) -> int:
        return self._swapped.get(owner, 0)

    # -- planned-overlap probes (read-only) ------------------------------
    #
    # Sharing-aware placement and dedup-aware admission ask a lane "how
    # much of this request's planned KV do you already hold?" *before*
    # any session exists. A whole-session ledger cannot see segments, so
    # every probe reports zero overlap and the callers degrade to the
    # pre-sharing full-footprint behaviour.

    def resident_segment_bytes(self, node_id: int) -> int:
        """Resident device bytes of one lane-tree segment (0 without sharing)."""
        return 0

    def resident_overlap_bytes(self, claims: "Iterable[KVSegment]") -> int:
        """Bytes of ``claims`` already resident on this lane (0 without sharing).

        The guaranteed overlap: only the claims' own segments count, so
        the result is safe to *bill against* — a new session registering
        these claims will physically share at least this much.
        """
        return 0

    def resident_subtree_bytes(self, node_id: int) -> int:
        """Resident bytes at or below ``node_id`` in the lane tree (0 here)."""
        return 0

    def unique_planned_bytes(
        self, planned_bytes: int, claims: "Iterable[KVSegment]"
    ) -> int:
        """A request's planned footprint minus what this lane already holds.

        Dedup-aware admission bills this instead of ``planned_bytes``:
        segments of ``claims`` resident on the lane are shared, not
        duplicated, so only the remainder competes for ledger headroom.
        Identity (full footprint) on a whole-session ledger.
        """
        if planned_bytes < 0:
            raise ValueError("planned_bytes must be non-negative")
        return max(0, planned_bytes - self.resident_overlap_bytes(claims))

    # -- mutation --------------------------------------------------------

    def _touch(self, owner: str) -> None:
        self._tick += 1
        self._stamp[owner] = self._tick
        self._resident.setdefault(owner, 0)
        self._swapped.setdefault(owner, 0)

    def _evict_for(self, need: int, keep: str) -> list[tuple[str, int]]:
        """Swap out other owners (LRU first) until ``need`` bytes are free.

        Returns ``(owner, bytes)`` per eviction so the caller can charge
        the PCIe writes. Stops when the deficit is covered or no victims
        remain (the latter only when ``keep`` alone fills the budget).
        """
        evicted: list[tuple[str, int]] = []
        if need <= 0:
            return evicted
        victims = sorted(
            (o for o, b in self._resident.items() if o != keep and b > 0),
            key=lambda o: (self._stamp.get(o, 0), o),
        )
        freed = 0
        for victim in victims:
            if freed >= need:
                break
            moved = self._resident[victim]
            self._resident[victim] = 0
            self._swapped[victim] += moved
            self.swapped_out_bytes += moved
            freed += moved
            evicted.append((victim, moved))
        return evicted

    def charge_growth(
        self, owner: str, total_bytes: int
    ) -> tuple[int, list[tuple[str, int]]]:
        """Record ``owner``'s post-round KV footprint as device-resident.

        Called after every round the owner runs (its KV is fully resident
        while it executes). Returns ``(restored_bytes, evictions)``: if the
        owner had been (partially) swapped out since it last ran, growth
        implies its KV came back first, so the swapped bytes are charged as
        swapped-in — the caller bills the PCIe read exactly as it would for
        an explicit :meth:`restore` — and the evictions needed to make room
        are billed to the *running* session displacing its neighbours.
        """
        if total_bytes < 0:
            raise ValueError("total_bytes must be non-negative")
        self._touch(owner)
        restored = self._swapped[owner]
        if restored:
            # Growth on an evicted owner: its host-side KV must be read
            # back before it can grow. Route through restore accounting
            # instead of silently zeroing the swapped bytes.
            self.swapped_in_bytes += restored
        self._resident[owner] = total_bytes
        self._swapped[owner] = 0
        evicted = self._evict_for(self.resident_bytes - self._capacity, keep=owner)
        self.peak_resident_bytes = max(self.peak_resident_bytes, self.resident_bytes)
        return restored, evicted

    def restore(self, owner: str) -> tuple[int, list[tuple[str, int]]]:
        """Bring ``owner``'s swapped-out KV back before it resumes.

        Returns ``(restored_bytes, evictions)``; both are zero/empty when
        the owner was never evicted, so run-to-completion schedules pass
        through without any accounting (or cost).
        """
        back = self._swapped.get(owner, 0)
        if back == 0:
            return 0, []
        self._touch(owner)
        evicted = self._evict_for(back - self.free_bytes, keep=owner)
        self._swapped[owner] = 0
        self._resident[owner] += back
        self.swapped_in_bytes += back
        self.peak_resident_bytes = max(self.peak_resident_bytes, self.resident_bytes)
        return back, evicted

    def admit(self, owner: str, num_bytes: int) -> list[tuple[str, int]]:
        """Place ``num_bytes`` of migrated-in KV; evicts others to fit.

        Raises :class:`~repro.errors.CapacityError` when the incoming
        footprint exceeds the whole budget (the migration must be refused
        before any cost is charged).
        """
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if num_bytes > self._capacity:
            raise CapacityError(
                f"cannot admit {num_bytes} B of KV for {owner!r}: device KV "
                f"budget is {self._capacity} B"
            )
        self._touch(owner)
        self._resident[owner] = num_bytes
        self._swapped[owner] = 0
        evicted = self._evict_for(self.resident_bytes - self._capacity, keep=owner)
        self.peak_resident_bytes = max(self.peak_resident_bytes, self.resident_bytes)
        return evicted

    def release(self, owner: str) -> int:
        """Drop an owner entirely (finished or migrated away); returns freed device bytes."""
        self._swapped.pop(owner, None)
        self._stamp.pop(owner, None)
        return self._resident.pop(owner, 0)

    def resize(self, capacity_bytes: int) -> list[tuple[str, int]]:
        """Change the budget at runtime; shrinking evicts LRU owners to fit.

        Models a KV pressure spike (a co-tenant claiming VRAM): residents
        above the new budget are swapped out immediately — the returned
        ``(owner, bytes)`` evictions are the storm the caller charges —
        and pay restores through the ordinary resume path. Growing the
        budget evicts nothing.
        """
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self._capacity = int(capacity_bytes)
        return self._evict_for(self.resident_bytes - self._capacity, keep="")


@dataclass(frozen=True, slots=True)
class KVSegment:
    """One segment claim a session reports to a :class:`SharedKVLedger`.

    ``node_id``/``parent_id`` are lane-tree node ids (derived by the
    session from the stable ``(problem, lineage, step)`` segment hashes,
    namespaced so only sessions whose sampled content is actually
    identical collide); ``num_bytes`` is this owner's KV bytes for the
    segment. Claims arrive parent-before-child.
    """

    node_id: int
    parent_id: int | None
    num_bytes: int

    def __post_init__(self) -> None:
        if self.num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")


@dataclass(slots=True)
class _SharedSegment:
    """Ledger-side state of one lane-tree segment."""

    node_id: int
    resident: bool = False
    swapped: bool = False  # evicted to host (vs never materialized / freed)
    stamp: int = 0
    owners: dict[str, int] = field(default_factory=dict)  # owner -> bytes

    @property
    def num_bytes(self) -> int:
        """Unique device bytes this segment occupies when resident.

        Owners can disagree on length (a shared step one session has
        fully decoded while another still holds a truncated speculative
        head); the physical copy covers the longest claim.
        """
        return max(self.owners.values(), default=0)


class SharedKVLedger(KVLedger):
    """Segment-granular KV accounting with cross-session prefix sharing.

    Drop-in for :class:`KVLedger` on a pool lane, with one difference the
    fleet dispatches on (:attr:`segment_granular`): the running session
    reports its resident KV as a lineage of :class:`KVSegment` claims
    (:meth:`charge_growth_segments`) instead of one opaque byte count.
    The ledger keeps a per-lane :class:`~repro.kvcache.radix.RadixTree`
    over those claims; a segment resident on behalf of N sessions holds
    device bytes **once** and carries a refcount. Invariants:

    * ``resident_bytes`` is the sum of *unique* resident segment bytes —
      never double-billed across co-resident owners;
    * eviction operates on segments: LRU by last touch across owning
      sessions, leaf-frontier first (a prefix never leaves before its
      suffix), and never a segment the *running* session's paths need;
    * :meth:`restore` re-charges PCIe only for the unique bytes actually
      swapped out — segments a co-resident session kept alive come back
      for free, which is exactly the replica-racing dedup win;
    * an owner's logical footprint (``resident_of + swapped_of``) is
      conserved regardless of how much of it is physically shared;
    * ``resident_bytes``, ``logical_resident_bytes`` and ``shared_bytes``
      are running totals, equal at all times to a scan of the resident
      segments: every mutation of a segment's owners or residency first
      subtracts its old contribution (``max`` of its owners' bytes
      physical, their ``sum`` logical) and then adds its new one, so a
      growth charge costs what the charge changed, not what is resident.

    The byte-level API (:meth:`charge_growth` / :meth:`admit`) still
    works — the footprint is held as a single private root segment until
    the next segment report replaces it — so migration and byte-only
    callers need no special casing.
    """

    segment_granular = True

    def __init__(self, capacity_bytes: int) -> None:
        super().__init__(capacity_bytes)
        self._lane_tree = RadixTree()
        self._segments: dict[int, _SharedSegment] = {}
        self._owner_segs: dict[str, set[int]] = {}
        self._resident_total = 0
        self._logical_total = 0
        self._peak_shared = 0
        self._peak_logical = 0

    # -- introspection ---------------------------------------------------

    @property
    def tree(self) -> RadixTree:
        """The lane's radix tree over registered segments."""
        return self._lane_tree

    @property
    def resident_bytes(self) -> int:
        return self._resident_total

    @property
    def owners(self) -> list[str]:
        return sorted(self._owner_segs)

    @property
    def shared_bytes(self) -> int:
        # Bytes saved versus whole-session accounting: every owner's
        # logical claim minus the single physical copy (sized by the
        # longest claim). A lone owner's claim is its own copy.
        return self._logical_total - self._resident_total

    @property
    def peak_shared_bytes(self) -> int:
        return self._peak_shared

    @property
    def peak_logical_bytes(self) -> int:
        return self._peak_logical

    @property
    def logical_resident_bytes(self) -> int:
        return self._logical_total

    @property
    def dedup_ratio(self) -> float:
        """Logical over physical bytes at the run's resident peak (>= 1)."""
        if self._peak_logical == 0 or self.peak_resident_bytes == 0:
            return 1.0
        return self._peak_logical / self.peak_resident_bytes

    def resident_of(self, owner: str) -> int:
        return sum(
            seg.owners[owner]
            for node in self._owner_segs.get(owner, ())
            if (seg := self._segments[node]).resident
        )

    def swapped_of(self, owner: str) -> int:
        return sum(
            seg.owners[owner]
            for node in self._owner_segs.get(owner, ())
            if not (seg := self._segments[node]).resident
        )

    def segment_owners(self, node_id: int) -> list[str]:
        """Owners currently claiming a segment (for tests/debugging)."""
        seg = self._segments.get(node_id)
        return sorted(seg.owners) if seg else []

    def resident_segment_bytes(self, node_id: int) -> int:
        """Resident device bytes of one lane-tree segment (0 if absent/swapped)."""
        seg = self._segments.get(node_id)
        return seg.num_bytes if seg is not None and seg.resident else 0

    def resident_overlap_bytes(self, claims: "Iterable[KVSegment]") -> int:
        """Bytes of ``claims`` this lane already holds device-resident.

        Per claim, the overlap is capped at the claim's own length (a
        longer resident copy shares only the prefix the claimant needs).
        Read-only: probing never touches stamps, refcounts or peaks, so
        placement and admission can ask freely without perturbing LRU
        order.
        """
        return sum(
            min(claim.num_bytes, self.resident_segment_bytes(claim.node_id))
            for claim in claims
        )

    def resident_subtree_bytes(self, node_id: int) -> int:
        """Resident device bytes at or below ``node_id`` in the lane tree.

        The *opportunistic* overlap probe behind ``prefix_affinity``
        placement: a canonical session re-derives the same step content
        as resident same-problem sessions (draws are keyed), so every
        resident byte under the request's planned root is potentially
        shareable — not just the root itself. Includes namespaced replica
        branches, which only share the root; placement treats the result
        as an affinity *score*, while admission bills the guaranteed
        :meth:`resident_overlap_bytes` only.
        """
        if node_id not in self._lane_tree:
            return 0
        total = 0
        stack = [node_id]
        while stack:
            node = stack.pop()
            seg = self._segments.get(node)
            if seg is not None and seg.resident:
                total += seg.num_bytes
            stack.extend(self._lane_tree.get(node).children)
        return total

    def owner_leaf(self, owner: str) -> int | None:
        """The owner's deepest registered lane-tree node (None if none).

        Deterministic: maximal depth, ties broken by ascending node id.
        The prefix-affinity scheduler anchors its successor choice here.
        """
        nodes = self._owner_segs.get(owner)
        if not nodes:
            return None
        return min(nodes, key=lambda n: (-self._lane_tree.get(n).depth, n))

    # -- mutation --------------------------------------------------------

    def _account(self, seg: _SharedSegment, sign: int) -> None:
        """Add (``sign=1``) or take back (``-1``) a segment's share of the
        running totals; a segment counts only while resident."""
        if seg.resident and seg.owners:
            self._resident_total += sign * max(seg.owners.values())
            self._logical_total += sign * sum(seg.owners.values())

    def _ensure_segment(self, claim: KVSegment) -> _SharedSegment:
        self._lane_tree.ensure_node(claim.node_id, claim.parent_id, claim.num_bytes)
        seg = self._segments.get(claim.node_id)
        if seg is None:
            seg = _SharedSegment(node_id=claim.node_id)
            self._segments[claim.node_id] = seg
        return seg

    def _drop_claim(self, owner: str, node_id: int) -> None:
        """Remove one owner's claim; free the segment when orphaned."""
        seg = self._segments[node_id]
        self._account(seg, -1)
        seg.owners.pop(owner, None)
        self._account(seg, 1)
        if not seg.owners:
            # Nobody needs it: the bytes are freed, not swapped — there
            # is no PCIe traffic for discarding dead KV. Drop the ledger
            # entry so per-round accounting scales with live sessions,
            # not requests ever served (the lane tree keeps the node, so
            # a later re-registration reuses the same lineage).
            del self._segments[node_id]

    def _evictable(self, node_id: int, keep: set[int]) -> bool:
        seg = self._segments[node_id]
        if not seg.resident or node_id in keep:
            return False
        # Leaf-frontier only: a resident child pins its prefix (a KV
        # suffix without its prefix is useless to attention).
        return not any(
            child in self._segments and self._segments[child].resident
            for child in self._lane_tree.get(node_id).children
        )

    def _evict_segments_for(
        self, need: int, keep: set[int]
    ) -> list[tuple[str, int]]:
        """Swap out LRU leaf-frontier segments until ``need`` bytes free."""
        evicted: list[tuple[str, int]] = []
        freed = 0
        while freed < need:
            candidates = [
                node for node in self._segments if self._evictable(node, keep)
            ]
            if not candidates:
                break  # only the running session's own paths remain
            victim = min(
                candidates,
                key=lambda n: (self._segments[n].stamp, n),
            )
            seg = self._segments[victim]
            moved = seg.num_bytes
            self._account(seg, -1)
            seg.resident = False
            seg.swapped = True
            self.swapped_out_bytes += moved
            freed += moved
            evicted.append((f"seg:{victim}", moved))
        return evicted

    def _note_peaks(self) -> None:
        resident, logical = self._resident_total, self._logical_total
        if resident > self.peak_resident_bytes:
            self.peak_resident_bytes = resident
        if logical > self._peak_logical:
            self._peak_logical = logical
        if logical - resident > self._peak_shared:
            self._peak_shared = logical - resident

    def charge_growth_segments(
        self, owner: str, segments: Sequence[KVSegment] | Iterable[KVSegment]
    ) -> tuple[int, list[tuple[str, int]]]:
        """Replace ``owner``'s claims with its post-round segment lineage.

        Returns ``(restored_bytes, evictions)`` exactly like
        :meth:`KVLedger.charge_growth`: ``restored_bytes`` are unique
        bytes of previously swapped-out segments that had to come back
        over PCIe before the owner could run (segments a co-resident
        session kept alive cost nothing), and the evictions are what the
        growth displaced.
        """
        claims = list(segments)
        self._tick += 1
        new_ids = {claim.node_id for claim in claims}
        for node in self._owner_segs.get(owner, set()) - new_ids:
            self._drop_claim(owner, node)
        self._owner_segs[owner] = new_ids

        restored = 0
        for claim in claims:
            seg = self._ensure_segment(claim)
            seg.stamp = self._tick
            if seg.resident:
                if seg.owners.get(owner) != claim.num_bytes:
                    self._account(seg, -1)
                    seg.owners[owner] = claim.num_bytes
                    self._account(seg, 1)
                continue
            if seg.swapped:
                # Previously evicted to host: the grower pays the read of
                # the host copy's pre-growth length — growth beyond it is
                # decoded on device.
                restored += seg.num_bytes
                self.swapped_in_bytes += seg.num_bytes
            # else: freshly computed on device — no PCIe.
            seg.owners[owner] = claim.num_bytes
            seg.resident = True
            seg.swapped = False
            self._account(seg, 1)
        evicted = self._evict_segments_for(
            self.resident_bytes - self._capacity, keep=new_ids
        )
        self._note_peaks()
        return restored, evicted

    def charge_growth(
        self, owner: str, total_bytes: int
    ) -> tuple[int, list[tuple[str, int]]]:
        """Byte-level fallback: the footprint becomes one private segment."""
        if total_bytes < 0:
            raise ValueError("total_bytes must be non-negative")
        return self.charge_growth_segments(
            owner, [KVSegment(self._private_node(owner), None, total_bytes)]
        )

    def restore(self, owner: str) -> tuple[int, list[tuple[str, int]]]:
        """Bring the owner's swapped-out segments back before it resumes.

        Unique bytes only: a shared segment some co-resident session kept
        resident needs no transfer — that discount is the whole point of
        the shared ledger.
        """
        nodes = self._owner_segs.get(owner)
        if not nodes:
            return 0, []
        missing = [n for n in nodes if not self._segments[n].resident]
        if not missing:
            return 0, []
        self._tick += 1
        restored = 0
        for node in sorted(missing, key=lambda n: self._lane_tree.get(n).depth):
            seg = self._segments[node]
            seg.resident = True
            self._account(seg, 1)
            if seg.swapped:
                restored += seg.num_bytes
                self.swapped_in_bytes += seg.num_bytes
            seg.swapped = False
            seg.stamp = self._tick
        for node in nodes:
            self._segments[node].stamp = self._tick
        evicted = self._evict_segments_for(
            self.resident_bytes - self._capacity, keep=set(nodes)
        )
        self._note_peaks()
        return restored, evicted

    def admit(self, owner: str, num_bytes: int) -> list[tuple[str, int]]:
        """Place migrated-in KV as a private segment; evicts others to fit."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if num_bytes > self._capacity:
            raise CapacityError(
                f"cannot admit {num_bytes} B of KV for {owner!r}: device KV "
                f"budget is {self._capacity} B"
            )
        _, evicted = self.charge_growth(owner, num_bytes)
        return evicted

    def admit_segments(
        self, owner: str, segments: Sequence[KVSegment] | Iterable[KVSegment]
    ) -> list[tuple[str, int]]:
        """Place a migrated-in session as its segment lineage (delta-aware).

        Segment-granular twin of :meth:`admit`: claims whose segments are
        already resident here gain a refcount instead of a second copy —
        only the rest becomes newly resident, and only *that* much room is
        made. The handoff is transactional: the whole-footprint capacity
        check raises :class:`~repro.errors.CapacityError` before anything
        mutates, and room is evicted *before* the first claim registers —
        an eviction failure mid-handoff leaves every refcount (here and,
        because the caller releases the source only after this returns, at
        the source) untouched. No swap counters move for the incoming
        bytes themselves; migration traffic is the caller's to charge.
        """
        claims = list(segments)
        total = sum(claim.num_bytes for claim in claims)
        if total > self._capacity:
            raise CapacityError(
                f"cannot admit {total} B of KV for {owner!r}: device KV "
                f"budget is {self._capacity} B"
            )
        new_ids = {claim.node_id for claim in claims}
        # A segment comes back at its longest claim, which may be a
        # co-owner's host copy: make room for that, not only this claim.
        incoming = 0
        for claim in claims:
            size = claim.num_bytes
            seg = self._segments.get(claim.node_id)
            if seg is not None:
                size = max([size] + [b for o, b in seg.owners.items() if o != owner])
            incoming += max(0, size - self.resident_segment_bytes(claim.node_id))
        evicted = self._evict_segments_for(
            self.resident_bytes + incoming - self._capacity, keep=new_ids
        )
        # Past this point nothing can fail: register the claims.
        self._tick += 1
        for node in self._owner_segs.get(owner, set()) - new_ids:
            self._drop_claim(owner, node)
        self._owner_segs[owner] = new_ids
        for claim in claims:
            seg = self._ensure_segment(claim)
            self._account(seg, -1)
            seg.owners[owner] = claim.num_bytes
            seg.resident = True
            seg.swapped = False
            seg.stamp = self._tick
            self._account(seg, 1)
        self._note_peaks()
        return evicted

    def release(self, owner: str) -> int:
        """Drop every claim of ``owner``; returns unique device bytes freed."""
        before = self.resident_bytes
        for node in self._owner_segs.pop(owner, set()):
            self._drop_claim(owner, node)
        return before - self.resident_bytes

    def resize(self, capacity_bytes: int) -> list[tuple[str, int]]:
        """Change the budget at runtime; shrinking evicts segments to fit.

        Segment-granular twin of :meth:`KVLedger.resize`: LRU
        leaf-frontier segments are swapped out until the resident set
        fits the new budget (no path is pinned — a pressure spike spares
        nobody), and victims pay restores when their owners next run.
        """
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self._capacity = int(capacity_bytes)
        return self._evict_segments_for(
            self.resident_bytes - self._capacity, keep=set()
        )

    def _private_node(self, owner: str) -> int:
        return stable_hash64("shared-kv-private", owner)
