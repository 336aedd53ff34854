"""Property-based invariants for the runtime KV ledgers.

After *any* sequence of ``charge_growth`` / ``restore`` / ``admit`` /
``release`` / ``resize`` (plus segment-granular growth and admission on
the shared ledger):

* device residency never exceeds capacity (every single claim fits by
  construction, as fleet admission control guarantees);
* each owner's books are conserved — resident plus swapped bytes equal
  its last reported footprint, no bytes silently vanish;
* on the shared ledger, reported ``resident_bytes`` equals the sum of
  unique resident segment bytes and never exceeds the whole-session sum
  (sharing can only save, never inflate);
* after *every* op, the shared ledger's running ``resident_bytes``,
  ``logical_resident_bytes`` and ``shared_bytes`` equal a from-scratch
  scan of its segments.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.pool import delta_transfer_bytes
from repro.hardware.memory import KVLedger, KVSegment, SharedKVLedger

CAPACITY = 100
OWNERS = ("a", "b", "c")

# One op: (kind, owner index, payload). Byte payloads stay within the
# capacity — a single session's plan always fits the device (admission
# control) — and segment chains sum to at most 3 * 30 = 90 bytes.
chain_sizes = st.lists(st.integers(1, 30), min_size=1, max_size=3)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("grow"), st.integers(0, 2), st.integers(0, CAPACITY)),
        st.tuples(st.just("restore"), st.integers(0, 2), st.none()),
        st.tuples(st.just("admit"), st.integers(0, 2), st.integers(0, CAPACITY)),
        st.tuples(st.just("release"), st.integers(0, 2), st.none()),
        st.tuples(st.just("grow_segs"), st.integers(0, 2), chain_sizes),
        # Every owner's chain is the same lineage (7 -> 101 -> 102), each
        # with its own lengths: non-root segments whose owners disagree.
        st.tuples(st.just("grow_common"), st.integers(0, 2), chain_sizes),
        st.tuples(
            st.just("admit_segs"), st.integers(0, 2),
            st.tuples(chain_sizes, st.booleans()),
        ),
        # A pressure spike: shrink the budget to the payload, then back.
        st.tuples(st.just("resize"), st.integers(0, 2), st.integers(1, CAPACITY)),
    ),
    min_size=1,
    max_size=30,
)


def lineage_claims(owner_idx, sizes, shared_root):
    """A root->leaf chain; ``shared_root=True`` reuses one cross-owner
    root (the prompt analogue), the rest are per-owner private."""
    claims, parent = [], None
    for depth, size in enumerate(sizes):
        if depth == 0 and shared_root:
            node = 7  # same root for every owner: the shared prompt
        else:
            node = 1000 * (owner_idx + 1) + depth
        claims.append(KVSegment(node, parent, size))
        parent = node
    return claims


def common_claims(sizes):
    """A chain every owner shares node for node: the prompt analogue (7)
    and then the same step nodes, with the caller's own lengths."""
    claims, parent = [], None
    for depth, size in enumerate(sizes):
        node = 7 if depth == 0 else 100 + depth
        claims.append(KVSegment(node, parent, size))
        parent = node
    return claims


def scan_totals(ledger):
    """``(resident, logical, shared)`` bytes recomputed from the segments."""
    resident = logical = shared = 0
    for seg in ledger._segments.values():
        if seg.resident:
            owned = list(seg.owners.values())
            resident += max(owned, default=0)
            logical += sum(owned)
            if len(owned) > 1:
                shared += sum(owned) - max(owned)
    return resident, logical, shared


def check_totals(ledger):
    """The running totals agree with a scan, and never pass their peaks."""
    if isinstance(ledger, SharedKVLedger):
        assert (
            ledger.resident_bytes,
            ledger.logical_resident_bytes,
            ledger.shared_bytes,
        ) == scan_totals(ledger)
    assert ledger.resident_bytes <= ledger.peak_resident_bytes
    assert ledger.logical_resident_bytes <= ledger.peak_logical_bytes
    assert ledger.shared_bytes <= ledger.peak_shared_bytes


def apply_ops(ledger, op_list, shared_root=False, check=None):
    """Drive the ledger; returns each owner's expected logical footprint.

    ``check(ledger)``, when given, runs after every ledger call.
    """
    expected = {}
    for kind, owner_idx, payload in op_list:
        owner = OWNERS[owner_idx]
        if kind == "grow":
            ledger.charge_growth(owner, payload)
            expected[owner] = payload
        elif kind == "restore":
            ledger.restore(owner)
        elif kind == "admit":
            ledger.admit(owner, payload)
            expected[owner] = payload
        elif kind == "release":
            ledger.release(owner)
            expected.pop(owner, None)
        elif kind in ("grow_segs", "grow_common"):
            if not isinstance(ledger, SharedKVLedger):
                ledger.charge_growth(owner, sum(payload))
            elif kind == "grow_common":
                ledger.charge_growth_segments(owner, common_claims(payload))
            else:
                ledger.charge_growth_segments(
                    owner, lineage_claims(owner_idx, payload, shared_root)
                )
            expected[owner] = sum(payload)
        elif kind == "admit_segs":
            sizes, common = payload
            if not isinstance(ledger, SharedKVLedger):
                ledger.admit(owner, sum(sizes))
            elif common:
                ledger.admit_segments(owner, common_claims(sizes))
            else:
                ledger.admit_segments(
                    owner, lineage_claims(owner_idx, sizes, shared_root)
                )
            expected[owner] = sum(sizes)
        elif kind == "resize":
            ledger.resize(payload)
            if check is not None:
                check(ledger)
            ledger.resize(CAPACITY)
        if check is not None:
            check(ledger)
    return expected


def check_invariants(ledger, expected):
    assert 0 <= ledger.resident_bytes <= CAPACITY
    assert ledger.free_bytes >= 0
    for owner, footprint in expected.items():
        resident = ledger.resident_of(owner)
        swapped = ledger.swapped_of(owner)
        assert resident >= 0 and swapped >= 0
        assert resident + swapped == footprint, (
            f"{owner}: resident {resident} + swapped {swapped} != "
            f"reported footprint {footprint}"
        )
    assert ledger.peak_resident_bytes <= CAPACITY
    assert ledger.swapped_out_bytes >= 0
    assert ledger.swapped_in_bytes >= 0


class TestKVLedgerInvariants:
    @given(ops)
    @settings(max_examples=200, deadline=None)
    def test_conservation_and_capacity(self, op_list):
        ledger = KVLedger(CAPACITY)
        expected = apply_ops(ledger, op_list, check=check_totals)
        check_invariants(ledger, expected)
        assert ledger.logical_resident_bytes == ledger.resident_bytes
        assert ledger.dedup_ratio == 1.0


class TestSharedKVLedgerInvariants:
    @given(ops, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_conservation_capacity_and_unique_bytes(self, op_list, shared_root):
        ledger = SharedKVLedger(CAPACITY)
        expected = apply_ops(
            ledger, op_list, shared_root=shared_root, check=check_totals
        )
        check_invariants(ledger, expected)
        # resident_bytes is exactly the unique resident segment bytes...
        unique = sum(
            seg.num_bytes for seg in ledger._segments.values() if seg.resident
        )
        assert ledger.resident_bytes == unique
        # ...and sharing can only save relative to whole-session billing
        logical = sum(ledger.resident_of(o) for o in expected)
        assert ledger.resident_bytes <= logical or not expected
        assert ledger.logical_resident_bytes == logical
        assert ledger.shared_bytes >= 0
        assert ledger.dedup_ratio >= 1.0

    @given(ops)
    @settings(max_examples=100, deadline=None)
    def test_restore_after_any_history_makes_owner_resident(self, op_list):
        ledger = SharedKVLedger(CAPACITY)
        expected = apply_ops(ledger, op_list, shared_root=True, check=check_totals)
        for owner in expected:
            ledger.restore(owner)
            check_totals(ledger)
            assert ledger.swapped_of(owner) == 0
            assert ledger.resident_of(owner) == expected[owner]


def migrating_claims(sizes):
    """A root->leaf chain for the migrating session: the shared root (the
    prompt analogue, node 7) plus step nodes no ``apply_ops`` owner ever
    touches, so overlap with a populated destination comes only through
    the root or an explicit same-lineage peer."""
    claims, parent = [], None
    for depth, size in enumerate(sizes):
        node = 7 if depth == 0 else 5000 + depth
        claims.append(KVSegment(node, parent, size))
        parent = node
    return claims


class TestDeltaMigrationConservation:
    """ISSUE 10: delta-migration's PCIe books against two real ledgers.

    Conservation law: the bytes read in at the destination equal the
    migrating session's footprint minus the destination-resident shared
    bytes — shared segments cross no link — and the write-out is the
    source-resident subset of exactly those bytes.
    """

    @given(
        st.lists(st.integers(1, 30), min_size=1, max_size=3),
        ops,
        st.integers(0, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_read_in_is_footprint_minus_destination_overlap(
        self, sizes, dst_ops, peer_depth
    ):
        source = SharedKVLedger(CAPACITY)
        destination = SharedKVLedger(CAPACITY)
        claims = migrating_claims(sizes)
        source.charge_growth_segments("mig", claims)
        # Arbitrary co-resident history at the destination (may leave the
        # shared root resident), plus optionally a same-problem peer
        # holding a prefix of the migrating lineage.
        apply_ops(destination, dst_ops, shared_root=True)
        if peer_depth:
            destination.charge_growth_segments("peer", claims[:peer_depth])
        footprint = sum(c.num_bytes for c in claims)
        overlap = sum(
            min(c.num_bytes, destination.resident_segment_bytes(c.node_id))
            for c in claims
        )

        out_bytes, in_bytes = delta_transfer_bytes(source, destination, claims)

        assert in_bytes == footprint - overlap
        # ...which is exactly the ledger's unique-planned-bytes accessor.
        assert in_bytes == destination.unique_planned_bytes(footprint, claims)
        expected_out = sum(
            c.num_bytes
            - min(c.num_bytes, destination.resident_segment_bytes(c.node_id))
            for c in claims
            if source.resident_segment_bytes(c.node_id)
        )
        assert out_bytes == expected_out
        assert 0 <= out_bytes <= in_bytes <= footprint

        # The handoff itself: the destination ends up owning the full
        # footprint, the source none of it, capacity never exceeded.
        destination.admit_segments("mig", claims)
        source.release("mig")
        assert destination.resident_of("mig") == footprint
        assert source.resident_of("mig") == 0
        assert destination.resident_bytes <= CAPACITY

    def test_failed_eviction_mid_handoff_leaves_refcounts_untouched(
        self, monkeypatch
    ):
        """Migrate-transactionality regression (ISSUE 10 satellite).

        ``admit_segments`` makes room *before* registering any claim; if
        the destination's eviction blows up mid-handoff, no refcount may
        have moved on either ledger — the caller releases the source only
        after a successful admit.
        """
        destination = SharedKVLedger(CAPACITY)
        destination.charge_growth_segments(
            "resident", lineage_claims(1, [40, 40], shared_root=False)
        )
        claims = migrating_claims([30, 30, 30])
        source = SharedKVLedger(CAPACITY)
        source.charge_growth_segments("mig", claims)
        owners_before = {
            node: dict(destination._segments[node].owners)
            for node in destination._segments
        }
        resident_before = destination.resident_bytes

        def boom(need, keep):
            raise RuntimeError("eviction failed mid-handoff")

        monkeypatch.setattr(destination, "_evict_segments_for", boom)
        with pytest.raises(RuntimeError, match="mid-handoff"):
            destination.admit_segments("mig", claims)

        assert "mig" not in destination.owners
        assert destination.resident_bytes == resident_before
        assert {
            node: dict(destination._segments[node].owners)
            for node in destination._segments
        } == owners_before
        # The source still holds every byte: nothing leaked in transit.
        assert source.resident_of("mig") == sum(c.num_bytes for c in claims)

    def test_admit_onto_swapped_segment_makes_room_for_its_longest_claim(self):
        """A segment swapped out under a co-owner's longer claim comes
        back at that length, so admission evicts for it, not only for the
        incoming claim's bytes (it used to overshoot the budget)."""
        destination = SharedKVLedger(CAPACITY)
        destination.charge_growth_segments("peer", [KVSegment(7, None, 24)])
        destination.charge_growth("other", 77)  # swaps the peer's root out
        assert destination.resident_segment_bytes(7) == 0
        destination.admit_segments("mig", [KVSegment(7, None, 1)])
        assert destination.resident_segment_bytes(7) == 24
        assert destination.resident_bytes <= CAPACITY

    def test_whole_footprint_capacity_check_raises_before_any_mutation(self):
        destination = SharedKVLedger(CAPACITY)
        destination.charge_growth_segments(
            "resident", lineage_claims(1, [10], shared_root=False)
        )
        claims = migrating_claims([60, 60])  # 120 B > 100 B budget
        with pytest.raises(Exception) as excinfo:
            destination.admit_segments("mig", claims)
        assert "budget" in str(excinfo.value)
        assert "mig" not in destination.owners
        assert destination.resident_of("resident") == 10
