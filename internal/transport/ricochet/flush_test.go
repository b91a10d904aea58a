package ricochet_test

import (
	"testing"
	"time"

	"adamant/internal/wire"
)

func TestFlushEmitsPartialRepairs(t *testing.T) {
	// At a 100ms inter-arrival with an 8ms flush, every packet should be
	// covered by a singleton repair long before the R=4 group would fill.
	h := newHarness(t, 2, "ricochet(c=2,flush=8ms,r=4,stagger=-1)")
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		return pkt.Type == wire.TypeData && pkt.Seq == 2 && to == 1
	}
	h.publishN(t, 4, 100*time.Millisecond)
	ds := h.delivery[0]
	if len(ds) != 4 {
		t.Fatalf("delivered %d, want 4 (flush repair must recover seq 2)", len(ds))
	}
	d, ok := find(ds, 2)
	if !ok || !d.Recovered {
		t.Fatal("seq 2 not recovered")
	}
	// Recovery must be flush-bound (~8ms + delivery hops), NOT group-bound
	// (which would be ~300ms at this rate).
	if lat := d.Latency(); lat > 40*time.Millisecond {
		t.Errorf("recovered latency %v; flush-bound recovery should be ~10ms", lat)
	}
}

func TestFlushDisabledKeepsGroupSemantics(t *testing.T) {
	// With Flush < 0 and only 3 of R=4 packets published, no repairs are
	// ever emitted.
	h := newHarness(t, 2, classic("r=4,c=2"))
	h.publishN(t, 3, 5*time.Millisecond)
	for i, r := range h.recvs {
		if st := r.Stats(); st.RepairsSent != 0 {
			t.Errorf("receiver %d sent %d repairs with flush disabled and partial group", i, st.RepairsSent)
		}
	}
}

func TestStaggerOffsetsGroups(t *testing.T) {
	// With auto stagger, node IDs 1 and 2 skip 1 and 2 packets before
	// their first R=4 group. Publishing 9 packets gives node 1 groups
	// [2..5],[6..9] (2 repairs) and node 2 groups [3..6] (+partial).
	h := newHarness(t, 2, "ricochet(c=2,flush=-1ns,r=4)")
	h.publishN(t, 9, 5*time.Millisecond)
	s1 := h.recvs[0].Stats().RepairsSent
	s2 := h.recvs[1].Stats().RepairsSent
	if s1 == 0 {
		t.Error("node 1 emitted no repairs")
	}
	if s1 <= s2 {
		t.Errorf("stagger should give node 1 (offset 1) more completed groups than node 2 (offset 2): %d vs %d", s1, s2)
	}
}

func TestStaggeredPeerRecoversShiftedDoubleLoss(t *testing.T) {
	// Receiver 1 (stagger 1, groups [2..5]...) loses seqs 4 and 5 — a
	// double loss within ITS group. Receiver 2 (stagger 2, groups
	// [3..6],[7..10]) covers 4,5 in separate... both in [3..6]. Receiver 3
	// (stagger 3, groups [4..7]) also has both. Use explicit staggers so
	// peer groups are [5..8] for one peer: then 4 is in no group... This
	// exercises the cascade: peer repairs with shifted boundaries decode
	// one loss, unlocking a buffered repair for the other.
	h := newHarness(t, 3, "ricochet(c=3,flush=-1ns,r=2)")
	// R=2, auto stagger by id: node1 offset 1: groups [2,3],[4,5],[6,7]...
	// node2 offset 0 (2%2): [1,2],[3,4],[5,6]... node3 offset 1: like node1.
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		return pkt.Type == wire.TypeData && to == 1 && (pkt.Seq == 4 || pkt.Seq == 5)
	}
	h.publishN(t, 8, 5*time.Millisecond)
	ds := h.delivery[0]
	if len(ds) != 8 {
		t.Fatalf("delivered %d, want 8 (shifted groups must recover both)", len(ds))
	}
	d4, _ := find(ds, 4)
	d5, _ := find(ds, 5)
	if !d4.Recovered || !d5.Recovered {
		t.Error("double loss not recovered via shifted peer groups")
	}
}

func TestDecodeCostDelaysRecoveredDelivery(t *testing.T) {
	h := newHarness(t, 2, classic("r=2,c=2"))
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		return pkt.Type == wire.TypeData && pkt.Seq == 1 && to == 1
	}
	h.publishN(t, 2, 5*time.Millisecond)
	d, ok := find(h.delivery[0], 1)
	if !ok {
		t.Fatal("seq 1 not recovered")
	}
	// The fabric's ScaleCPU is identity, so the recovered delivery lands
	// the 13ms decode-path cost after the repair does (seq 2 at 5ms, one
	// hop to the peer, one back).
	if lat := d.Latency(); lat != 7*time.Millisecond+13*time.Millisecond {
		t.Errorf("recovered latency %v, want 7ms to the repair plus the 13ms decode path", lat)
	}
	if direct, ok := find(h.delivery[0], 2); ok && direct.Latency() > 5*time.Millisecond {
		t.Errorf("direct delivery latency %v; decode path must not block the receive path", direct.Latency())
	}
}
