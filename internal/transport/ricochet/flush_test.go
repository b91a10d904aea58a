package ricochet_test

import (
	"fmt"
	"testing"
	"time"

	"adamant/internal/wire"
)

func TestFlushEmitsPartialRepairs(t *testing.T) {
	// At a 100ms inter-arrival every packet starts a group the 8ms flush
	// sends as a singleton repair, long before the R=4 group would fill.
	// Node 2 skips seqs 1 and 2 (2 mod 4), so seq 3 is its first group.
	h := newHarness(t, 2, "ricochet(c=2,r=4)")
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		return pkt.Type == wire.TypeData && pkt.Seq == 3 && to == 1
	}
	h.publishN(t, 4, 100*time.Millisecond)
	ds := h.delivery[0]
	if len(ds) != 4 {
		t.Fatalf("delivered %d, want 4 (flush repair must recover seq 3)", len(ds))
	}
	d, ok := find(ds, 3)
	if !ok || !d.Recovered {
		t.Fatal("seq 3 not recovered")
	}
	// Recovery is flush-bound: the hop to the peer, its 8ms flush, the hop
	// back and the 13ms decode path, not group-bound (~300ms at this rate).
	if lat := d.Latency(); lat != time.Millisecond+8*time.Millisecond+time.Millisecond+13*time.Millisecond {
		t.Errorf("recovered latency %v, want 23ms: two hops, the 8ms flush and the 13ms decode", lat)
	}
}

// TestStaggerOffsetsGroups reads each receiver's XOR groups off its
// repairs: node i skips its first i mod R receptions, so node 1's groups
// start at seq 2 and node 2's at seq 3, and the flush sends the partial
// last group.
func TestStaggerOffsetsGroups(t *testing.T) {
	h := newHarness(t, 2, "ricochet(c=1,r=4)")
	groups := map[wire.NodeID][]string{}
	h.fab.Drop = func(from, _ wire.NodeID, pkt *wire.Packet) bool {
		if pkt.Type == wire.TypeRepair {
			rep, err := wire.DecodeRepair(pkt.Payload)
			if err != nil {
				t.Fatal(err)
			}
			groups[from] = append(groups[from], fmt.Sprintf("%d..%d", rep.Seq(0), rep.Seq(rep.Count()-1)))
		}
		return false
	}
	h.publishN(t, 9, fast)
	for node, want := range map[wire.NodeID]string{1: "[2..5 6..9]", 2: "[3..6 7..9]"} {
		if got := fmt.Sprint(groups[node]); got != want {
			t.Errorf("node %d groups %s, want %s", node, got, want)
		}
	}
}

// TestStaggeredPeerRecoversShiftedDoubleLoss recovers a double loss by
// cascade across peers whose group boundaries are shifted. Node 1 loses
// seqs 6 and 7, and node 2's repair of its group [3..6] is lost too. Node
// 3's group [4..7] arrives first and misses both, so it is buffered; node
// 2's next group [7..10] misses only 7 and decodes it, after which the
// buffered repair misses only 6 and decodes that in the same instant.
func TestStaggeredPeerRecoversShiftedDoubleLoss(t *testing.T) {
	h := newHarness(t, 3, "ricochet(c=3,r=4)")
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		if to != 1 {
			return false
		}
		return pkt.Type == wire.TypeData && (pkt.Seq == 6 || pkt.Seq == 7) ||
			pkt.Type == wire.TypeRepair && from == 2 && pkt.Seq == 6
	}
	h.publishN(t, 10, fast) // no data after the unlocking repair
	ds := h.delivery[0]
	if len(ds) != 10 {
		t.Fatalf("delivered %d, want 12 (shifted groups must recover both)", len(ds))
	}
	d6, _ := find(ds, 6)
	d7, _ := find(ds, 7)
	if !d6.Recovered || !d7.Recovered {
		t.Fatal("double loss not recovered via shifted peer groups")
	}
	// Seq 7 decodes from [7..10], which reaches node 1 5ms after seq 7 was
	// sent, and seq 6 cascades from the buffered [4..7] at once: both land
	// after the 13ms decode path.
	if at := d7.SentAt.Add(5*time.Millisecond + 13*time.Millisecond); !d7.DeliveredAt.Equal(at) || !d6.DeliveredAt.Equal(at) {
		t.Errorf("seqs 6, 7 delivered at %v, %v; want both at %v (cascade)", d6.DeliveredAt, d7.DeliveredAt, at)
	}
}

func TestDecodeCostDelaysRecoveredDelivery(t *testing.T) {
	// Node 2 skips no reception at R=2, so seqs 1 and 2 are its first group.
	h := newHarness(t, 2, "ricochet(c=2,r=2)")
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		return pkt.Type == wire.TypeData && pkt.Seq == 1 && to == 1
	}
	h.publishN(t, 2, fast)
	d, ok := find(h.delivery[0], 1)
	if !ok {
		t.Fatal("seq 1 not recovered")
	}
	// The fabric's ScaleCPU is identity, so the recovered delivery lands
	// the 13ms decode-path cost after the repair does (seq 2 at 1ms, one
	// hop to the peer, one back).
	if lat := d.Latency(); lat != 3*time.Millisecond+13*time.Millisecond {
		t.Errorf("recovered latency %v, want 3ms to the repair plus the 13ms decode path", lat)
	}
	if direct, ok := find(h.delivery[0], 2); ok && direct.Latency() > time.Millisecond {
		t.Errorf("direct delivery latency %v; decode path must not block the receive path", direct.Latency())
	}
}
