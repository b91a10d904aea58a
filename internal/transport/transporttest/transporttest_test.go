package transporttest_test

import (
	"slices"
	"testing"
	"time"

	"adamant/internal/env"
	"adamant/internal/sim"
	"adamant/internal/transport/transporttest"
	"adamant/internal/wire"
)

// Same-instant deliveries of a multicast reach the receivers in ascending
// node ID order, whatever order the endpoints were created in, so a
// multi-receiver test replays.
func TestMulticastAscendingOrder(t *testing.T) {
	const nodes, sends = 32, 10
	k := sim.New(1)
	fab := transporttest.New(env.NewSim(k), time.Millisecond)
	order := make(map[uint64][]wire.NodeID)
	for i := 0; i < nodes; i++ {
		id := wire.NodeID(i * 7 % nodes) // created out of order
		fab.Endpoint(id).SetHandler(func(_ wire.NodeID, pkt *wire.Packet) {
			order[pkt.Seq] = append(order[pkt.Seq], id)
		})
	}
	for seq := uint64(1); seq <= sends; seq++ {
		if err := fab.Endpoint(0).Multicast(&wire.Packet{Type: wire.TypeData, Stream: 1, Seq: seq}); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= sends; seq++ {
		got := order[seq]
		if len(got) != nodes-1 || !slices.IsSorted(got) {
			t.Errorf("multicast %d reached %v, want nodes 1..%d ascending", seq, got, nodes-1)
		}
	}
}
