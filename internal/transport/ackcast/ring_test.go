package ackcast

import (
	"testing"
	"time"

	"adamant/internal/env"
	"adamant/internal/sim"
	"adamant/internal/transport"
	"adamant/internal/transport/transporttest"
	"adamant/internal/wire"
)

// An unknown receiver is admitted only while the sender's ring still holds
// everything it is missing, and is backfilled from the ring alone. The
// ring here is 64 samples, shorter than the 200 sent, so its length is
// the bound, not the window.
func TestReadmissionBoundedByRing(t *testing.T) {
	const sent, ring = 200, 64
	k := sim.New(1)
	e := env.NewSim(k)
	fab := transporttest.New(e, time.Millisecond)
	s, err := NewSender(transport.Config{Env: e, Endpoint: fab.Endpoint(0), Stream: 1,
		Receivers: transport.StaticReceivers()}, Options{RTO: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s.hist = transport.NewHistory(ring)
	for i := 0; i < sent; i++ {
		if err := s.Publish([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	retrans := map[wire.NodeID][]uint64{}
	fab.Drop = func(_, to wire.NodeID, pkt *wire.Packet) bool {
		if pkt.Type == wire.TypeRetrans {
			retrans[to] = append(retrans[to], pkt.Seq)
		}
		return false
	}
	// Node 1 is one sample further behind than the ring holds; node 2 is
	// exactly the ring behind.
	for id, cum := range map[wire.NodeID]uint64{1: sent - ring - 1, 2: sent - ring} {
		body, err := (&wire.AckBody{Cumulative: cum}).Encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := fab.Endpoint(id).Unicast(0, &wire.Packet{Type: wire.TypeAck, Src: id, Stream: 1, Payload: body}); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.RunFor(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := s.InFlight(); got != ring {
		t.Fatalf("InFlight = %d after the ACKs, want %d (node 2 alone admitted)", got, ring)
	}
	if err := k.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(retrans[1]) != 0 {
		t.Errorf("node 1, past the ring, was sent %d retransmissions", len(retrans[1]))
	}
	// Node 2 never ACKs, so every round resends the burst above its cum.
	seen := map[uint64]bool{}
	for _, seq := range retrans[2] {
		if seq <= sent-ring || seq > sent-ring+retransBurst {
			t.Fatalf("node 2 was sent seq %d, want %d..%d", seq, sent-ring+1, sent-ring+retransBurst)
		}
		seen[seq] = true
	}
	if len(seen) != retransBurst {
		t.Errorf("node 2 was backfilled %d distinct seqs, want %d", len(seen), retransBurst)
	}
}
