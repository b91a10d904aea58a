package ackcast_test

import (
	"testing"
	"time"

	"adamant/internal/env"
	"adamant/internal/sim"
	"adamant/internal/transport"
	"adamant/internal/transport/ackcast"
	"adamant/internal/transport/transporttest"
	"adamant/internal/wire"
)

type harness struct {
	k        *sim.Kernel
	fab      *transporttest.Fabric
	sender   *ackcast.Sender
	recvs    []*ackcast.Receiver
	delivery [][]transport.Delivery
}

// newHarness builds one sender (node 0) and n receivers (nodes 1..n) of spec
// over a 1ms-delay fabric.
func newHarness(t *testing.T, n int, spec string) *harness {
	t.Helper()
	opts := options(t, spec)
	h := &harness{k: sim.New(1)}
	e := env.NewSim(h.k)
	h.fab = transporttest.New(e, time.Millisecond)
	ids := make([]wire.NodeID, n)
	for i := range ids {
		ids[i] = wire.NodeID(i + 1)
	}
	var err error
	h.sender, err = ackcast.NewSender(transport.Config{
		Env: e, Endpoint: h.fab.Endpoint(0), Stream: 1,
		Receivers: transport.StaticReceivers(ids...),
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	h.delivery = make([][]transport.Delivery, n)
	for i := 0; i < n; i++ {
		i := i
		r, err := ackcast.NewReceiver(transport.Config{
			Env: e, Endpoint: h.fab.Endpoint(wire.NodeID(i + 1)), Stream: 1, SenderID: 0,
			Deliver: func(d transport.Delivery) { h.delivery[i] = append(h.delivery[i], d) },
		}, opts)
		if err != nil {
			t.Fatal(err)
		}
		h.recvs = append(h.recvs, r)
	}
	return h
}

// options parses a ackcast spec into its options, the path every caller
// outside these tests takes through the registry.
func options(t *testing.T, spec string) ackcast.Options {
	t.Helper()
	s, err := transport.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	o, err := ackcast.ParseOptions(s.Params)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestLosslessOrderedDelivery(t *testing.T) {
	h := newHarness(t, 3, "ackcast")
	for i := 0; i < 50; i++ {
		if err := h.sender.Publish([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.k.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	for i, ds := range h.delivery {
		if len(ds) != 50 {
			t.Fatalf("receiver %d delivered %d, want 50", i, len(ds))
		}
		for j, d := range ds {
			if d.Seq != uint64(j+1) {
				t.Fatalf("receiver %d out of order at %d", i, j)
			}
		}
	}
	if h.sender.InFlight() != 0 {
		t.Errorf("InFlight = %d after full ACK, want 0", h.sender.InFlight())
	}
}

func TestLossRecoveredViaRTO(t *testing.T) {
	h := newHarness(t, 2, "ackcast(rto=10ms)")
	dropped := false
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		if pkt.Type == wire.TypeData && pkt.Seq == 2 && to == 1 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	for i := 0; i < 5; i++ {
		if err := h.sender.Publish([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.k.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	ds := h.delivery[0]
	if len(ds) != 5 {
		t.Fatalf("delivered %d, want 5", len(ds))
	}
	if !ds[1].Recovered {
		t.Error("seq 2 should be recovered via retransmission")
	}
	if lat := ds[1].Latency(); lat < 10*time.Millisecond {
		t.Errorf("recovered latency %v, want >= RTO", lat)
	}
}

func TestFlowControlWindow(t *testing.T) {
	h := newHarness(t, 1, "ackcast(rto=5ms,window=4)")
	// Block all ACKs: the sender may send at most Window packets, the rest
	// must queue in the backlog.
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		return pkt.Type == wire.TypeAck
	}
	for i := 0; i < 10; i++ {
		if err := h.sender.Publish([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.k.RunFor(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := h.sender.InFlight(); got != 4 {
		t.Errorf("InFlight = %d, want window = 4", got)
	}
	if got := h.sender.Backlog(); got != 6 {
		t.Errorf("Backlog = %d, want 6", got)
	}
	// Unblock ACKs: everything drains.
	h.fab.Drop = nil
	if err := h.k.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(h.delivery[0]) != 10 {
		t.Errorf("delivered %d, want 10 after window opened", len(h.delivery[0]))
	}
	if h.sender.Backlog() != 0 {
		t.Errorf("Backlog = %d after drain", h.sender.Backlog())
	}
}

func TestAckImplosion(t *testing.T) {
	// Every data packet produces one ACK per receiver: with 10 receivers
	// and 20 packets the sender endpoint sees ~200 ACK arrivals. We count
	// ACK traffic via the fabric drop hook (observing, never dropping).
	acks := 0
	h := newHarness(t, 10, "ackcast")
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		if pkt.Type == wire.TypeAck {
			acks++
		}
		return false
	}
	for i := 0; i < 20; i++ {
		if err := h.sender.Publish(nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.k.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if acks < 150 {
		t.Errorf("saw %d ACKs; ACK implosion should produce ~200", acks)
	}
}

func TestSenderRequiresReceivers(t *testing.T) {
	k := sim.New(1)
	e := env.NewSim(k)
	fab := transporttest.New(e, time.Millisecond)
	_, err := ackcast.NewSender(transport.Config{Env: e, Endpoint: fab.Endpoint(0)}, options(t, "ackcast"))
	if err == nil {
		t.Error("sender without Receivers should fail")
	}
}

func TestPublishAfterClose(t *testing.T) {
	h := newHarness(t, 1, "ackcast")
	if err := h.sender.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.sender.Publish(nil); err == nil {
		t.Error("Publish after Close should error")
	}
	if err := h.recvs[0].Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSpecAndParseOptions(t *testing.T) {
	spec := ackcast.Spec(32, 20*time.Millisecond)
	if spec.String() != "ackcast(rto=20ms,window=32)" {
		t.Errorf("Spec = %q", spec.String())
	}
	o, err := ackcast.ParseOptions(spec.Params)
	if err != nil || o.Window != 32 || o.RTO != 20*time.Millisecond {
		t.Errorf("ParseOptions: %+v, %v", o, err)
	}
	for _, bad := range []transport.Params{
		{"window": "x"}, {"rto": "y"}, {"window": "-1"}, {"rto": "-1ms"},
		{"window": "64", "history": "32"}, // the ring must hold the window
		{"windw": "64"},                   // misspelt key
	} {
		if _, err := ackcast.ParseOptions(bad); err == nil {
			t.Errorf("ParseOptions(%v) should error", bad)
		}
	}
}

func TestSenderRejectsHistoryBelowWindow(t *testing.T) {
	k := sim.New(1)
	e := env.NewSim(k)
	fab := transporttest.New(e, time.Millisecond)
	_, err := ackcast.Factory().NewSender(transport.Config{Env: e, Endpoint: fab.Endpoint(0),
		Receivers: transport.StaticReceivers(1)}, transport.Params{"history": "50", "window": "100"})
	if err == nil {
		t.Error("sender with a resync ring smaller than its window should fail")
	}
}

func TestFactory(t *testing.T) {
	f := ackcast.Factory()
	if props, err := f.Props(nil); f.Name != ackcast.Name || err != nil ||
		!props.Has(transport.PropACKReliability|transport.PropFlowControl) {
		t.Error("factory metadata wrong")
	}
}

func TestDuplicateRetransReAcked(t *testing.T) {
	// If an ACK is lost, the sender retransmits an already-delivered
	// packet; the receiver must re-ACK so the sender can advance.
	h := newHarness(t, 1, "ackcast(rto=5ms)")
	ackDropped := false
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		if pkt.Type == wire.TypeAck && !ackDropped {
			ackDropped = true
			return true
		}
		return false
	}
	if err := h.sender.Publish(nil); err != nil {
		t.Fatal(err)
	}
	if err := h.k.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(h.delivery[0]) != 1 {
		t.Fatalf("delivered %d, want 1", len(h.delivery[0]))
	}
	if h.sender.InFlight() != 0 {
		t.Errorf("InFlight = %d; re-ACK after duplicate retrans should clear it", h.sender.InFlight())
	}
	if st := h.recvs[0].Stats(); st.Duplicates == 0 {
		t.Error("duplicate retrans not counted")
	}
}

func TestStallGiveUpOnDeadReceiver(t *testing.T) {
	// One receiver stops ACKing entirely (crash): after the stall bound
	// the sender must drop it and drain the backlog for the others.
	h := newHarness(t, 2, "ackcast(rto=2ms,window=8)")
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		// Node 2 is dead: nothing in, nothing out.
		return from == 2 || to == 2
	}
	for i := 0; i < 40; i++ {
		if err := h.sender.Publish([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.k.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := len(h.delivery[0]); got != 40 {
		t.Errorf("live receiver delivered %d/40; dead peer wedged the window", got)
	}
	if h.sender.Backlog() != 0 {
		t.Errorf("backlog %d after stall give-up", h.sender.Backlog())
	}
	// A late ACK from the dead (dropped) receiver must not resurrect it
	// into the window accounting.
	h.fab.Drop = nil
	body, err := (&wire.AckBody{Cumulative: 1}).Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	ack := &wire.Packet{Type: wire.TypeAck, Src: 2, Stream: 1, SentAt: h.k.Now(), Payload: body}
	if err := h.fab.Endpoint(2).Unicast(0, ack); err != nil {
		t.Fatal(err)
	}
	if err := h.k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if h.sender.InFlight() != 0 {
		t.Errorf("InFlight = %d; dead receiver re-admitted", h.sender.InFlight())
	}
}

func TestSenderCloseStillDrains(t *testing.T) {
	// Closing immediately after the last publish must not strand the
	// in-flight window: RTO service continues until fully acked.
	h := newHarness(t, 1, "ackcast(rto=3ms,window=4)")
	dropFirst := true
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		if pkt.Type == wire.TypeData && pkt.Seq == 1 && dropFirst {
			dropFirst = false
			return true
		}
		return false
	}
	for i := 0; i < 10; i++ {
		if err := h.sender.Publish([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.sender.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.k.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := len(h.delivery[0]); got != 10 {
		t.Errorf("delivered %d/10 after immediate close", got)
	}
}
