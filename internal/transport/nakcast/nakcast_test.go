package nakcast_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"adamant/internal/env"
	"adamant/internal/sim"
	"adamant/internal/transport"
	"adamant/internal/transport/nakcast"
	"adamant/internal/transport/transporttest"
	"adamant/internal/wire"
)

type harness struct {
	k        *sim.Kernel
	fab      *transporttest.Fabric
	sender   *nakcast.Sender
	recvs    []*nakcast.Receiver
	delivery [][]transport.Delivery
	lost     [][]uint64
}

// newHarness builds one sender (node 0) and n receivers (nodes 1..n) of spec
// over a 1ms-delay fabric.
func newHarness(t *testing.T, n int, spec string) *harness {
	t.Helper()
	opts := options(t, spec)
	h := &harness{k: sim.New(1)}
	e := env.NewSim(h.k)
	h.fab = transporttest.New(e, time.Millisecond)
	ids := []wire.NodeID{0}
	for i := 1; i <= n; i++ {
		ids = append(ids, wire.NodeID(i))
	}
	var err error
	h.sender, err = nakcast.NewSender(transport.Config{
		Env: e, Endpoint: h.fab.Endpoint(0), Stream: 1,
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	h.delivery = make([][]transport.Delivery, n)
	h.lost = make([][]uint64, n)
	for i := 0; i < n; i++ {
		i := i
		r, err := nakcast.NewReceiver(transport.Config{
			Env:      e,
			Endpoint: h.fab.Endpoint(wire.NodeID(i + 1)),
			Stream:   1,
			SenderID: 0,
			Deliver:  func(d transport.Delivery) { h.delivery[i] = append(h.delivery[i], d) },
			OnLost:   func(seq uint64) { h.lost[i] = append(h.lost[i], seq) },
		}, opts)
		if err != nil {
			t.Fatal(err)
		}
		h.recvs = append(h.recvs, r)
	}
	return h
}

// options parses a nakcast spec into its options, the path every caller
// outside these tests takes through the registry.
func options(t *testing.T, spec string) nakcast.Options {
	t.Helper()
	s, err := transport.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	o, err := nakcast.ParseOptions(s.Params)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func (h *harness) publishN(t *testing.T, n int, gap time.Duration) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := h.sender.Publish([]byte(fmt.Sprintf("sample-%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := h.k.RunFor(gap); err != nil {
			t.Fatal(err)
		}
	}
}

func (h *harness) finish(t *testing.T) {
	t.Helper()
	if err := h.sender.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.k.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func seqs(ds []transport.Delivery) []uint64 {
	out := make([]uint64, len(ds))
	for i, d := range ds {
		out[i] = d.Seq
	}
	return out
}

func TestLosslessInOrderDelivery(t *testing.T) {
	h := newHarness(t, 2, "nakcast(timeout=1ms)")
	h.publishN(t, 20, 5*time.Millisecond)
	h.finish(t)
	for i, ds := range h.delivery {
		if len(ds) != 20 {
			t.Fatalf("receiver %d delivered %d, want 20", i, len(ds))
		}
		for j, d := range ds {
			if d.Seq != uint64(j+1) {
				t.Fatalf("receiver %d out of order: %v", i, seqs(ds))
			}
			if d.Recovered {
				t.Errorf("lossless run marked seq %d recovered", d.Seq)
			}
			if lat := d.Latency(); lat < time.Millisecond || lat > 2*time.Millisecond {
				t.Errorf("seq %d latency %v, want ~1ms", d.Seq, lat)
			}
		}
	}
}

func TestSingleLossRecovered(t *testing.T) {
	h := newHarness(t, 1, "nakcast(timeout=5ms)")
	dropped := false
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		if pkt.Type == wire.TypeData && pkt.Seq == 3 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	h.publishN(t, 10, 10*time.Millisecond)
	h.finish(t)
	ds := h.delivery[0]
	if len(ds) != 10 {
		t.Fatalf("delivered %d, want 10: %v", len(ds), seqs(ds))
	}
	for j, d := range ds {
		if d.Seq != uint64(j+1) {
			t.Fatalf("out of order: %v", seqs(ds))
		}
	}
	if !ds[2].Recovered {
		t.Error("seq 3 should be marked recovered")
	}
	// Recovery path: detected when seq 4 arrives (~10ms after seq 3 was
	// sent), + 5ms NAK timeout + ~2ms round trip. The recovered latency
	// must reflect the original send time.
	if lat := ds[2].Latency(); lat < 15*time.Millisecond {
		t.Errorf("recovered latency %v, want >= detection+timeout (~15ms)", lat)
	}
	st := h.recvs[0].Stats()
	if st.NaksSent == 0 {
		t.Error("no NAKs sent")
	}
	if st.Recovered != 1 {
		t.Errorf("Recovered = %d, want 1", st.Recovered)
	}
}

func TestHeadOfLineBlocking(t *testing.T) {
	h := newHarness(t, 1, "nakcast(timeout=20ms)")
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		return pkt.Type == wire.TypeData && pkt.Seq == 2
	}
	// Publish 1..4 quickly: 3 and 4 arrive before 2 recovers and must be
	// held back, then released in a burst with inflated latency.
	h.publishN(t, 4, 2*time.Millisecond)
	h.finish(t)
	ds := h.delivery[0]
	if len(ds) != 4 {
		t.Fatalf("delivered %d, want 4", len(ds))
	}
	if got := seqs(ds); got[0] != 1 || got[1] != 2 || got[2] != 3 || got[3] != 4 {
		t.Fatalf("order = %v", got)
	}
	// seq 3's latency must include head-of-line blocking behind seq 2.
	if lat3 := ds[2].Latency(); lat3 < 15*time.Millisecond {
		t.Errorf("seq 3 latency %v; expected HOL blocking behind seq 2 (>= ~20ms)", lat3)
	}
	// And 2,3,4 are delivered at the same instant (the recovery drain).
	if !ds[1].DeliveredAt.Equal(ds[2].DeliveredAt) || !ds[2].DeliveredAt.Equal(ds[3].DeliveredAt) {
		t.Error("HOL drain should deliver blocked samples at the same instant")
	}
}

func TestRetransLossTriggersBackoffRetry(t *testing.T) {
	h := newHarness(t, 1, "nakcast(timeout=2ms)")
	drops := 0
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		if pkt.Type == wire.TypeData && pkt.Seq == 2 {
			return true
		}
		if pkt.Type == wire.TypeRetrans && pkt.Seq == 2 && drops < 2 {
			drops++
			return true
		}
		return false
	}
	h.publishN(t, 5, 5*time.Millisecond)
	h.finish(t)
	ds := h.delivery[0]
	if len(ds) != 5 {
		t.Fatalf("delivered %d, want 5: %v", len(ds), seqs(ds))
	}
	st := h.recvs[0].Stats()
	if st.NaksSent < 3 {
		t.Errorf("NaksSent = %d, want >= 3 (two retrans drops)", st.NaksSent)
	}
	if !ds[1].Recovered {
		t.Error("seq 2 should be recovered")
	}
}

func TestAbandonAfterMaxNaks(t *testing.T) {
	h := newHarness(t, 1, "nakcast(timeout=1ms)")
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		// seq 2 is permanently unrecoverable.
		return (pkt.Type == wire.TypeData || pkt.Type == wire.TypeRetrans) && pkt.Seq == 2
	}
	h.publishN(t, 5, 3*time.Millisecond)
	h.finish(t)
	ds := h.delivery[0]
	if len(ds) != 4 {
		t.Fatalf("delivered %d, want 4 (seq 2 abandoned): %v", len(ds), seqs(ds))
	}
	got := seqs(ds)
	want := []uint64{1, 3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	st := h.recvs[0].Stats()
	if st.Abandoned != 1 {
		t.Errorf("Abandoned = %d, want 1", st.Abandoned)
	}
	if st.NaksSent != 8 {
		t.Errorf("NaksSent = %d, want exactly the 8-NAK retry budget", st.NaksSent)
	}
}

// The last packet lost has no later data to reveal its gap: the sender's
// 100ms heartbeat does, before any end of stream.
func TestTailLossRecoveredViaHeartbeat(t *testing.T) {
	h := newHarness(t, 1, "nakcast(timeout=1ms)")
	dropped := false
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		if pkt.Type == wire.TypeData && pkt.Seq == 5 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	h.publishN(t, 5, 2*time.Millisecond) // up to t = 10ms
	if err := h.k.RunFor(85 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := len(h.delivery[0]); got != 4 {
		t.Fatalf("delivered %d before the first heartbeat, want 4", got)
	}
	// The heartbeat at 100ms, a hop, the 1ms NAK timeout, a round trip.
	if err := h.k.RunFor(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	ds := h.delivery[0]
	if len(ds) != 5 {
		t.Fatalf("delivered %d, want 5 (tail loss must be heartbeat-recovered)", len(ds))
	}
	if !ds[4].Recovered {
		t.Error("tail packet should be marked recovered")
	}
}

// Closed before its first 100ms heartbeat, the sender's end-of-stream
// heartbeat is the only tail-gap signal.
func TestEOSHeartbeatSpeedsTailRecovery(t *testing.T) {
	h := newHarness(t, 1, "nakcast(timeout=1ms)")
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		return pkt.Type == wire.TypeData && pkt.Seq == 3 && pkt.Src == 0 && to == 1
	}
	h.publishN(t, 3, 2*time.Millisecond)
	if err := h.sender.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.k.RunFor(50 * time.Millisecond); err != nil { // up to t = 56ms
		t.Fatal(err)
	}
	if got := len(h.delivery[0]); got != 3 {
		t.Fatalf("delivered %d, want 3", got)
	}
}

func TestDuplicateSuppression(t *testing.T) {
	h := newHarness(t, 1, "nakcast(timeout=1ms)")
	// Duplicate every data packet.
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool { return false }
	ep := h.fab.Endpoint(0)
	for i := 0; i < 5; i++ {
		if err := h.sender.Publish([]byte("x")); err != nil {
			t.Fatal(err)
		}
		// Replay the same seq directly.
		dup := &wire.Packet{Type: wire.TypeData, Src: 0, Stream: 1,
			Seq: h.sender.Seq(), SentAt: h.k.Now(), Payload: []byte("x")}
		if err := ep.Multicast(dup); err != nil {
			t.Fatal(err)
		}
		if err := h.k.RunFor(5 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	h.finish(t)
	if got := len(h.delivery[0]); got != 5 {
		t.Errorf("delivered %d, want 5", got)
	}
	if st := h.recvs[0].Stats(); st.Duplicates != 5 {
		t.Errorf("Duplicates = %d, want 5", st.Duplicates)
	}
}

// A NAK that arrives after its seq left the sender's 16 384-packet history
// cannot be served, so the gap is abandoned.
func TestSenderHistoryEviction(t *testing.T) {
	const n = 1<<14 + 1 // one past the history
	h := newHarness(t, 1, "nakcast(timeout=1ms)")
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		return pkt.Type == wire.TypeData && pkt.Seq == 1 && to == 1
	}
	// All published in one instant: by the time the NAK for seq 1 fires,
	// seq n has evicted it.
	h.publishN(t, n, 0)
	h.finish(t)
	ds := h.delivery[0]
	if len(ds) != n-1 {
		t.Fatalf("delivered %d, want %d (seq 1 unrecoverable)", len(ds), n-1)
	}
	if st := h.recvs[0].Stats(); st.Abandoned != 1 {
		t.Errorf("Abandoned = %d, want 1", st.Abandoned)
	}
}

func TestPublishAfterClose(t *testing.T) {
	h := newHarness(t, 1, "nakcast")
	if err := h.sender.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.sender.Publish([]byte("x")); err == nil {
		t.Error("Publish after Close should error")
	}
	if err := h.sender.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
	if err := h.recvs[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.recvs[0].Close(); err != nil {
		t.Errorf("double receiver Close: %v", err)
	}
}

func TestReceiverCloseStopsNaks(t *testing.T) {
	h := newHarness(t, 1, "nakcast(timeout=5ms)")
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		return pkt.Type == wire.TypeData && pkt.Seq == 2
	}
	h.publishN(t, 3, 2*time.Millisecond)
	if err := h.recvs[0].Close(); err != nil {
		t.Fatal(err)
	}
	before := h.recvs[0].Stats().NaksSent
	if err := h.k.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if after := h.recvs[0].Stats().NaksSent; after != before {
		t.Errorf("NAKs kept flowing after Close: %d -> %d", before, after)
	}
}

func TestSpecAndParseOptions(t *testing.T) {
	spec := nakcast.Spec(time.Millisecond)
	if spec.String() != "nakcast(timeout=1ms)" {
		t.Errorf("Spec = %q", spec.String())
	}
	o, err := nakcast.ParseOptions(spec.Params)
	if err != nil || o.Timeout != time.Millisecond {
		t.Errorf("ParseOptions: %+v, %v", o, err)
	}
	if _, err := nakcast.ParseOptions(transport.Params{"timeout": "bogus"}); err == nil {
		t.Error("bad timeout should error")
	}
	if _, err := nakcast.ParseOptions(transport.Params{"timeout": "-1ms"}); err == nil {
		t.Error("negative timeout should error")
	}
	// In-order delivery is the only mode: the old unordered key is refused.
	if _, err := nakcast.ParseOptions(transport.Params{"unordered": "1"}); err == nil || !strings.Contains(err.Error(), "unknown param unordered") {
		t.Errorf("unordered=1: %v, want an unknown param error", err)
	}
	// A misspelt key must fail, not run the 10ms default timeout.
	if _, err := nakcast.ParseOptions(transport.Params{"timout": "1ms"}); err == nil {
		t.Error("misspelt key timout should error")
	}
}

func TestFactoryBuildsInstances(t *testing.T) {
	f := nakcast.Factory()
	if f.Name != nakcast.Name {
		t.Errorf("factory name %q", f.Name)
	}
	if props, err := f.Props(nil); err != nil || !props.Has(transport.PropNAKReliability) {
		t.Error("factory props missing nak-reliability")
	}
	k := sim.New(1)
	e := env.NewSim(k)
	fab := transporttest.New(e, time.Millisecond)
	cfg := transport.Config{Env: e, Endpoint: fab.Endpoint(0), Stream: 1}
	s, err := f.NewSender(cfg, transport.Params{"timeout": "1ms"})
	if err != nil || s == nil {
		t.Fatalf("NewSender: %v", err)
	}
	cfg2 := transport.Config{Env: e, Endpoint: fab.Endpoint(1), Stream: 1,
		Deliver: func(transport.Delivery) {}}
	r, err := f.NewReceiver(cfg2, transport.Params{"timeout": "1ms"})
	if err != nil || r == nil {
		t.Fatalf("NewReceiver: %v", err)
	}
	if _, err := f.NewSender(cfg, transport.Params{"timeout": "zzz"}); err == nil {
		t.Error("bad params should fail sender construction")
	}
}

func TestManyLossesAllRecovered(t *testing.T) {
	// Every 7th data packet to one of three receivers.
	const spec, samples = "nakcast(timeout=2ms)", 100
	t.Run(spec, func(t *testing.T) {
		h := newHarness(t, 3, spec)
		h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
			return pkt.Type == wire.TypeData && to == 2 && pkt.Seq%7 == 0
		}
		h.publishN(t, samples, 3*time.Millisecond)
		h.finish(t)
		for i, ds := range h.delivery {
			if len(ds) != samples {
				t.Errorf("receiver %d delivered %d, want %d", i, len(ds), samples)
			}
			for j, d := range ds {
				if d.Seq != uint64(j+1) {
					t.Fatalf("receiver %d out of order at %d", i, j)
				}
				if want := fmt.Sprintf("sample-%d", d.Seq-1); string(d.Payload) != want {
					t.Fatalf("receiver %d: seq %d payload %q, want %q", i, d.Seq, d.Payload, want)
				}
			}
		}
		if st := h.recvs[1].Stats(); st.Recovered != 14 {
			t.Errorf("receiver 1 Recovered = %d, want 14", st.Recovered)
		}
	})
}

// Eight gaps noted by one arrival share a deadline and are abandoned by one
// fireNaks: OnLost must report them in ascending order, not map order.
func TestOnLostAscending(t *testing.T) {
	h := newHarness(t, 1, "nakcast(timeout=1ms)")
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		return (pkt.Type == wire.TypeData || pkt.Type == wire.TypeRetrans) && pkt.Seq >= 3 && pkt.Seq <= 10
	}
	h.publishN(t, 12, 0) // one instant: seq 11 reveals 3..10 together
	h.finish(t)
	want := []uint64{3, 4, 5, 6, 7, 8, 9, 10}
	if fmt.Sprint(h.lost[0]) != fmt.Sprint(want) {
		t.Fatalf("OnLost order %v, want %v", h.lost[0], want)
	}
	if got := seqs(h.delivery[0]); fmt.Sprint(got) != "[1 2 11 12]" {
		t.Errorf("delivered %v, want [1 2 11 12]", got)
	}
}

// A corrupt heartbeat announcing a high seq 2^40 past the base must cost
// bounded work: the gap is clamped to the receive window, the recovery
// state stays within it, and a normal stream after it still delivers in
// order. Before the window the receiver allocated one gap record per
// announced seq and never returned.
func TestCorruptHeartbeatBounded(t *testing.T) {
	const holdbackCap = 1 << 15
	h := newHarness(t, 1, "nakcast(timeout=1ms)")
	body, err := (&wire.HeartbeatBody{HighSeq: 1 << 40}).Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	hb := &wire.Packet{Type: wire.TypeHeartbeat, Src: 0, Stream: 1, SentAt: h.k.Now(), Payload: body}
	if err := h.fab.Endpoint(0).Multicast(hb); err != nil {
		t.Fatal(err)
	}
	run := func() error { // the receiver's work happens inside the kernel runs
		for i := 0; i < 20; i++ {
			if err := h.sender.Publish([]byte("x")); err != nil {
				return err
			}
			if err := h.k.RunFor(time.Millisecond); err != nil {
				return err
			}
		}
		if err := h.sender.Close(); err != nil {
			return err
		}
		return h.k.RunFor(10 * time.Second)
	}
	done := make(chan error, 1)
	go func() { done <- run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
		st := h.recvs[0].Stats()
		if st.MaxBuffered > holdbackCap {
			t.Errorf("MaxBuffered = %d, above the %d cap", st.MaxBuffered, holdbackCap)
		}
		ds := h.delivery[0]
		if len(ds) != 20 {
			t.Fatalf("delivered %d after the corrupt heartbeat, want 20", len(ds))
		}
		for j, d := range ds {
			if d.Seq != uint64(j+1) {
				t.Fatalf("out of order: %v", seqs(ds))
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("receiver did not return from a corrupt heartbeat within 30s")
	}
}
