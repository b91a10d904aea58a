package ricochet_test

import (
	"fmt"
	"testing"
	"time"

	"adamant/internal/env"
	"adamant/internal/sim"
	"adamant/internal/transport"
	"adamant/internal/transport/ricochet"
	"adamant/internal/transport/transporttest"
	"adamant/internal/wire"
)

type harness struct {
	k        *sim.Kernel
	e        *env.SimEnv
	fab      *transporttest.Fabric
	sender   *ricochet.Sender
	recvs    []*ricochet.Receiver
	delivery [][]transport.Delivery
	lost     [][]uint64
}

// fast is a publish gap under which every XOR group of these tests fills
// before the 8 ms flush: a group of r spans (r-1) gaps, and r is at most 8
// here. Receiver i is node i+1 and skips its first (i+1) mod r receptions,
// so with every packet received its groups start at seq (i+1) mod r + 1.
// The fabric charges no CPU time, so only the 13 ms decode path delays a
// delivery.
const fast = time.Millisecond

// newHarness builds one sender (node 0) and n receivers (nodes 1..n) of spec
// over a 1ms-delay fabric.
func newHarness(t *testing.T, n int, spec string) *harness {
	t.Helper()
	parsed, err := transport.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := ricochet.ParseOptions(parsed.Params)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{k: sim.New(1)}
	h.e = env.NewSim(h.k)
	h.fab = transporttest.New(h.e, time.Millisecond)
	receiverIDs := make([]wire.NodeID, n)
	for i := range receiverIDs {
		receiverIDs[i] = wire.NodeID(i + 1)
	}
	h.sender, err = ricochet.NewSender(transport.Config{
		Env: h.e, Endpoint: h.fab.Endpoint(0), Stream: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.delivery = make([][]transport.Delivery, n)
	h.lost = make([][]uint64, n)
	for i := 0; i < n; i++ {
		i := i
		r, err := ricochet.NewReceiver(transport.Config{
			Env:       h.e,
			Endpoint:  h.fab.Endpoint(wire.NodeID(i + 1)),
			Stream:    1,
			SenderID:  0,
			Receivers: transport.StaticReceivers(receiverIDs...),
			Deliver:   func(d transport.Delivery) { h.delivery[i] = append(h.delivery[i], d) },
			OnLost:    func(seq uint64) { h.lost[i] = append(h.lost[i], seq) },
		}, opts)
		if err != nil {
			t.Fatal(err)
		}
		h.recvs = append(h.recvs, r)
	}
	return h
}

func (h *harness) publishN(t *testing.T, n int, gap time.Duration) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := h.sender.Publish([]byte(fmt.Sprintf("sample-%02d", i))); err != nil {
			t.Fatal(err)
		}
		if err := h.k.RunFor(gap); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.k.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func find(ds []transport.Delivery, seq uint64) (transport.Delivery, bool) {
	for _, d := range ds {
		if d.Seq == seq {
			return d, true
		}
	}
	return transport.Delivery{}, false
}

func TestLosslessImmediateDelivery(t *testing.T) {
	h := newHarness(t, 3, "ricochet(c=2,r=4)")
	h.publishN(t, 20, fast)
	for i, ds := range h.delivery {
		if len(ds) != 20 {
			t.Fatalf("receiver %d delivered %d, want 20", i, len(ds))
		}
		for _, d := range ds {
			if d.Recovered {
				t.Errorf("receiver %d: seq %d marked recovered in lossless run", i, d.Seq)
			}
			if lat := d.Latency(); lat != time.Millisecond {
				t.Errorf("latency %v, want exactly the fabric delay (immediate delivery)", lat)
			}
		}
	}
}

func TestRepairsAreEmitted(t *testing.T) {
	h := newHarness(t, 3, "ricochet(c=2,r=4)")
	h.publishN(t, 20, fast)
	for i, r := range h.recvs {
		st := r.Stats()
		// Receiver i groups 20-(i+1) packets: four full groups of R=4 and a
		// flushed partial one, 5 repair rounds, each to 1..2 distinct peers
		// (C=2 draws with replacement over 2 peers).
		if st.RepairsSent < 5 || st.RepairsSent > 10 {
			t.Errorf("receiver %d RepairsSent = %d, want 5..10", i, st.RepairsSent)
		}
		// Peers received everything directly, so repairs decode nothing.
		if st.RepairsUsed != 0 {
			t.Errorf("receiver %d RepairsUsed = %d, want 0", i, st.RepairsUsed)
		}
		if st.RepairsUseless == 0 {
			t.Errorf("receiver %d saw no repairs at all", i)
		}
	}
}

func TestSingleLossRecoveredLaterally(t *testing.T) {
	h := newHarness(t, 3, "ricochet(c=2,r=4)")
	// Node 1 loses seq 5, which the full groups [3..6] of node 2 and
	// [4..7] of node 3 cover.
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		return pkt.Type == wire.TypeData && pkt.Seq == 5 && to == 1
	}
	h.publishN(t, 12, fast)
	ds := h.delivery[0]
	if len(ds) != 12 {
		t.Fatalf("delivered %d, want 12 (seq 5 must be repaired)", len(ds))
	}
	d, ok := find(ds, 5)
	if !ok {
		t.Fatal("seq 5 never delivered")
	}
	if !d.Recovered {
		t.Error("seq 5 not marked recovered")
	}
	if string(d.Payload) != "sample-04" {
		t.Errorf("recovered payload = %q, want %q", d.Payload, "sample-04")
	}
	// Latency reflects the original send time, so it includes the wait for
	// the covering group to fill (seq 6 sent 1ms after seq 5 at the
	// earliest), the repair's hop and the 13ms decode path.
	if lat := d.Latency(); lat < 15*time.Millisecond {
		t.Errorf("recovered latency %v, want >= 15ms (group fill, hops and decode)", lat)
	}
	if st := h.recvs[0].Stats(); st.RepairsUsed != 1 {
		t.Errorf("RepairsUsed = %d, want 1", st.RepairsUsed)
	}
	// Undamaged receivers deliver everything directly.
	for i := 1; i < 3; i++ {
		if len(h.delivery[i]) != 12 {
			t.Errorf("receiver %d delivered %d, want 12", i, len(h.delivery[i]))
		}
	}
}

func TestNoHeadOfLineBlocking(t *testing.T) {
	h := newHarness(t, 3, "ricochet(c=2,r=4)")
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		return pkt.Type == wire.TypeData && pkt.Seq == 5 && to == 1
	}
	h.publishN(t, 8, fast)
	ds := h.delivery[0]
	d6, ok := find(ds, 6)
	if !ok {
		t.Fatal("seq 6 missing")
	}
	if lat := d6.Latency(); lat != time.Millisecond {
		t.Errorf("seq 6 latency %v; Ricochet must not head-of-line block", lat)
	}
	// Delivery order is arrival order: 6 comes before the recovered 5.
	pos := map[uint64]int{}
	for i, d := range ds {
		pos[d.Seq] = i
	}
	if _, ok := pos[5]; !ok || pos[6] > pos[5] {
		t.Error("seq 6 delivered after recovered seq 5 (or 5 never); expected immediate delivery")
	}
}

func TestTwoLossesInOneGroupUnrecoverable(t *testing.T) {
	h := newHarness(t, 3, "ricochet(c=2,r=4)")
	// Seqs 5 and 6 both fall in node 2's group [3..6] and node 3's [4..7],
	// and no peer group holds one without the other.
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		return pkt.Type == wire.TypeData && to == 1 && (pkt.Seq == 5 || pkt.Seq == 6)
	}
	h.publishN(t, 8, fast)
	ds := h.delivery[0]
	if _, ok := find(ds, 5); ok {
		t.Error("seq 5 recovered despite double loss in its XOR group")
	}
	if _, ok := find(ds, 6); ok {
		t.Error("seq 6 recovered despite double loss in its XOR group")
	}
	if len(ds) != 6 {
		t.Errorf("delivered %d, want 6 (residual loss is expected)", len(ds))
	}
}

// TestPendingRepairCascade drives the cascade with hand-built repairs.
// Receiver 1 misses seqs 4 and 5. A repair over [2..5] misses both and is
// buffered; one over [5..8] misses only 5 and decodes it, after which the
// buffered repair misses only 4 and decodes that too.
func TestPendingRepairCascade(t *testing.T) {
	h := newHarness(t, 2, "ricochet(c=1,r=4)")
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		if to != 1 {
			return false
		}
		// Receiver 1 (index 0) loses 4 and 5, and all organic repairs, so
		// only our handcrafted ones count.
		if pkt.Type == wire.TypeData && (pkt.Seq == 4 || pkt.Seq == 5) {
			return true
		}
		return pkt.Type == wire.TypeRepair && pkt.Src != 0
	}
	h.publishN(t, 8, 5*time.Millisecond)
	if len(h.delivery[0]) != 6 {
		t.Fatalf("precondition: delivered %d, want 6", len(h.delivery[0]))
	}

	// The repairs fold the sender's packets: sample s-1 as seq s, published
	// 5ms apart from Epoch, as the delivered ones confirm.
	sent := func(s uint64) *wire.Packet {
		return &wire.Packet{Seq: s, SentAt: sim.Epoch.Add(time.Duration(s-1) * 5 * time.Millisecond),
			Payload: []byte(fmt.Sprintf("sample-%02d", s-1))}
	}
	for _, d := range h.delivery[0] {
		if !d.SentAt.Equal(sent(d.Seq).SentAt) {
			t.Fatalf("precondition: seq %d sent at %v, want %v", d.Seq, d.SentAt, sent(d.Seq).SentAt)
		}
	}
	mk := func(lo, hi uint64) *wire.Packet {
		var group []*wire.Packet
		for s := lo; s <= hi; s++ {
			group = append(group, sent(s))
		}
		body, err := wire.AppendRepair(nil, group)
		if err != nil {
			t.Fatal(err)
		}
		return &wire.Packet{Type: wire.TypeRepair, Src: 0, Stream: 1, Seq: hi,
			SentAt: h.k.Now(), Payload: body}
	}
	h.fab.Drop = nil
	if err := h.fab.Endpoint(0).Unicast(1, mk(2, 5)); err != nil { // stuck: misses 4,5
		t.Fatal(err)
	}
	if err := h.k.RunFor(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(h.delivery[0]) != 6 {
		t.Fatalf("stuck repair should not decode yet; delivered %d", len(h.delivery[0]))
	}
	if err := h.fab.Endpoint(0).Unicast(1, mk(5, 8)); err != nil { // decodes 5, cascades to 4
		t.Fatal(err)
	}
	if err := h.k.RunFor(20 * time.Millisecond); err != nil { // past the 13ms decode path
		t.Fatal(err)
	}
	ds := h.delivery[0]
	if len(ds) != 8 {
		t.Fatalf("cascade failed: delivered %d, want 8", len(ds))
	}
	d4, _ := find(ds, 4)
	d5, _ := find(ds, 5)
	if !d4.Recovered || !d5.Recovered {
		t.Error("cascaded packets not marked recovered")
	}
	if string(d4.Payload) != "sample-03" || string(d5.Payload) != "sample-04" {
		t.Errorf("cascade payloads wrong: %q, %q", d4.Payload, d5.Payload)
	}
	for _, d := range []transport.Delivery{d4, d5} {
		if !d.SentAt.Equal(sent(d.Seq).SentAt) {
			t.Errorf("recovered seq %d sent at %v, want %v", d.Seq, d.SentAt, sent(d.Seq).SentAt)
		}
	}
}

func TestDuplicateSuppression(t *testing.T) {
	h := newHarness(t, 1, "ricochet(c=1,r=4)")
	for i := 0; i < 5; i++ {
		if err := h.sender.Publish([]byte("x")); err != nil {
			t.Fatal(err)
		}
		dup := &wire.Packet{Type: wire.TypeData, Src: 0, Stream: 1,
			Seq: h.sender.Seq(), SentAt: h.k.Now(), Payload: []byte("x")}
		if err := h.fab.Endpoint(0).Multicast(dup); err != nil {
			t.Fatal(err)
		}
		if err := h.k.RunFor(5 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(h.delivery[0]); got != 5 {
		t.Errorf("delivered %d, want 5", got)
	}
	if st := h.recvs[0].Stats(); st.Duplicates != 5 {
		t.Errorf("Duplicates = %d, want 5", st.Duplicates)
	}
}

func TestRepairTargetsRespectC(t *testing.T) {
	// 6 receivers, C=2: each repair round sends at most 2 unicasts (C
	// draws with replacement, deduplicated). Every receiver skips at most
	// 3 of the 8 packets, so it groups one full group and one flushed
	// partial one.
	h := newHarness(t, 6, "ricochet(c=2,r=4)")
	h.publishN(t, 8, fast)
	for i, r := range h.recvs {
		if st := r.Stats(); st.RepairsSent < 2 || st.RepairsSent > 4 { // 2 rounds x 1..2
			t.Errorf("receiver %d RepairsSent = %d, want 2..4", i, st.RepairsSent)
		}
	}
}

func TestSingleReceiverNoRepairs(t *testing.T) {
	h := newHarness(t, 1, "ricochet(c=3,r=2)")
	h.publishN(t, 10, 2*time.Millisecond)
	if st := h.recvs[0].Stats(); st.RepairsSent != 0 {
		t.Errorf("RepairsSent = %d with no peers", st.RepairsSent)
	}
	if len(h.delivery[0]) != 10 {
		t.Errorf("delivered %d, want 10", len(h.delivery[0]))
	}
}

// Past the 4 096-packet cache the oldest quarter is evicted: a replay of
// seq 1 is then out of window, not a duplicate.
func TestWindowEviction(t *testing.T) {
	const n = 4096 + 100
	h := newHarness(t, 2, "ricochet(c=1,r=4)")
	h.publishN(t, n, time.Millisecond)
	if len(h.delivery[0]) != n {
		t.Fatalf("delivered %d, want %d", len(h.delivery[0]), n)
	}
	// Replay an ancient packet: must be rejected as out-of-window.
	stale := &wire.Packet{Type: wire.TypeData, Src: 0, Stream: 1, Seq: 1,
		SentAt: h.k.Now(), Payload: []byte("stale")}
	if err := h.fab.Endpoint(0).Multicast(stale); err != nil {
		t.Fatal(err)
	}
	if err := h.k.RunFor(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(h.delivery[0]) != n {
		t.Error("stale packet was re-delivered")
	}
	if st := h.recvs[0].Stats(); st.OutOfWindow != 1 || st.Duplicates != 0 {
		t.Errorf("OutOfWindow = %d, Duplicates = %d; want the stale packet out of window", st.OutOfWindow, st.Duplicates)
	}
}

func TestStreamFiltering(t *testing.T) {
	h := newHarness(t, 1, "ricochet(c=1,r=4)")
	other := &wire.Packet{Type: wire.TypeData, Src: 0, Stream: 99, Seq: 1,
		SentAt: h.k.Now(), Payload: []byte("other-stream")}
	if err := h.fab.Endpoint(0).Multicast(other); err != nil {
		t.Fatal(err)
	}
	if err := h.k.RunFor(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(h.delivery[0]) != 0 {
		t.Error("delivered a packet from a foreign stream")
	}
}

func TestPublishAfterClose(t *testing.T) {
	h := newHarness(t, 1, "ricochet")
	if err := h.sender.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.sender.Publish([]byte("x")); err == nil {
		t.Error("Publish after Close should error")
	}
	if err := h.recvs[0].Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSpecAndParseOptions(t *testing.T) {
	spec := ricochet.Spec(4, 3)
	if spec.String() != "ricochet(c=3,r=4)" {
		t.Errorf("Spec = %q", spec.String())
	}
	o, err := ricochet.ParseOptions(spec.Params)
	if err != nil || o.R != 4 || o.C != 3 {
		t.Errorf("ParseOptions: %+v, %v", o, err)
	}
	for _, bad := range []transport.Params{
		{"r": "1"},            // r < 2
		{"r": "4097"},         // r past the 4 096-packet cache
		{"c": "0"},            // c < 1
		{"r": "x"},            // unparsable
		{"c": "y"},            // unparsable
		{"flush": "8ms"},      // retired key: the flush is a constant
		{"stagger": "1"},      // retired key: the offset is the node ID mod r
		{"r": "4", "cc": "3"}, // unknown key
	} {
		if _, err := ricochet.ParseOptions(bad); err == nil {
			t.Errorf("ParseOptions(%v) should error", bad)
		}
	}
}

func TestFactoryBuildsInstances(t *testing.T) {
	f := ricochet.Factory()
	if props, err := f.Props(nil); f.Name != ricochet.Name || err != nil || !props.Has(transport.PropFEC) {
		t.Errorf("factory metadata wrong: %q %v %v", f.Name, props, err)
	}
	k := sim.New(1)
	e := env.NewSim(k)
	fab := transporttest.New(e, time.Millisecond)
	s, err := f.NewSender(transport.Config{Env: e, Endpoint: fab.Endpoint(0), Stream: 1},
		transport.Params{"r": "4", "c": "3"})
	if err != nil || s == nil {
		t.Fatalf("NewSender: %v", err)
	}
	if _, err := f.NewSender(transport.Config{Env: e, Endpoint: fab.Endpoint(0)},
		transport.Params{"r": "bad"}); err == nil {
		t.Error("bad params should fail")
	}
	r, err := f.NewReceiver(transport.Config{Env: e, Endpoint: fab.Endpoint(1), Stream: 1,
		Receivers: transport.StaticReceivers(1), Deliver: func(transport.Delivery) {}},
		transport.Params{})
	if err != nil || r == nil {
		t.Fatalf("NewReceiver: %v", err)
	}
}

func TestHigherRLowersRepairTrafficButWeakensRecovery(t *testing.T) {
	run := func(r int, dropEvery uint64) (recovered uint64, repairs uint64) {
		h := newHarness(t, 3, fmt.Sprintf("ricochet(c=2,r=%d)", r))
		h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
			return pkt.Type == wire.TypeData && to == 1 && pkt.Seq%dropEvery == 0
		}
		h.publishN(t, 64, fast)
		st := h.recvs[0].Stats()
		return st.Recovered, h.recvs[1].Stats().RepairsSent
	}
	_, repairsR4 := run(4, 9)
	_, repairsR8 := run(8, 9)
	if repairsR8 >= repairsR4 {
		t.Errorf("R=8 repairs (%d) should be fewer than R=4 (%d)", repairsR8, repairsR4)
	}
	recR4, _ := run(4, 9)
	if recR4 == 0 {
		t.Error("R=4 recovered nothing at 1/9 loss")
	}
}

// Packets claiming seqs 2^40 ahead must not make the receiver walk the gap:
// before the window had a span cap they filled the cache, became the
// eviction cutoff, and the lost-report walk from the low-water mark up to
// them never returned. Now the window slides up to them, reporting one
// span of the gap seq by seq and counting the rest in one sum; one more
// far packet than the 4 096-packet cache holds evicts, which reports the
// rest of the gap, so every skipped seq is abandoned exactly once. The
// real stream, now below the window, is out of window.
func TestFarFutureSeqsBounded(t *testing.T) {
	const bogus, span = 4096 + 1, 4 * 4096
	h := newHarness(t, 1, "ricochet(c=1,r=4)")
	h.publishN(t, 3, time.Millisecond)
	for i := uint64(0); i < bogus; i++ {
		far := &wire.Packet{Type: wire.TypeData, Src: 0, Stream: 1, Seq: 1<<40 + i,
			SentAt: h.k.Now(), Payload: []byte("far")}
		if err := h.fab.Endpoint(0).Multicast(far); err != nil {
			t.Fatal(err)
		}
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
		return h.k.RunFor(5 * time.Second)
	}
	done := make(chan error, 1)
	go func() { done <- run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
		if got := len(h.delivery[0]); got != 3+bogus {
			t.Errorf("delivered %d, want the first 3 real samples and the %d far ones", got, bogus)
		}
		st := h.recvs[0].Stats()
		if st.OutOfWindow != 20 {
			t.Errorf("OutOfWindow = %d, want the 20 real samples after the jump", st.OutOfWindow)
		}
		if want := uint64(1<<40 - 4); st.Abandoned != want {
			t.Errorf("Abandoned = %d, want %d: every seq from 4 to 2^40-1 once", st.Abandoned, want)
		}
		if n := len(h.lost[0]); n > 2*span {
			t.Errorf("OnLost reported %d seqs, want at most two spans (%d)", n, 2*span)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("receiver did not return from far-future seqs within 30s")
	}
}

// A receiver that misses 20 000 seqs in one stretch — more than the
// window's span — must carry on with the rest of the stream, and report
// every seq it missed, once and in order.
func TestLongOutageKeepsDelivering(t *testing.T) {
	const first, outage, after = 100, 20000, 4900
	h := newHarness(t, 1, "ricochet")
	h.fab.Drop = func(_, _ wire.NodeID, pkt *wire.Packet) bool {
		return pkt.Seq > first && pkt.Seq <= first+outage
	}
	h.publishN(t, first+outage+after, 0)
	if got := len(h.delivery[0]); got != first+after {
		t.Fatalf("delivered %d, want %d", got, first+after)
	}
	if n := len(h.lost[0]); n != outage || h.lost[0][0] != first+1 || h.lost[0][n-1] != first+outage {
		t.Fatalf("OnLost reported %d seqs, want %d..%d", n, first+1, first+outage)
	}
	for i := 1; i < len(h.lost[0]); i++ {
		if h.lost[0][i] != h.lost[0][i-1]+1 {
			t.Fatalf("OnLost out of order at %d: %d after %d", i, h.lost[0][i], h.lost[0][i-1])
		}
	}
	if st := h.recvs[0].Stats(); st.OutOfWindow != 0 || st.Abandoned != outage {
		t.Errorf("OutOfWindow = %d, Abandoned = %d; want 0 and %d", st.OutOfWindow, st.Abandoned, outage)
	}
}

// At the end of stream every seq a receiver could not recover is reported
// lost once, after the peers' last repairs have had time to arrive, and a
// copy of it that turns up later is not delivered. Repeats of the end of
// stream arm no second report.
func TestTailLossReportedOnceAtEOS(t *testing.T) {
	h := newHarness(t, 1, "ricochet(c=1,r=4)")
	h.fab.Drop = func(_, _ wire.NodeID, pkt *wire.Packet) bool {
		return pkt.Type == wire.TypeData && pkt.Seq >= 9
	}
	h.publishN(t, 10, time.Millisecond)
	if len(h.lost[0]) != 0 {
		t.Fatalf("OnLost reported %v before the end of stream", h.lost[0])
	}
	eos, err := (&wire.HeartbeatBody{HighSeq: 10}).Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	repeat := func(pkts ...*wire.Packet) {
		t.Helper()
		pkts = append(pkts, &wire.Packet{Type: wire.TypeHeartbeat, Flags: wire.FlagEOS,
			Src: 0, Stream: 1, Seq: 10, SentAt: h.k.Now(), Payload: eos})
		for _, pkt := range pkts {
			if err := h.fab.Endpoint(0).Multicast(pkt); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Close's end of stream and a repeat, as a sender binding's linger
	// sends it: once both have arrived, the one tail report is the only
	// event left.
	if err := h.sender.Close(); err != nil {
		t.Fatal(err)
	}
	repeat()
	if err := h.k.RunFor(2 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if n := h.k.Pending(); n != 1 {
		t.Fatalf("%d events pending after two end-of-stream heartbeats, want the one tail report", n)
	}
	if err := h.k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(h.lost[0]) != "[9 10]" {
		t.Fatalf("OnLost reported %v at the end of stream, want [9 10]", h.lost[0])
	}
	// A late copy of seq 9, then the end of stream again.
	h.fab.Drop = nil
	repeat(&wire.Packet{Type: wire.TypeData, Src: 0, Stream: 1, Seq: 9, SentAt: h.k.Now(), Payload: []byte("late")})
	if err := h.k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := find(h.delivery[0], 9); ok {
		t.Error("seq 9 delivered after it was reported lost")
	}
	if fmt.Sprint(h.lost[0]) != "[9 10]" {
		t.Errorf("OnLost reported %v, want [9 10] once", h.lost[0])
	}
	if st := h.recvs[0].Stats(); st.OutOfWindow != 1 {
		t.Errorf("OutOfWindow = %d, want 1 (the late copy)", st.OutOfWindow)
	}
}

// The end-of-stream grace is two flush periods and a decode, so it outlasts
// a peer's last lateral repair whose hop is at most a flush plus a decode.
// The last sample reaches node 2 only, with the end of stream; at R=2 node
// 2 skips no reception (2 mod 2 = 0), so its flushed copy of the one-packet
// group lands at node 1 one flush period plus the hop after that. Within
// the grace the sample is delivered from the repair; past it the sample is
// reported lost once, and the late repair is dead: counted useless, never
// delivered.
func TestTailRepairInsideEOSGrace(t *testing.T) {
	for _, tc := range []struct {
		name      string
		extraHop  time.Duration // added to the fabric's 1ms on the repair
		recovered bool
	}{
		{"hop within a flush", 0, true},
		{"hop within the grace", 19 * time.Millisecond, true}, // lands 1ms before it ends
		{"hop past the grace", 30 * time.Millisecond, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, 2, "ricochet(c=1,r=2)")
			held := false
			h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
				if pkt.Type == wire.TypeRepair && tc.extraHop > 0 && !held {
					held = true
					late := pkt.Clone()
					h.e.After(tc.extraHop, func() { _ = h.fab.Endpoint(from).Unicast(to, late) })
					return true
				}
				return pkt.Type == wire.TypeData && to == 1
			}
			if err := h.sender.Publish([]byte("last")); err != nil {
				t.Fatal(err)
			}
			if err := h.sender.Close(); err != nil {
				t.Fatal(err)
			}
			if err := h.k.RunFor(time.Second); err != nil {
				t.Fatal(err)
			}
			d, ok := find(h.delivery[0], 1)
			if tc.recovered && (!ok || !d.Recovered) {
				t.Errorf("seq 1 delivered %v (recovered %v), want delivered from the peer's repair", ok, d.Recovered)
			}
			if !tc.recovered && ok {
				t.Error("seq 1 delivered from a repair that arrived after it was reported lost")
			}
			want := map[bool]string{true: "[]", false: "[1]"}[tc.recovered]
			if got := fmt.Sprint(h.lost[0]); got != want {
				t.Errorf("node 1 reported %s lost, want %s", got, want)
			}
			if st := h.recvs[0].Stats(); !tc.recovered && st.RepairsUseless != 1 {
				t.Errorf("RepairsUseless = %d, want 1 (the late repair)", st.RepairsUseless)
			}
		})
	}
}
