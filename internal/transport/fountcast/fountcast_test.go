package fountcast_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"adamant/internal/env"
	"adamant/internal/sim"
	"adamant/internal/transport"
	"adamant/internal/transport/fountcast"
	"adamant/internal/transport/transporttest"
	"adamant/internal/wire"
)

type harness struct {
	k        *sim.Kernel
	fab      *transporttest.Fabric
	sender   *fountcast.Sender
	recvs    []*fountcast.Receiver
	delivery [][]transport.Delivery
	lost     [][]uint64
	// onDeliver, when set, runs after each delivery is logged.
	onDeliver func(i int, d transport.Delivery)
}

// newHarness builds one sender (node 0) and n receivers (nodes 1..n) of spec
// over a 1ms-delay fabric.
func newHarness(t *testing.T, n int, spec string) *harness {
	t.Helper()
	opts := options(t, spec)
	h := &harness{k: sim.New(1)}
	e := env.NewSim(h.k)
	h.fab = transporttest.New(e, time.Millisecond)
	var err error
	h.sender, err = fountcast.NewSender(transport.Config{
		Env: e, Endpoint: h.fab.Endpoint(0), Stream: 1,
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	h.delivery = make([][]transport.Delivery, n)
	h.lost = make([][]uint64, n)
	for i := 0; i < n; i++ {
		i := i
		r, err := fountcast.NewReceiver(transport.Config{
			Env:      e,
			Endpoint: h.fab.Endpoint(wire.NodeID(i + 1)),
			Stream:   1,
			SenderID: 0,
			Deliver: func(d transport.Delivery) {
				h.delivery[i] = append(h.delivery[i], d)
				if h.onDeliver != nil {
					h.onDeliver(i, d)
				}
			},
			OnLost: func(seq uint64) { h.lost[i] = append(h.lost[i], seq) },
		}, opts)
		if err != nil {
			t.Fatal(err)
		}
		h.recvs = append(h.recvs, r)
	}
	return h
}

// options parses a fountcast spec into its options, the path every caller
// outside these tests takes through the registry.
func options(t *testing.T, spec string) fountcast.Options {
	t.Helper()
	s, err := transport.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	o, err := fountcast.ParseOptions(s.Params)
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
	if err := h.k.RunFor(5 * time.Second); err != nil {
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

func checkOrdered(t *testing.T, ds []transport.Delivery) {
	t.Helper()
	var last uint64
	for _, d := range ds {
		if d.Seq <= last {
			t.Fatalf("out of order: %v", seqs(ds))
		}
		last = d.Seq
	}
}

func TestLosslessInOrderDelivery(t *testing.T) {
	h := newHarness(t, 2, "fountcast(k=8,oh=25)")
	h.publishN(t, 20, 5*time.Millisecond)
	h.finish(t)
	for i, ds := range h.delivery {
		if len(ds) != 20 {
			t.Fatalf("receiver %d delivered %d, want 20: %v", i, len(ds), seqs(ds))
		}
		for j, d := range ds {
			if d.Seq != uint64(j+1) {
				t.Fatalf("receiver %d out of order: %v", i, seqs(ds))
			}
			if d.Recovered {
				t.Errorf("lossless run marked seq %d recovered", d.Seq)
			}
			if !bytes.Equal(d.Payload, []byte(fmt.Sprintf("sample-%d", j))) {
				t.Errorf("seq %d payload %q corrupted", d.Seq, d.Payload)
			}
		}
		st := h.recvs[i].Stats()
		if st.Recovered != 0 || st.Abandoned != 0 {
			t.Errorf("receiver %d stats %+v on lossless run", i, st)
		}
	}
}

// One dropped data packet is reconstructed from the block's repair symbol
// with no feedback round trip: the recovery completes as soon as the
// block's symbols have arrived, and the delivery carries the original
// publish timestamp and payload.
func TestSingleLossRecoveredZeroRTT(t *testing.T) {
	h := newHarness(t, 1, "fountcast(k=4,oh=25)")
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		return pkt.Type == wire.TypeData && pkt.Seq == 3
	}
	h.publishN(t, 8, 2*time.Millisecond)
	h.finish(t)
	ds := h.delivery[0]
	if len(ds) != 8 {
		t.Fatalf("delivered %d, want 8: %v", len(ds), seqs(ds))
	}
	checkOrdered(t, ds)
	for _, d := range ds {
		wantPayload := []byte(fmt.Sprintf("sample-%d", d.Seq-1))
		if !bytes.Equal(d.Payload, wantPayload) {
			t.Errorf("seq %d payload %q, want %q", d.Seq, d.Payload, wantPayload)
		}
		if (d.Seq == 3) != d.Recovered {
			t.Errorf("seq %d recovered=%v", d.Seq, d.Recovered)
		}
		if lat := d.Latency(); lat <= 0 || lat > 100*time.Millisecond {
			t.Errorf("seq %d latency %v implausible", d.Seq, lat)
		}
	}
	st := h.recvs[0].Stats()
	if st.Recovered != 1 || st.Abandoned != 0 || st.NaksSent != 0 {
		t.Errorf("stats %+v, want exactly one recovery and no NAKs", st)
	}
	if len(h.lost[0]) != 0 {
		t.Errorf("OnLost fired for %v on a recoverable loss", h.lost[0])
	}
}

// A two-packet burst inside one block is still recovered when the overhead
// budget provides two repair symbols — the failure mode that wipes out a
// fixed single-XOR panel.
func TestBurstLossWithinBudget(t *testing.T) {
	h := newHarness(t, 1, "fountcast(k=8,oh=50)") // 4 repairs/block
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		return pkt.Type == wire.TypeData && (pkt.Seq == 4 || pkt.Seq == 5)
	}
	h.publishN(t, 16, 2*time.Millisecond)
	h.finish(t)
	ds := h.delivery[0]
	if len(ds) != 16 {
		t.Fatalf("delivered %d, want 16: %v", len(ds), seqs(ds))
	}
	checkOrdered(t, ds)
	recovered := 0
	for _, d := range ds {
		if d.Recovered {
			recovered++
			if d.Seq != 4 && d.Seq != 5 {
				t.Errorf("unexpected recovery of seq %d", d.Seq)
			}
		}
	}
	if recovered != 2 {
		t.Errorf("recovered %d packets, want 2", recovered)
	}
}

// With zero overhead there are no repair symbols: a loss is abandoned after
// the hold window, OnLost fires, and in-order delivery continues past it.
func TestZeroOverheadAbandonsLoss(t *testing.T) {
	h := newHarness(t, 1, "fountcast(hold=20ms,k=4,oh=0)")
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		return pkt.Type == wire.TypeData && pkt.Seq == 6
	}
	h.publishN(t, 12, 2*time.Millisecond)
	h.finish(t)
	ds := h.delivery[0]
	if len(ds) != 11 {
		t.Fatalf("delivered %d, want 11: %v", len(ds), seqs(ds))
	}
	checkOrdered(t, ds)
	for _, d := range ds {
		if d.Seq == 6 {
			t.Fatal("seq 6 delivered despite zero overhead")
		}
	}
	st := h.recvs[0].Stats()
	if st.Abandoned != 1 {
		t.Errorf("stats.Abandoned = %d, want 1", st.Abandoned)
	}
	if len(h.lost[0]) != 1 || h.lost[0][0] != 6 {
		t.Errorf("OnLost = %v, want [6]", h.lost[0])
	}
}

// The final partial block is flushed on Close with at least one repair, so
// a tail loss is recovered without any retransmission machinery.
func TestTailBlockRecoveredOnClose(t *testing.T) {
	h := newHarness(t, 1, "fountcast(k=8,oh=25)")
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		return pkt.Type == wire.TypeData && pkt.Seq == 10
	}
	h.publishN(t, 10, 2*time.Millisecond) // blocks: 1..8 full, 9..10 partial
	h.finish(t)
	ds := h.delivery[0]
	if len(ds) != 10 {
		t.Fatalf("delivered %d, want 10: %v", len(ds), seqs(ds))
	}
	checkOrdered(t, ds)
	var gotRecovered bool
	for _, d := range ds {
		if d.Seq == 10 {
			gotRecovered = d.Recovered
			if !bytes.Equal(d.Payload, []byte("sample-9")) {
				t.Errorf("tail payload %q", d.Payload)
			}
		}
	}
	if !gotRecovered {
		t.Error("tail seq 10 not marked recovered")
	}
}

// A loss beyond the repair budget (three losses, one repair) abandons only
// the missing packets; the rest of the block still delivers.
func TestLossBeyondBudgetAbandonsOnlyMissing(t *testing.T) {
	h := newHarness(t, 1, "fountcast(hold=20ms,k=8,oh=13)") // 1 repair/block
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		return pkt.Type == wire.TypeData && (pkt.Seq == 2 || pkt.Seq == 3 || pkt.Seq == 4)
	}
	h.publishN(t, 16, 2*time.Millisecond)
	h.finish(t)
	ds := h.delivery[0]
	if len(ds) != 13 {
		t.Fatalf("delivered %d, want 13: %v", len(ds), seqs(ds))
	}
	checkOrdered(t, ds)
	st := h.recvs[0].Stats()
	if st.Abandoned != 3 {
		t.Errorf("stats.Abandoned = %d, want 3", st.Abandoned)
	}
	if len(h.lost[0]) != 3 {
		t.Errorf("OnLost = %v, want three seqs", h.lost[0])
	}
}

// The credit accumulator emits repairs at exactly the configured rate: 80
// source packets at oh=25 is 20 repair symbols, no more, no fewer.
func TestRepairRateMatchesOverhead(t *testing.T) {
	h := newHarness(t, 1, "fountcast(k=8,oh=25)")
	var symbols, data int
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		switch pkt.Type {
		case wire.TypeSymbol:
			symbols++
		case wire.TypeData:
			data++
		}
		return false
	}
	h.publishN(t, 80, time.Millisecond)
	h.finish(t)
	if data != 80 {
		t.Fatalf("observed %d data packets, want 80", data)
	}
	if symbols != 20 {
		t.Errorf("observed %d repair symbols for 80 samples at oh=25, want 20", symbols)
	}
	if len(h.delivery[0]) != 80 {
		t.Errorf("delivered %d, want 80", len(h.delivery[0]))
	}
}

// Fractional credits carry across blocks: k=4 at oh=30 is 120 credits per
// block, so blocks alternate 1,1,1,1,1 repairs with the fifth block earning
// 2 — exactly 6 repairs per 5 blocks.
func TestRepairCreditsCarry(t *testing.T) {
	h := newHarness(t, 1, "fountcast(k=4,oh=30)")
	var symbols int
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		if pkt.Type == wire.TypeSymbol {
			symbols++
		}
		return false
	}
	h.publishN(t, 20, time.Millisecond) // 5 full blocks
	h.finish(t)
	if symbols != 6 {
		t.Errorf("observed %d repairs for 20 samples at oh=30, want 6", symbols)
	}
}

func TestDuplicateDataSuppressed(t *testing.T) {
	h := newHarness(t, 1, "fountcast(k=4,oh=25)")
	h.publishN(t, 4, 2*time.Millisecond)
	h.finish(t)
	if len(h.delivery[0]) != 4 {
		t.Fatalf("delivered %d, want 4", len(h.delivery[0]))
	}
}

func TestPublishAfterCloseFails(t *testing.T) {
	h := newHarness(t, 1, "fountcast(oh=0)")
	if err := h.sender.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.sender.Publish([]byte("x")); err != transport.ErrClosed {
		t.Errorf("Publish after Close = %v, want ErrClosed", err)
	}
	if err := h.sender.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
}

func TestBaseSeqRebasedSequenceSpace(t *testing.T) {
	// A hot-swap generation starting at BaseSeq=100 numbers its first
	// sample 101 and receivers reject anything at or below the base.
	h := &harness{k: sim.New(1)}
	e := env.NewSim(h.k)
	h.fab = transporttest.New(e, time.Millisecond)
	opts := options(t, "fountcast(k=4,oh=25)")
	var err error
	h.sender, err = fountcast.NewSender(transport.Config{
		Env: e, Endpoint: h.fab.Endpoint(0), Stream: 1, BaseSeq: 100,
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	h.delivery = make([][]transport.Delivery, 1)
	r, err := fountcast.NewReceiver(transport.Config{
		Env:      e,
		Endpoint: h.fab.Endpoint(1),
		Stream:   1,
		SenderID: 0,
		BaseSeq:  100,
		Deliver:  func(d transport.Delivery) { h.delivery[0] = append(h.delivery[0], d) },
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	h.recvs = []*fountcast.Receiver{r}
	h.publishN(t, 6, 2*time.Millisecond)
	h.finish(t)
	ds := h.delivery[0]
	if len(ds) != 6 {
		t.Fatalf("delivered %d, want 6: %v", len(ds), seqs(ds))
	}
	if ds[0].Seq != 101 || ds[5].Seq != 106 {
		t.Errorf("seqs %v, want 101..106", seqs(ds))
	}
}

// A block whose final seq is abandoned rather than delivered is freed like
// any other once the cursor sweeps past it: the window slides past the
// block. With zero overhead, dropping the last packet of every block forces
// the cursor through the abandoned branch at each block boundary.
func TestAbandonedTailBlockFreed(t *testing.T) {
	h := newHarness(t, 1, "fountcast(hold=10ms,k=4,oh=0)")
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		return pkt.Type == wire.TypeData && pkt.Seq%4 == 0 && pkt.Seq < 40
	}
	h.publishN(t, 40, 2*time.Millisecond) // 10 blocks; blocks 0..8 lose their tail
	h.finish(t)
	ds := h.delivery[0]
	if len(ds) != 31 {
		t.Fatalf("delivered %d, want 31: %v", len(ds), seqs(ds))
	}
	checkOrdered(t, ds)
	st := h.recvs[0].Stats()
	if st.Abandoned != 9 {
		t.Errorf("Abandoned = %d, want 9", st.Abandoned)
	}
	if got := h.recvs[0].OpenBlocks(); got != 0 {
		t.Errorf("OpenBlocks = %d after full drain, want 0 (abandoned-tail blocks leaked)", got)
	}
}

// A repair symbol for a block the cursor has freed finds no record: it is
// counted OutOfWindow and dropped, charges no decode work, and reopens
// nothing.
func TestSymbolForFreedBlockDropped(t *testing.T) {
	h := newHarness(t, 1, "fountcast(k=4,oh=25)")
	h.publishN(t, 4, time.Millisecond) // one block; its one symbol follows its data
	h.finish(t)
	if got := len(h.delivery[0]); got != 4 {
		t.Fatalf("delivered %d, want 4", got)
	}
	if st := h.recvs[0].Stats(); st.OutOfWindow != 1 {
		t.Errorf("OutOfWindow = %d, want 1 (the late symbol)", st.OutOfWindow)
	}
	if got, want := h.fab.Endpoint(1).WorkCharged, 4*50*time.Microsecond; got != want { // 50µs per delivery
		t.Errorf("work charged %v, want %v: the late symbol was decoded", got, want)
	}
	if got := h.recvs[0].OpenBlocks(); got != 0 {
		t.Errorf("OpenBlocks = %d, want 0: the late symbol reopened its block", got)
	}
}

// The receiver's recovery state (holdback entries + buffered equations +
// abandoned set) stays bounded even when every other packet is lost.
func TestRecoveryStateBounded(t *testing.T) {
	h := newHarness(t, 1, "fountcast(hold=10ms,k=8,oh=25)")
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		return pkt.Type == wire.TypeData && pkt.Seq%2 == 0
	}
	const n = 200
	h.publishN(t, n, time.Millisecond)
	h.finish(t)
	st := h.recvs[0].Stats()
	if st.MaxBuffered > n+64 {
		t.Errorf("MaxBuffered = %d for a %d-sample stream", st.MaxBuffered, n)
	}
	if got := len(h.delivery[0]); got < n/2 {
		t.Errorf("delivered %d, want at least the surviving half (%d)", got, n/2)
	}
	checkOrdered(t, h.delivery[0])
}

// Two wholly lost blocks revealed by one arrival get the same hold deadline
// and are abandoned by one fireHold: OnLost must report their seqs strictly
// ascending, not in block-map order.
func TestOnLostAscendingAcrossBlocks(t *testing.T) {
	h := newHarness(t, 1, "fountcast(hold=20ms,k=4,oh=0)")
	h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
		return pkt.Type == wire.TypeData && pkt.Seq >= 5 && pkt.Seq <= 12 // blocks 1 and 2
	}
	h.publishN(t, 16, 0) // one instant: seq 13 reveals both blocks together
	h.finish(t)
	want := []uint64{5, 6, 7, 8, 9, 10, 11, 12}
	if fmt.Sprint(h.lost[0]) != fmt.Sprint(want) {
		t.Fatalf("OnLost order %v, want %v", h.lost[0], want)
	}
	checkOrdered(t, h.delivery[0])
}

// A stream runs past any block count, and the receiver's work stays flat:
// at every delivery its block records number at most the blocks between
// the delivered seq and the sender's newest. K=1 makes every seq a block
// (20 000 samples, one in ten lost, with and without a trickle of
// symbols); K=8 at 25 % overhead streams 100 000 samples calm, under 5 %
// uniform loss, and under Gilbert-Elliott burst loss. Every sample is
// delivered or reported lost, once, and only late symbols fall outside the
// window (none at all without symbols).
func TestLongStreamKeepsDelivering(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bad := false
	cases := []struct {
		name, spec string
		n, minLost int
		drop       func(seq uint64) bool
	}{
		{"oh=0", "fountcast(hold=2ms,k=1,oh=0)", 20000, 1800, func(seq uint64) bool { return seq%10 == 0 }},
		{"oh=1", "fountcast(hold=2ms,k=1,oh=1)", 20000, 1800, func(seq uint64) bool { return seq%10 == 0 }},
		{"k=8-calm", "fountcast(k=8,oh=25)", 100000, 0, func(uint64) bool { return false }},
		{"k=8-loss=5%", "fountcast(k=8,oh=25)", 100000, 0, func(uint64) bool { return rng.Float64() < 0.05 }},
		{"k=8-burst", "fountcast(k=8,oh=25)", 100000, 0, func(uint64) bool {
			if bad {
				bad = rng.Float64() >= 0.25
			} else {
				bad = rng.Float64() < 0.02
			}
			return bad
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newHarness(t, 1, c.spec)
			k := uint64(options(t, c.spec).K)
			symbols := uint64(0)
			h.fab.Drop = func(_, _ wire.NodeID, pkt *wire.Packet) bool {
				if pkt.Type == wire.TypeSymbol {
					symbols++
				}
				return pkt.Type == wire.TypeData && c.drop(pkt.Seq)
			}
			worst := 0
			h.onDeliver = func(_ int, d transport.Delivery) {
				inFlight := int((h.sender.Seq()-1)/k - (d.Seq-1)/k + 1)
				if open := h.recvs[0].OpenBlocks(); open > inFlight {
					worst = max(worst, open-inFlight)
				}
			}
			h.publishN(t, c.n, time.Millisecond)
			h.finish(t)
			if worst > 0 {
				t.Errorf("OpenBlocks exceeded the blocks in flight by up to %d", worst)
			}
			// The window never refuses a data packet: only a symbol for a
			// block the cursor has freed lands outside it.
			if st := h.recvs[0].Stats(); st.OutOfWindow > symbols {
				t.Errorf("OutOfWindow = %d, want at most the %d symbols sent", st.OutOfWindow, symbols)
			}
			ds := h.delivery[0]
			checkOrdered(t, ds)
			got := make(map[uint64]bool, c.n)
			for _, d := range ds {
				got[d.Seq] = true
			}
			for _, seq := range h.lost[0] {
				if got[seq] {
					t.Fatalf("seq %d delivered and reported lost, or reported twice", seq)
				}
				got[seq] = true
			}
			if len(got) != c.n || len(h.lost[0]) < c.minLost {
				t.Errorf("delivered %d + reported lost %d cover %d of %d samples, want at least %d lost",
					len(ds), len(h.lost[0]), len(got), c.n, c.minLost)
			}
		})
	}
}
