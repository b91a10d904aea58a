package transport_test

import (
	"testing"
	"time"

	"adamant/internal/env"
	"adamant/internal/sim"
	"adamant/internal/transport"
	"adamant/internal/transport/protocols"
	"adamant/internal/transport/transporttest"
	"adamant/internal/wire"
)

// bindingRig is a one-writer/two-reader fabric with hot-swap bindings on
// both sides.
type bindingRig struct {
	k       *sim.Kernel
	fab     *transporttest.Fabric
	sender  *transport.SenderBinding
	readers [2]*transport.ReceiverBinding
	got     [2][]transport.Delivery
	lost    [2][]uint64
	changes [2][]string
}

func newBindingRig(t *testing.T, initial string) *bindingRig {
	t.Helper()
	reg := protocols.MustRegistry()
	spec, err := transport.ParseSpec(initial)
	if err != nil {
		t.Fatal(err)
	}
	rig := &bindingRig{k: sim.New(1)}
	e := env.NewSim(rig.k)
	rig.fab = transporttest.New(e, time.Millisecond)
	receivers := transport.StaticReceivers(1, 2)

	rig.sender, err = transport.NewSenderBinding(transport.BindingConfig{
		Config: transport.Config{
			Env: e, Endpoint: rig.fab.Endpoint(0), Stream: 1, Receivers: receivers,
		},
		Registry: reg,
		Spec:     spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		i := i
		rig.readers[i], err = transport.NewReceiverBinding(transport.BindingConfig{
			Config: transport.Config{
				Env: e, Endpoint: rig.fab.Endpoint(wire.NodeID(i + 1)), Stream: 1,
				SenderID: 0, Receivers: receivers,
				Deliver: func(d transport.Delivery) { rig.got[i] = append(rig.got[i], d) },
				OnLost:  func(seq uint64) { rig.lost[i] = append(rig.lost[i], seq) },
			},
			Registry: reg,
			Spec:     spec,
			OnTransportChanged: func(_ uint16, s transport.Spec) {
				rig.changes[i] = append(rig.changes[i], s.String())
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return rig
}

func (rig *bindingRig) publish(t *testing.T, n int, gap time.Duration) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := rig.sender.Publish([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if err := rig.k.RunFor(gap); err != nil {
			t.Fatal(err)
		}
	}
}

func (rig *bindingRig) finish(t *testing.T) {
	t.Helper()
	if err := rig.sender.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rig.k.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// checkComplete asserts every receiver saw exactly seqs 1..total, strictly
// ascending (ordering across the swap) when ordered is true, with no
// duplicates either way.
func (rig *bindingRig) checkComplete(t *testing.T, total int, ordered bool) {
	t.Helper()
	for i := 0; i < 2; i++ {
		seen := make(map[uint64]bool, total)
		prev := uint64(0)
		for _, d := range rig.got[i] {
			if seen[d.Seq] {
				t.Errorf("receiver %d: duplicate seq %d", i, d.Seq)
			}
			seen[d.Seq] = true
			if ordered && d.Seq <= prev {
				t.Errorf("receiver %d: seq %d delivered after %d", i, d.Seq, prev)
			}
			prev = d.Seq
		}
		if len(rig.got[i]) != total {
			t.Errorf("receiver %d: delivered %d samples, want %d (lost %v)",
				i, len(rig.got[i]), total, rig.lost[i])
		}
		if st := rig.readers[i].Stats(); st.Delivered != uint64(len(rig.got[i])) {
			t.Errorf("receiver %d: Stats().Delivered = %d, app saw %d", i, st.Delivered, len(rig.got[i]))
		}
	}
}

func TestBindingCalmSwapOrderedToOrdered(t *testing.T) {
	rig := newBindingRig(t, "nakcast(timeout=2ms)")
	rig.publish(t, 20, 2*time.Millisecond)
	if err := rig.sender.Swap(mustSpec(t, "ackcast(rto=10ms)")); err != nil {
		t.Fatal(err)
	}
	rig.publish(t, 20, 2*time.Millisecond)
	rig.finish(t)

	rig.checkComplete(t, 40, true)
	if rig.sender.Epoch() != 1 || rig.sender.Swaps() != 1 {
		t.Errorf("sender epoch/swaps = %d/%d, want 1/1", rig.sender.Epoch(), rig.sender.Swaps())
	}
	chain := rig.sender.Chain()
	if len(chain) != 2 || chain[1].Cut != 20 || chain[1].Spec != "ackcast(rto=10ms)" {
		t.Errorf("chain = %+v", chain)
	}
	for i := 0; i < 2; i++ {
		if len(rig.changes[i]) != 1 || rig.changes[i][0] != "ackcast(rto=10ms)" {
			t.Errorf("receiver %d: TransportChanged calls = %v", i, rig.changes[i])
		}
		epochs := rig.readers[i].Epochs()
		if len(epochs) != 2 {
			t.Fatalf("receiver %d: %d epochs, want 2", i, len(epochs))
		}
		e0 := epochs[0]
		if !e0.Done || !e0.CutKnown || e0.Cut != 20 || e0.Base != 0 {
			t.Errorf("receiver %d: epoch 0 = %+v, want done with (0,20]", i, e0)
		}
	}
}

func TestBindingSwapToUnordered(t *testing.T) {
	rig := newBindingRig(t, "nakcast(timeout=2ms)")
	rig.publish(t, 15, 2*time.Millisecond)
	if err := rig.sender.Swap(mustSpec(t, "ricochet(r=4,c=1)")); err != nil {
		t.Fatal(err)
	}
	rig.publish(t, 15, 2*time.Millisecond)
	rig.finish(t)
	// Ricochet is unordered, so only completeness and uniqueness hold.
	rig.checkComplete(t, 30, false)
}

// An unordered nakcast epoch promises no ordering, so its stragglers do not
// hold back the next epoch: with seq 5 lost to receiver 0 and a 50 ms NAK
// timeout, the new epoch's samples reach that receiver first, and the old
// epoch is done as soon as its cut is known while its recovery still runs.
func TestBindingUnorderedEpochDoesNotGate(t *testing.T) {
	rig := newBindingRig(t, "nakcast(timeout=50ms,unordered=1)")
	rig.fab.Drop = func(_, to wire.NodeID, pkt *wire.Packet) bool {
		return to == 1 && pkt.Type == wire.TypeData && pkt.Epoch == 0 && pkt.Seq == 5
	}
	rig.publish(t, 10, 2*time.Millisecond)
	if err := rig.sender.Swap(mustSpec(t, "nakcast(timeout=1ms)")); err != nil {
		t.Fatal(err)
	}
	rig.publish(t, 5, 2*time.Millisecond)
	if e0 := rig.readers[0].Epochs()[0]; !e0.CutKnown || !e0.Done {
		t.Errorf("epoch 0 = %+v, want done once its cut is known", e0)
	}
	rig.finish(t)
	rig.checkComplete(t, 15, false)
	pos := map[uint64]int{}
	for j, d := range rig.got[0] {
		pos[d.Seq] = j
	}
	if pos[5] < pos[11] {
		t.Errorf("recovered seq 5 delivered at %d, before new-epoch seq 11 at %d: the unordered epoch gated the next",
			pos[5], pos[11])
	}
}

// The synthetic EOS still opens an unordered nakcast epoch's tail-gap NAKs:
// with its real EOS heartbeat and its tail sample both lost to receiver 0,
// the tail is recovered only through the binding's injected heartbeat.
func TestBindingUnorderedEpochTailViaSyntheticEOS(t *testing.T) {
	rig := newBindingRig(t, "nakcast(timeout=2ms,unordered=1)")
	rig.fab.Drop = func(_, to wire.NodeID, pkt *wire.Packet) bool {
		return to == 1 && pkt.Epoch == 0 &&
			(pkt.Type == wire.TypeHeartbeat || pkt.Type == wire.TypeData && pkt.Seq == 10)
	}
	rig.publish(t, 10, 2*time.Millisecond)
	if err := rig.sender.Swap(mustSpec(t, "nakcast(timeout=1ms)")); err != nil {
		t.Fatal(err)
	}
	rig.publish(t, 5, 2*time.Millisecond)
	rig.finish(t)
	rig.checkComplete(t, 15, false)
	if st := rig.readers[0].Stats(); st.Recovered != 1 {
		t.Errorf("receiver 0 recovered %d samples, want the tail seq 10", st.Recovered)
	}
}

// TestBindingSwapWithAnnounceLoss drops the first two rebind announcements:
// new-epoch packets arriving before the chain is learned must be parked and
// replayed, not lost — even on the best-effort transport.
func TestBindingSwapWithAnnounceLoss(t *testing.T) {
	rig := newBindingRig(t, "bemcast")
	dropped := 0
	rig.fab.Drop = func(_, _ wire.NodeID, pkt *wire.Packet) bool {
		if pkt.Type == wire.TypeRebind && dropped < 4 {
			dropped++ // two receivers x two announcements
			return true
		}
		return false
	}
	rig.publish(t, 10, 2*time.Millisecond)
	if err := rig.sender.Swap(mustSpec(t, "nakcast(timeout=2ms)")); err != nil {
		t.Fatal(err)
	}
	rig.publish(t, 10, 2*time.Millisecond)
	rig.finish(t)
	if dropped != 4 {
		t.Fatalf("dropped %d announcements, want 4", dropped)
	}
	rig.checkComplete(t, 20, false)
	for i := 0; i < 2; i++ {
		if rig.readers[i].ParkedDrops() != 0 {
			t.Errorf("receiver %d: %d parked drops", i, rig.readers[i].ParkedDrops())
		}
	}
}

// TestBindingSwapDuringLoss drops a mid-stream run of old-epoch DATA to one
// receiver right before the swap: the closed old sender must still serve
// the NAK backfill, and the new epoch's deliveries must wait for it.
func TestBindingSwapDuringLoss(t *testing.T) {
	rig := newBindingRig(t, "nakcast(timeout=2ms)")
	rig.fab.Drop = func(_, to wire.NodeID, pkt *wire.Packet) bool {
		return to == 2 && pkt.Type == wire.TypeData && pkt.Seq >= 16 && pkt.Seq <= 19
	}
	rig.publish(t, 20, 2*time.Millisecond)
	if err := rig.sender.Swap(mustSpec(t, "ackcast(rto=10ms)")); err != nil {
		t.Fatal(err)
	}
	rig.publish(t, 20, 2*time.Millisecond)
	rig.finish(t)
	rig.checkComplete(t, 40, true)
	for i := 0; i < 2; i++ {
		epochs := rig.readers[i].Epochs()
		if !epochs[0].Done {
			t.Errorf("receiver %d: old epoch never drained: %+v", i, epochs[0])
		}
	}
	// Receiver 1 (node 2) recovered its gap via retransmission.
	if st := rig.readers[1].Stats(); st.Recovered == 0 {
		t.Error("receiver 1 recovered nothing despite dropped packets")
	}
}

// TestBindingFlappingSwaps performs back-to-back swaps (including an empty
// epoch with zero published samples) and checks the whole chain drains.
func TestBindingFlappingSwaps(t *testing.T) {
	rig := newBindingRig(t, "nakcast(timeout=2ms)")
	rig.publish(t, 8, 2*time.Millisecond)
	if err := rig.sender.Swap(mustSpec(t, "ackcast(rto=10ms)")); err != nil {
		t.Fatal(err)
	}
	// Swap again immediately: epoch 1 ends empty.
	if err := rig.sender.Swap(mustSpec(t, "nakcast(timeout=2ms)")); err != nil {
		t.Fatal(err)
	}
	rig.publish(t, 8, 2*time.Millisecond)
	if err := rig.sender.Swap(mustSpec(t, "bemcast")); err != nil {
		t.Fatal(err)
	}
	rig.publish(t, 8, 2*time.Millisecond)
	rig.finish(t)
	rig.checkComplete(t, 24, false)
	if got := rig.sender.Swaps(); got != 3 {
		t.Errorf("Swaps() = %d, want 3", got)
	}
	for i := 0; i < 2; i++ {
		epochs := rig.readers[i].Epochs()
		if len(epochs) != 4 {
			t.Fatalf("receiver %d: %d epochs, want 4", i, len(epochs))
		}
		if e1 := epochs[1]; !e1.Done || e1.Base != e1.Cut {
			t.Errorf("receiver %d: empty epoch 1 = %+v, want done with empty slice", i, e1)
		}
	}
}

func TestBindingSwapSameSpecIsNoOp(t *testing.T) {
	rig := newBindingRig(t, "nakcast(timeout=2ms)")
	rig.publish(t, 5, 2*time.Millisecond)
	if err := rig.sender.Swap(mustSpec(t, "nakcast(timeout=2ms)")); err != nil {
		t.Fatal(err)
	}
	if rig.sender.Swaps() != 0 || rig.sender.Epoch() != 0 {
		t.Errorf("same-spec swap changed state: swaps=%d epoch=%d", rig.sender.Swaps(), rig.sender.Epoch())
	}
	rig.finish(t)
	rig.checkComplete(t, 5, true)
}

func TestBindingClosedSwapFails(t *testing.T) {
	rig := newBindingRig(t, "bemcast")
	rig.finish(t)
	if err := rig.sender.Swap(mustSpec(t, "nakcast(timeout=2ms)")); err != transport.ErrClosed {
		t.Errorf("Swap after Close = %v, want ErrClosed", err)
	}
}

func TestBindingDrainLatencyReported(t *testing.T) {
	rig := newBindingRig(t, "nakcast(timeout=2ms)")
	rig.fab.Drop = func(_, to wire.NodeID, pkt *wire.Packet) bool {
		return to == 1 && pkt.Type == wire.TypeData && pkt.Seq == 10
	}
	rig.publish(t, 10, 2*time.Millisecond)
	if err := rig.sender.Swap(mustSpec(t, "ackcast(rto=10ms)")); err != nil {
		t.Fatal(err)
	}
	rig.publish(t, 5, 2*time.Millisecond)
	rig.finish(t)
	rig.checkComplete(t, 15, true)
	// Receiver 0 (node 1) had a tail loss pending at swap time, so its old
	// epoch drained strictly after the handoff.
	if e0 := rig.readers[0].Epochs()[0]; e0.DrainLatency <= 0 {
		t.Errorf("epoch 0 drain latency = %v, want > 0", e0.DrainLatency)
	}
}

// A rebind record whose spec names a key its protocol does not read is not
// learned: the receiver waits for a well-formed announcement, as for any
// spec it cannot instantiate, and then learns the epoch.
func TestBindingRecordWithUnknownParamNotLearned(t *testing.T) {
	rig := newBindingRig(t, "nakcast(timeout=5ms)")
	announce := func(spec string) {
		body, err := (&wire.RebindBody{Records: []wire.RebindRecord{
			{Epoch: 0, Cut: 0, Spec: "nakcast(timeout=5ms)"},
			{Epoch: 1, Cut: 0, Spec: spec},
		}}).Encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		pkt := &wire.Packet{Type: wire.TypeRebind, Src: 0, Stream: 1, Epoch: 1, SentAt: rig.k.Now(), Payload: body}
		if err := rig.fab.Endpoint(0).Multicast(pkt); err != nil {
			t.Fatal(err)
		}
		if err := rig.k.RunFor(10 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	announce("nakcast(timout=1ms)")
	for i, r := range rig.readers {
		if r.Epoch() != 0 || len(rig.changes[i]) != 0 {
			t.Errorf("receiver %d learned a misspelt record: epoch %d, changes %v", i, r.Epoch(), rig.changes[i])
		}
	}
	announce("nakcast(timeout=1ms)")
	for i, r := range rig.readers {
		if r.Epoch() != 1 {
			t.Errorf("receiver %d: epoch %d after a well-formed record, want 1", i, r.Epoch())
		}
	}
}

func mustSpec(t *testing.T, s string) transport.Spec {
	t.Helper()
	spec, err := transport.ParseSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}
