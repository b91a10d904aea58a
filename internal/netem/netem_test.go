package netem

import (
	"strings"
	"testing"
	"time"

	"adamant/internal/env"
	"adamant/internal/sim"
	"adamant/internal/wire"
)

func newTestNet(t *testing.T, cfg Config, seed int64) (*Network, *sim.Kernel) {
	t.Helper()
	k := sim.New(seed)
	n, err := New(env.NewSim(k), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n, k
}

func dataPkt(src wire.NodeID, seq uint64, at time.Time, payload string) *wire.Packet {
	return &wire.Packet{Type: wire.TypeData, Src: src, Stream: 1, Seq: seq,
		SentAt: at, Payload: []byte(payload)}
}

func TestUnicastDelivers(t *testing.T) {
	n, k := newTestNet(t, Config{}, 1)
	a := n.AddNode(PC3000)
	b := n.AddNode(PC3000)
	var got *wire.Packet
	var gotSrc wire.NodeID
	b.SetHandler(func(src wire.NodeID, pkt *wire.Packet) { gotSrc, got = src, pkt })
	if err := a.Unicast(b.Local(), dataPkt(a.Local(), 7, k.Now(), "payload")); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if gotSrc != a.Local() || got.Seq != 7 || string(got.Payload) != "payload" {
		t.Errorf("got src=%d pkt=%+v", gotSrc, got)
	}
}

func TestUnicastErrors(t *testing.T) {
	n, k := newTestNet(t, Config{}, 1)
	a := n.AddNode(PC3000)
	if err := a.Unicast(99, dataPkt(0, 1, k.Now(), "x")); err == nil {
		t.Error("unicast to unknown node should error")
	}
	if err := a.Unicast(a.Local(), dataPkt(0, 1, k.Now(), "x")); err == nil {
		t.Error("unicast to self should error")
	}
	big := dataPkt(0, 1, k.Now(), strings.Repeat("x", 10000))
	n.AddNode(PC3000)
	if err := a.Unicast(1, big); err == nil {
		t.Error("oversize payload should error")
	}
}

func TestMulticastReachesAllOthers(t *testing.T) {
	n, k := newTestNet(t, Config{}, 1)
	sender := n.AddNode(PC3000)
	const receivers = 5
	got := make([]int, receivers)
	for i := 0; i < receivers; i++ {
		i := i
		r := n.AddNode(PC3000)
		r.SetHandler(func(src wire.NodeID, pkt *wire.Packet) { got[i]++ })
	}
	senderGot := 0
	sender.SetHandler(func(wire.NodeID, *wire.Packet) { senderGot++ })
	if err := sender.Multicast(dataPkt(sender.Local(), 1, k.Now(), "m")); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, g := range got {
		if g != 1 {
			t.Errorf("receiver %d got %d packets, want 1", i, g)
		}
	}
	if senderGot != 0 {
		t.Error("sender received its own multicast")
	}
}

func TestLatencyComponents(t *testing.T) {
	// The end-to-end latency is deterministic: send CPU (18µs + 3µs/KB) +
	// 2x serialization + propagation + recv CPU (26µs + 3µs/KB).
	n, k := newTestNet(t, Config{Bandwidth: Mbps100}, 1)
	a := n.AddNode(PC3000)
	b := n.AddNode(PC3000)
	var deliveredAt time.Time
	b.SetHandler(func(wire.NodeID, *wire.Packet) { deliveredAt = k.Now() })
	pkt := dataPkt(a.Local(), 1, k.Now(), "123456789012") // 12-byte payload
	frame := pkt.EncodedSize() + FrameOverhead
	ser := time.Duration(float64(frame*8) / float64(Mbps100) * float64(time.Second))
	perKB := time.Duration(frame) * 3 * time.Microsecond / 1024
	want := k.Now().Add(18*time.Microsecond + perKB + 2*ser + DefaultPropDelay + 26*time.Microsecond + perKB)
	if err := a.Unicast(b.Local(), pkt); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if d := deliveredAt.Sub(want); d < -time.Microsecond || d > time.Microsecond {
		t.Errorf("delivered at %v, want %v (delta %v)", deliveredAt, want, d)
	}
}

func TestSlowMachineHasHigherLatency(t *testing.T) {
	measure := func(m Machine) time.Duration {
		k := sim.New(1)
		n, err := New(env.NewSim(k), Config{})
		if err != nil {
			t.Fatal(err)
		}
		a := n.AddNode(m)
		b := n.AddNode(m)
		var at time.Time
		b.SetHandler(func(wire.NodeID, *wire.Packet) { at = k.Now() })
		start := k.Now()
		if err := a.Unicast(b.Local(), dataPkt(a.Local(), 1, start, "x")); err != nil {
			t.Fatal(err)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return at.Sub(start)
	}
	fast, slow := measure(PC3000), measure(PC850)
	if slow <= fast {
		t.Errorf("pc850 latency %v should exceed pc3000 latency %v", slow, fast)
	}
	if ratio := float64(slow) / float64(fast); ratio < 2 {
		t.Errorf("pc850/pc3000 latency ratio = %.2f, want >= 2 (CPU-bound path)", ratio)
	}
}

func TestLowerBandwidthHasHigherLatency(t *testing.T) {
	measure := func(bw Bandwidth) time.Duration {
		k := sim.New(1)
		n, err := New(env.NewSim(k), Config{Bandwidth: bw})
		if err != nil {
			t.Fatal(err)
		}
		a := n.AddNode(PC3000)
		b := n.AddNode(PC3000)
		var at time.Time
		b.SetHandler(func(wire.NodeID, *wire.Packet) { at = k.Now() })
		start := k.Now()
		if err := a.Unicast(b.Local(), dataPkt(a.Local(), 1, start, "x")); err != nil {
			t.Fatal(err)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return at.Sub(start)
	}
	if m10, g1 := measure(Mbps10), measure(Gbps1); m10 <= g1 {
		t.Errorf("10Mb latency %v should exceed 1Gb latency %v", m10, g1)
	}
}

func TestCPUQueueingUnderLoad(t *testing.T) {
	// Back-to-back packets on a slow receiver must queue on its CPU: the
	// k-th delivery is later than k * recvCost after the first.
	n, k := newTestNet(t, Config{}, 1)
	a := n.AddNode(PC3000)
	b := n.AddNode(PC850)
	var times []time.Time
	b.SetHandler(func(wire.NodeID, *wire.Packet) { times = append(times, k.Now()) })
	for i := 0; i < 10; i++ {
		if err := a.Unicast(b.Local(), dataPkt(a.Local(), uint64(i), k.Now(), "x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 10 {
		t.Fatalf("delivered %d, want 10", len(times))
	}
	recvCost := time.Duration(float64(26*time.Microsecond) * PC850.CPUFactor)
	minSpread := time.Duration(9) * recvCost
	if spread := times[9].Sub(times[0]); spread < minSpread {
		t.Errorf("delivery spread %v, want >= %v (CPU serialization)", spread, minSpread)
	}
}

func TestEndHostLossRate(t *testing.T) {
	n, k := newTestNet(t, Config{}, 42)
	a := n.AddNode(PC3000)
	b := n.AddNode(PC3000)
	b.SetLoss(5)
	got := 0
	b.SetHandler(func(wire.NodeID, *wire.Packet) { got++ })
	const sent = 20000
	for i := 0; i < sent; i++ {
		if err := a.Unicast(b.Local(), dataPkt(a.Local(), uint64(i), k.Now(), "x")); err != nil {
			t.Fatal(err)
		}
		// Space sends out to avoid egress queue drops.
		if err := k.RunFor(time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	lossPct := 100 * float64(sent-got) / float64(sent)
	if lossPct < 4.0 || lossPct > 6.0 {
		t.Errorf("observed loss %.2f%%, want ~5%%", lossPct)
	}
	if drops := b.Stats().DroppedLoss; drops != uint64(sent-got) {
		t.Errorf("DroppedLoss = %d, want %d", drops, sent-got)
	}
}

func TestLossSparesControlPackets(t *testing.T) {
	n, k := newTestNet(t, Config{}, 7)
	a := n.AddNode(PC3000)
	b := n.AddNode(PC3000)
	b.SetLoss(100) // drop all data-bearing packets
	gotData, gotNak := 0, 0
	b.SetHandler(func(_ wire.NodeID, pkt *wire.Packet) {
		switch pkt.Type {
		case wire.TypeData:
			gotData++
		case wire.TypeNak:
			gotNak++
		}
	})
	for i := 0; i < 50; i++ {
		if err := a.Unicast(b.Local(), dataPkt(a.Local(), uint64(i), k.Now(), "x")); err != nil {
			t.Fatal(err)
		}
		nak := &wire.Packet{Type: wire.TypeNak, Src: a.Local(), Stream: 1, SentAt: k.Now()}
		if err := a.Unicast(b.Local(), nak); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if gotData != 0 {
		t.Errorf("got %d data packets through 100%% loss", gotData)
	}
	if gotNak != 50 {
		t.Errorf("got %d NAKs, want 50 (control traffic must bypass end-host loss)", gotNak)
	}
}

func TestSetLossClamps(t *testing.T) {
	n, _ := newTestNet(t, Config{}, 1)
	a := n.AddNode(PC3000)
	a.SetLoss(-5)
	if a.lossPct != 0 {
		t.Errorf("negative loss not clamped: %v", a.lossPct)
	}
	a.SetLoss(150)
	if a.lossPct != 100 {
		t.Errorf("loss > 100 not clamped: %v", a.lossPct)
	}
}

func TestPartitionDropsEverything(t *testing.T) {
	n, k := newTestNet(t, Config{}, 1)
	a := n.AddNode(PC3000)
	b := n.AddNode(PC3000)
	got := 0
	b.SetHandler(func(wire.NodeID, *wire.Packet) { got++ })
	b.SetPartitioned(true)
	if err := a.Unicast(b.Local(), dataPkt(a.Local(), 1, k.Now(), "x")); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Error("partitioned node received a packet")
	}
	b.SetPartitioned(false)
	if err := a.Unicast(b.Local(), dataPkt(a.Local(), 2, k.Now(), "x")); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Error("healed node did not receive")
	}
}

func TestBurstLossDropsInBursts(t *testing.T) {
	n, k := newTestNet(t, Config{}, 9)
	a := n.AddNode(PC3000)
	b := n.AddNode(PC3000)
	b.SetBurstLoss(0.02, 0.3, 1.0)
	var outcomes []bool // true = delivered
	received := map[uint64]bool{}
	b.SetHandler(func(_ wire.NodeID, pkt *wire.Packet) { received[pkt.Seq] = true })
	const sent = 5000
	for i := 0; i < sent; i++ {
		if err := a.Unicast(b.Local(), dataPkt(a.Local(), uint64(i), k.Now(), "x")); err != nil {
			t.Fatal(err)
		}
		if err := k.RunFor(time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < sent; i++ {
		outcomes = append(outcomes, received[i])
	}
	losses, runs := 0, 0
	for i := 0; i < len(outcomes); i++ {
		if !outcomes[i] {
			losses++
			if i == 0 || outcomes[i-1] {
				runs++
			}
		}
	}
	if losses == 0 {
		t.Fatal("burst loss model dropped nothing")
	}
	if avgRun := float64(losses) / float64(runs); avgRun < 1.5 {
		t.Errorf("average loss-run length %.2f, want bursty (>= 1.5)", avgRun)
	}
	b.SetBurstLoss(0, 0, 0) // disable must not panic
}

func TestEgressQueueDrop(t *testing.T) {
	// Flood a 10Mb link with 100 big frames, about 1ms each: the frames
	// that would wait past the 50ms queue bound are dropped at the egress
	// queue.
	n, k := newTestNet(t, Config{Bandwidth: Mbps10}, 1)
	a := n.AddNode(PC3000)
	b := n.AddNode(PC3000)
	got := 0
	b.SetHandler(func(wire.NodeID, *wire.Packet) { got++ })
	payload := strings.Repeat("x", 1200)
	for i := 0; i < 100; i++ {
		if err := a.Unicast(b.Local(), dataPkt(a.Local(), uint64(i), k.Now(), payload)); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if a.Stats().DroppedQueue == 0 {
		t.Error("expected egress queue drops under flood")
	}
	if got == 0 {
		t.Error("everything was dropped; queue bound too aggressive")
	}
	// The link admits about one frame per serialization time for 50ms of
	// queue, plus a few for the sender CPU time each frame queues for first.
	frame := dataPkt(a.Local(), 1, k.Now(), payload).EncodedSize() + FrameOverhead
	ser := time.Duration(float64(frame*8) / float64(Mbps10) * float64(time.Second))
	if lo := int(50 * time.Millisecond / ser); got < lo || got > lo+3 {
		t.Errorf("delivered %d, want %d..%d at a 50ms queue bound", got, lo, lo+3)
	}
	if got+int(a.Stats().DroppedQueue) != 100 {
		t.Errorf("delivered %d + dropped %d != 100", got, a.Stats().DroppedQueue)
	}
}

func TestStatsAndBandwidthCounters(t *testing.T) {
	n, k := newTestNet(t, Config{}, 1)
	a := n.AddNode(PC3000)
	b := n.AddNode(PC3000)
	b.SetHandler(func(wire.NodeID, *wire.Packet) {})
	pkt := dataPkt(a.Local(), 1, k.Now(), "hello")
	frame := uint64(pkt.EncodedSize() + FrameOverhead)
	if err := a.Unicast(b.Local(), pkt); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if s := a.Stats(); s.TxPackets != 1 || s.TxBytes != frame {
		t.Errorf("sender stats = %+v", s)
	}
	if s := b.Stats(); s.RxPackets != 1 || s.RxBytes != frame {
		t.Errorf("receiver stats = %+v", s)
	}
	if b.RxBandwidth().Total() != frame {
		t.Errorf("rx bandwidth total = %d, want %d", b.RxBandwidth().Total(), frame)
	}
}

func TestWorkConsumesCPU(t *testing.T) {
	n, k := newTestNet(t, Config{}, 1)
	a := n.AddNode(PC3000)
	b := n.AddNode(PC850)
	var first time.Time
	b.SetHandler(func(wire.NodeID, *wire.Packet) {
		if first.IsZero() {
			first = k.Now()
		}
	})
	// Baseline delivery time without Work.
	if err := a.Unicast(b.Local(), dataPkt(a.Local(), 1, k.Now(), "x")); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	baseline := first.Sub(sim.Epoch)

	// Same send with 1ms of reference-cost Work on the receiver first:
	// delivery must shift by >= 4ms (pc850 factor 4).
	k2 := sim.New(1)
	n2, err := New(env.NewSim(k2), Config{})
	if err != nil {
		t.Fatal(err)
	}
	a2 := n2.AddNode(PC3000)
	b2 := n2.AddNode(PC850)
	var first2 time.Time
	b2.SetHandler(func(wire.NodeID, *wire.Packet) {
		if first2.IsZero() {
			first2 = k2.Now()
		}
	})
	b2.Work(time.Millisecond)
	b2.Work(-time.Millisecond) // negative is ignored
	if err := a2.Unicast(b2.Local(), dataPkt(a2.Local(), 1, k2.Now(), "x")); err != nil {
		t.Fatal(err)
	}
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
	// The 4ms of scaled Work overlaps the packet's in-flight time, so the
	// shift is 4ms minus the pre-CPU portion of the baseline path.
	shifted := first2.Sub(sim.Epoch)
	if delta := shifted - baseline; delta < 4*time.Millisecond-baseline {
		t.Errorf("Work shifted delivery by %v, want >= %v", delta, 4*time.Millisecond-baseline)
	}
}

func TestProcScale(t *testing.T) {
	n, _ := newTestNet(t, Config{}, 1)
	a := n.AddNode(PC3000)
	a.SetProcScale(2)
	if a.procScale != 2 {
		t.Error("SetProcScale did not stick")
	}
	a.SetProcScale(-1)
	if a.procScale != 1 {
		t.Error("non-positive scale should reset to 1")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []uint64 {
		k := sim.New(33)
		n, err := New(env.NewSim(k), Config{})
		if err != nil {
			t.Fatal(err)
		}
		a := n.AddNode(PC3000)
		b := n.AddNode(PC3000)
		b.SetLoss(20)
		var seqs []uint64
		b.SetHandler(func(_ wire.NodeID, pkt *wire.Packet) { seqs = append(seqs, pkt.Seq) })
		for i := 0; i < 200; i++ {
			if err := a.Unicast(b.Local(), dataPkt(a.Local(), uint64(i), k.Now(), "x")); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return seqs
	}
	x, y := run(), run()
	if len(x) != len(y) {
		t.Fatalf("run lengths differ: %d vs %d", len(x), len(y))
	}
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("runs diverge at %d", i)
		}
	}
}

func TestMachineAndBandwidthLookup(t *testing.T) {
	m, err := MachineByName("pc850")
	if err != nil || m != PC850 {
		t.Errorf("MachineByName(pc850) = %+v, %v", m, err)
	}
	if _, err := MachineByName("pdp11"); err == nil {
		t.Error("unknown machine should error")
	}
	bw, err := BandwidthByName("100Mb")
	if err != nil || bw != Mbps100 {
		t.Errorf("BandwidthByName(100Mb) = %v, %v", bw, err)
	}
	if _, err := BandwidthByName("2Gb"); err == nil {
		t.Error("unknown bandwidth should error")
	}
	if Mbps10.String() != "10Mb" || Gbps1.String() != "1Gb" || Bandwidth(5).String() != "5bps" {
		t.Error("Bandwidth.String labels wrong")
	}
}

func TestConfigValidation(t *testing.T) {
	k := sim.New(1)
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil env should error")
	}
	if _, err := New(env.NewSim(k), Config{Bandwidth: -1}); err == nil {
		t.Error("negative bandwidth should error")
	}
}

func TestNodeLookup(t *testing.T) {
	n, _ := newTestNet(t, Config{}, 1)
	a := n.AddNode(PC3000)
	if n.Node(a.Local()) != a {
		t.Error("Node lookup failed")
	}
	if n.Node(42) != nil {
		t.Error("unknown node should be nil")
	}
	if len(n.Nodes()) != 1 {
		t.Error("Nodes() wrong length")
	}
}
