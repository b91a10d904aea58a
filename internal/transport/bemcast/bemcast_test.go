package bemcast_test

import (
	"testing"
	"time"

	"adamant/internal/env"
	"adamant/internal/sim"
	"adamant/internal/transport"
	"adamant/internal/transport/bemcast"
	"adamant/internal/transport/transporttest"
	"adamant/internal/wire"
)

func setup(t *testing.T, n int) (*sim.Kernel, *transporttest.Fabric, *bemcast.Sender,
	[]*bemcast.Receiver, [][]transport.Delivery) {
	t.Helper()
	k := sim.New(1)
	e := env.NewSim(k)
	fab := transporttest.New(e, time.Millisecond)
	s, err := bemcast.NewSender(transport.Config{Env: e, Endpoint: fab.Endpoint(0), Stream: 1})
	if err != nil {
		t.Fatal(err)
	}
	recvs := make([]*bemcast.Receiver, n)
	deliveries := make([][]transport.Delivery, n)
	for i := 0; i < n; i++ {
		i := i
		recvs[i], err = bemcast.NewReceiver(transport.Config{
			Env: e, Endpoint: fab.Endpoint(wire.NodeID(i + 1)), Stream: 1,
			Deliver: func(d transport.Delivery) { deliveries[i] = append(deliveries[i], d) },
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return k, fab, s, recvs, deliveries
}

func TestDeliversToAll(t *testing.T) {
	k, _, s, _, deliveries := setup(t, 3)
	for i := 0; i < 10; i++ {
		if err := s.Publish([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, ds := range deliveries {
		if len(ds) != 10 {
			t.Errorf("receiver %d got %d, want 10", i, len(ds))
		}
	}
	if s.Seq() != 10 {
		t.Errorf("Seq = %d", s.Seq())
	}
}

func TestNoRecovery(t *testing.T) {
	k, fab, s, recvs, deliveries := setup(t, 1)
	fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool { return pkt.Seq == 3 }
	for i := 0; i < 5; i++ {
		if err := s.Publish(nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(deliveries[0]) != 4 {
		t.Errorf("delivered %d, want 4 (no recovery)", len(deliveries[0]))
	}
	if st := recvs[0].Stats(); st.Recovered != 0 || st.NaksSent != 0 || st.RepairsSent != 0 {
		t.Errorf("best-effort receiver has recovery stats: %+v", st)
	}
}

func TestDuplicateAndStreamFiltering(t *testing.T) {
	k, fab, s, recvs, deliveries := setup(t, 1)
	if err := s.Publish([]byte("x")); err != nil {
		t.Fatal(err)
	}
	dup := &wire.Packet{Type: wire.TypeData, Src: 0, Stream: 1, Seq: 1, SentAt: k.Now()}
	if err := fab.Endpoint(0).Multicast(dup); err != nil {
		t.Fatal(err)
	}
	foreign := &wire.Packet{Type: wire.TypeData, Src: 0, Stream: 2, Seq: 1, SentAt: k.Now()}
	if err := fab.Endpoint(0).Multicast(foreign); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(deliveries[0]) != 1 {
		t.Errorf("delivered %d, want 1", len(deliveries[0]))
	}
	if st := recvs[0].Stats(); st.Duplicates != 1 {
		t.Errorf("Duplicates = %d, want 1", st.Duplicates)
	}
}

func TestWindowEviction(t *testing.T) {
	k, fab, s, recvs, deliveries := setup(t, 1)
	for i := 0; i < bemcast.DefaultWindow+100; i++ {
		if err := s.Publish(nil); err != nil {
			t.Fatal(err)
		}
		if i%500 == 0 {
			if err := k.RunFor(time.Second); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := bemcast.DefaultWindow + 100
	if len(deliveries[0]) != want {
		t.Fatalf("delivered %d, want %d", len(deliveries[0]), want)
	}
	// A packet far below the window must be rejected.
	stale := &wire.Packet{Type: wire.TypeData, Src: 0, Stream: 1, Seq: 1, SentAt: k.Now()}
	if err := fab.Endpoint(0).Multicast(stale); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(deliveries[0]) != want {
		t.Error("stale replay was delivered")
	}
	if st := recvs[0].Stats(); st.OutOfWindow == 0 {
		t.Error("OutOfWindow not counted")
	}
}

func TestCloseSemantics(t *testing.T) {
	_, _, s, recvs, _ := setup(t, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Publish(nil); err == nil {
		t.Error("Publish after Close should error")
	}
	if err := recvs[0].Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFactoryAndSpec(t *testing.T) {
	if bemcast.Spec().String() != "bemcast" {
		t.Errorf("Spec = %q", bemcast.Spec().String())
	}
	f := bemcast.Factory()
	if props, err := f.Props(nil); f.Name != bemcast.Name || err != nil || !props.Has(transport.PropMulticast) {
		t.Error("factory metadata wrong")
	}
	if _, err := f.NewSender(transport.Config{}, nil); err == nil {
		t.Error("invalid config should fail")
	}
	// bemcast has no parameters: any one is a spec error on either side.
	e := env.NewSim(sim.New(1))
	cfg := transport.Config{Env: e, Endpoint: transporttest.New(e, time.Millisecond).Endpoint(0), Stream: 1,
		Deliver: func(transport.Delivery) {}}
	for _, p := range []transport.Params{nil, {"x": "1"}} {
		_, errS := f.NewSender(cfg, p)
		_, errR := f.NewReceiver(cfg, p)
		if (errS == nil) != (p == nil) || (errR == nil) != (p == nil) {
			t.Errorf("params %v: sender %v, receiver %v", p, errS, errR)
		}
	}
}

// The dedup window forgets by count, exactly as the map it replaced: once
// more than DefaultWindow seqs are held, everything DefaultWindow or more
// behind the arriving packet goes. The boundary is pinned: a replay just
// below it is out of window, one at it a duplicate.
func TestWindowForgetsByCount(t *testing.T) {
	k, fab, s, recvs, _ := setup(t, 1)
	const n = bemcast.DefaultWindow + 100
	for i := 0; i < n; i++ {
		if err := s.Publish(nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if st := recvs[0].Stats(); st.MaxBuffered != bemcast.DefaultWindow+1 {
		t.Errorf("MaxBuffered = %d, want %d", st.MaxBuffered, bemcast.DefaultWindow+1)
	}
	low := uint64(n - bemcast.DefaultWindow + 1)
	for _, seq := range []uint64{low - 1, low} {
		pkt := &wire.Packet{Type: wire.TypeData, Src: 0, Stream: 1, Seq: seq, SentAt: k.Now()}
		if err := fab.Endpoint(0).Multicast(pkt); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if st := recvs[0].Stats(); st.OutOfWindow != 1 || st.Duplicates != 1 {
		t.Errorf("replays of %d and %d: OutOfWindow=%d Duplicates=%d, want 1 and 1", low-1, low, st.OutOfWindow, st.Duplicates)
	}
}

// A receiver must keep delivering however much it misses: a 20 000-seq
// outage (more than the window's span) or loss so heavy that the window
// never fills to its count before the span runs out.
func TestDeliversAfterLongGaps(t *testing.T) {
	for _, tc := range []struct {
		name string
		drop func(seq uint64) bool
	}{
		{"outage", func(seq uint64) bool { return seq > 100 && seq <= 20100 }},
		{"80% loss", func(seq uint64) bool { return seq%5 != 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 60000
			k, fab, s, recvs, deliveries := setup(t, 1)
			fab.Drop = func(_, _ wire.NodeID, pkt *wire.Packet) bool { return tc.drop(pkt.Seq) }
			want := 0
			for seq := uint64(1); seq <= n; seq++ {
				if !tc.drop(seq) {
					want++
				}
				if err := s.Publish(nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if got := len(deliveries[0]); got != want {
				t.Errorf("delivered %d, want %d", got, want)
			}
			if st := recvs[0].Stats(); st.OutOfWindow != 0 {
				t.Errorf("OutOfWindow = %d, want 0", st.OutOfWindow)
			}
		})
	}
}
