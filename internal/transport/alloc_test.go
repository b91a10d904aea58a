package transport_test

import (
	"runtime"
	"testing"
	"time"

	"adamant/internal/env"
	"adamant/internal/sim"
	"adamant/internal/transport"
	"adamant/internal/transport/nakcast"
	"adamant/internal/transport/protocols"
	"adamant/internal/wire"
)

// loopEndpoint hands packets straight to the receiver under test: no
// network, no CPU model, and every send is dropped, so what a run allocates
// is the receive path's own work.
type loopEndpoint struct {
	handler func(src wire.NodeID, pkt *wire.Packet)
}

func (e *loopEndpoint) Local() wire.NodeID                           { return 1 }
func (e *loopEndpoint) MTU() int                                     { return 64 * 1024 }
func (e *loopEndpoint) Unicast(wire.NodeID, *wire.Packet) error      { return nil }
func (e *loopEndpoint) Multicast(*wire.Packet) error                 { return nil }
func (e *loopEndpoint) Work(time.Duration) time.Duration             { return 0 }
func (e *loopEndpoint) ScaleCPU(d time.Duration) time.Duration       { return d }
func (e *loopEndpoint) SetHandler(h func(wire.NodeID, *wire.Packet)) { e.handler = h }

// TestReceiveAllocs pins the allocations per 100 received packets of
// in-order receive on every transport's receiver, each built from a spec
// through the registry, of nakcast recovering one loss in every two
// packets (a gap, its NAK timer, the retransmission), and of ricochet
// receiving useless repairs (each covering four seqs it holds, as most
// repairs do). Arming a timer allocates nothing: the kernel recycles every
// event and hands out a value handle, so nakcast's NAK timer and
// ricochet's flush timer cost 0. fountcast allocates its block record and
// entries per block of eight. No receiver copies a payload: it keeps the
// packet it is handed, and reads a repair in place. The bounds are this
// tree's measured values; CHANGES.md records the parent's.
func TestReceiveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the measured path")
	}
	reg := protocols.MustRegistry()
	cases := []struct {
		name, spec    string
		loss, useless bool
		max           float64
	}{
		{"nakcast", "nakcast", false, false, 0.5},
		{"nakcast-loss", "nakcast", true, false, 0.5},
		{"bemcast", "bemcast", false, false, 0.5},
		{"ricochet", "ricochet(c=3,r=4)", false, false, 0.5},
		{"ricochet-useless-repair", "ricochet(c=3,r=4)", false, true, 0.5},
		{"fountcast", "fountcast(k=8,oh=25)", false, false, 25.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := transport.ParseSpec(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			ep := &loopEndpoint{}
			delivered := 0
			recv, err := reg.NewReceiver(spec, transport.Config{
				Env: env.NewSim(sim.New(1)), Endpoint: ep, Stream: 1,
				Deliver: func(transport.Delivery) { delivered++ },
			})
			if err != nil {
				t.Fatal(err)
			}
			// A handler may keep the packet it is given, so each receive
			// gets a fresh one, from one slice made before the measured runs:
			// 100 per step over 50 warm steps and AllocsPerRun's 501, plus
			// the four data packets a useless repair covers.
			pkts := make([]wire.Packet, 551*100+4)
			payload := []byte("sample-00000")
			var seq uint64
			feed := func(typ wire.Type, s uint64, payload []byte) {
				pkt := &pkts[0]
				pkts = pkts[1:]
				*pkt = wire.Packet{Type: typ, Stream: 1, Seq: s, SentAt: sim.Epoch, Payload: payload}
				ep.handler(0, pkt)
			}
			// The useless repairs cover seqs 1..4, which the receiver holds
			// before the warm steps.
			var repair []byte
			if tc.useless {
				var group []*wire.Packet
				for seq < 4 {
					seq++
					feed(wire.TypeData, seq, payload)
					group = append(group, &wire.Packet{Seq: seq, SentAt: sim.Epoch, Payload: payload})
				}
				if repair, err = wire.AppendRepair(nil, group); err != nil {
					t.Fatal(err)
				}
			}
			step := func() { // 100 packets
				for i := 0; i < 100; i++ {
					if tc.useless {
						feed(wire.TypeRepair, 4, repair)
						continue
					}
					if tc.loss && i%2 == 0 {
						seq += 2
						feed(wire.TypeData, seq, payload)      // seq-1 is a gap
						feed(wire.TypeRetrans, seq-1, payload) // and recovered
						i++
						continue
					}
					seq++
					feed(wire.TypeData, seq, payload)
				}
			}
			for i := 0; i < 50; i++ { // warm: window grown, arena chunk cut
				step()
			}
			got := testing.AllocsPerRun(500, step)
			if uint64(delivered) != seq {
				t.Fatalf("delivered %d of %d", delivered, seq)
			}
			if st := recv.Stats(); tc.useless && st.RepairsUseless != 551*100 {
				t.Fatalf("%d of %d repairs counted useless", st.RepairsUseless, 551*100)
			}
			t.Logf("%s: %.0f allocs per 100 packets", tc.name, got)
			if got > tc.max {
				t.Errorf("%s receive path: %.0f allocs per 100 packets, want <= %.1f", tc.name, got, tc.max)
			}
		})
	}
}

// TestPublishAllocs pins the allocations per 100 Publish calls on every
// transport's sender. Each publish allocates its data packet (the endpoint
// takes it by pointer); fountcast adds its repair symbols, and every sender
// the payload arena's one chunk per ~340 samples. The bounds are this tree's measured values;
// CHANGES.md records the parent's.
func TestPublishAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the measured path")
	}
	reg := protocols.MustRegistry()
	for _, tc := range []struct {
		spec string
		max  float64
	}{
		{"nakcast(timeout=5ms)", 100.5},
		{"fountcast(k=8,oh=25)", 175.5},
		{"ricochet(c=3,r=4)", 100.5},
		{"bemcast", 100.5},
	} {
		t.Run(tc.spec, func(t *testing.T) {
			spec, err := transport.ParseSpec(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			s, err := reg.NewSender(spec, transport.Config{
				Env: env.NewSim(sim.New(1)), Endpoint: &loopEndpoint{}, Stream: 1,
				Receivers: transport.StaticReceivers(1),
			})
			if err != nil {
				t.Fatal(err)
			}
			payload := []byte("sample-00000")
			step := func() { // 100 publishes
				for i := 0; i < 100; i++ {
					if err := s.Publish(payload); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := 0; i < 50; i++ { // warm: arena chunk cut, queues grown
				step()
			}
			got := testing.AllocsPerRun(500, step)
			t.Logf("%s: %.1f allocs per 100 publishes", tc.spec, got)
			if got > tc.max {
				t.Errorf("%s publish path: %.1f allocs per 100 publishes, want <= %.1f", tc.spec, got, tc.max)
			}
		})
	}
}

// TestNewSenderBytes pins what a default nakcast sender allocates before its
// first publish. Its 16 384-sample history comes one page at a time with the
// samples that fill it, so building a sender, as every rebind does, does not
// pay for the whole ring up front.
func TestNewSenderBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the measured path")
	}
	opts, err := nakcast.ParseOptions(nil)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 20
	e := env.NewSim(sim.New(1))
	eps := make([]loopEndpoint, runs+1)
	newSender := func(i int) {
		if _, err := nakcast.NewSender(transport.Config{Env: e, Endpoint: &eps[i], Stream: 1}, opts); err != nil {
			t.Fatal(err)
		}
	}
	newSender(runs) // warm: the kernel's queue
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		newSender(i)
	}
	runtime.ReadMemStats(&m1)
	per := (m1.TotalAlloc - m0.TotalAlloc) / runs
	t.Logf("nakcast.NewSender: %d B", per)
	if per >= 4<<10 {
		t.Errorf("nakcast.NewSender allocates %d B before its first publish, want < 4 KiB", per)
	}
}
