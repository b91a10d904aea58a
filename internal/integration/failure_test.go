package integration

import (
	"fmt"
	"testing"
	"time"

	"adamant/internal/env"
	"adamant/internal/membership"
	"adamant/internal/netem"
	"adamant/internal/netem/chaos"
	"adamant/internal/sim"
	"adamant/internal/transport"
	"adamant/internal/transport/protocols"
	"adamant/internal/wire"
)

// world is a simulated LAN with one sender and n receivers on raw
// transports (no DDS layer), for precise failure injection. Faults are
// scripted through the chaos schedule engine rather than ad-hoc timers, so
// every test here is a named, seed-replayable scenario.
type world struct {
	k       *sim.Kernel
	e       *env.SimEnv
	net     *netem.Network
	sender  *netem.Node
	readers []*netem.Node
}

func newWorld(t *testing.T, receivers int, seed int64) *world {
	t.Helper()
	w := &world{k: sim.New(seed)}
	w.e = env.NewSim(w.k)
	var err error
	w.net, err = netem.New(w.e, netem.Config{Bandwidth: netem.Gbps1})
	if err != nil {
		t.Fatal(err)
	}
	w.sender = w.net.AddNode(netem.PC3000)
	for i := 0; i < receivers; i++ {
		w.readers = append(w.readers, w.net.AddNode(netem.PC3000))
	}
	return w
}

func (w *world) readerIDs() []wire.NodeID {
	ids := make([]wire.NodeID, len(w.readers))
	for i, r := range w.readers {
		ids[i] = r.Local()
	}
	return ids
}

func (w *world) nodes() chaos.Nodes {
	return chaos.Nodes{Sender: w.sender, Receivers: w.readers}
}

// schedule arms a chaos scenario against the world.
func (w *world) schedule(t *testing.T, sc chaos.Scenario) {
	t.Helper()
	if _, err := chaos.Schedule(w.nodes(), sc, chaos.Hooks{}); err != nil {
		t.Fatal(err)
	}
}

// publish drives n samples at the given rate and then closes the sender.
func publish(t *testing.T, w *world, s transport.Sender, n int, period time.Duration) {
	t.Helper()
	count := 0
	var tick func()
	tick = func() {
		if count >= n {
			if err := s.Close(); err != nil {
				t.Error(err)
			}
			return
		}
		if err := s.Publish([]byte(fmt.Sprintf("s%04d", count))); err != nil {
			t.Error(err)
			return
		}
		count++
		w.e.After(period, tick)
	}
	w.e.Post(tick)
}

// specsUnderTest is the full registered protocol matrix with the tunings
// the failure scenarios assume (fast NAK retries, small ACK window).
func specsUnderTest(t *testing.T) []transport.Spec {
	t.Helper()
	var specs []transport.Spec
	for _, s := range []string{
		"bemcast",
		"nakcast(timeout=5ms)",
		"ackcast(rto=20ms)",
		"ricochet(c=3,r=4)",
	} {
		spec, err := transport.ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	return specs
}

func reliable(t *testing.T, spec transport.Spec) bool {
	t.Helper()
	props, err := protocols.MustRegistry().Props(spec)
	if err != nil {
		t.Fatal(err)
	}
	return props.Has(transport.PropNAKReliability) || props.Has(transport.PropACKReliability)
}

// TestReceiverCrashSurvivors injects a mid-run receiver crash under 5%
// loss, for every registered transport: the membership detectors must evict
// the crashed node, survivors must keep their protocol's guarantee
// (complete delivery for reliable transports, near-complete for Ricochet,
// loss-rate-bounded for best effort), and the simulation must terminate
// once the detectors close (no timer leaks from the dead node).
func TestReceiverCrashSurvivors(t *testing.T) {
	for _, spec := range specsUnderTest(t) {
		spec := spec
		t.Run(spec.String(), func(t *testing.T) {
			w := newWorld(t, 4, 21)
			for _, r := range w.readers {
				r.SetLoss(5)
			}
			const samples = 300
			crashed := 3

			// Membership and the data-plane protocol share each node via a
			// splitter: detectors on the control stream, data on stream 1.
			views := make([]*membership.Detector, len(w.readers))
			delivered := make([]int, len(w.readers))
			recovered := make([]int, len(w.readers))
			for i, node := range w.readers {
				i := i
				split := transport.NewSplitter(node)
				det, err := membership.NewDetector(w.e, split.Route(wire.ControlStream), membership.DetectorOptions{
					Interval:     50 * time.Millisecond,
					SuspectAfter: 175 * time.Millisecond,
				}, nil)
				if err != nil {
					t.Fatal(err)
				}
				views[i] = det
				if _, err := protocols.MustRegistry().NewReceiver(spec, transport.Config{
					Env:       w.e,
					Endpoint:  split.Route(1),
					Stream:    1,
					SenderID:  w.sender.Local(),
					Receivers: det.Receivers,
					Deliver: func(d transport.Delivery) {
						delivered[i]++
						if d.Recovered {
							recovered[i]++
						}
					},
				}); err != nil {
					t.Fatal(err)
				}
			}
			sender, err := protocols.MustRegistry().NewSender(spec, transport.Config{
				Env: w.e, Endpoint: w.sender, Stream: 1,
				Receivers: transport.StaticReceivers(w.readerIDs()...),
			})
			if err != nil {
				t.Fatal(err)
			}

			publish(t, w, sender, samples, 10*time.Millisecond)
			w.schedule(t, chaos.Scenario{
				Name: "receiver-crash",
				Events: []chaos.Event{
					{At: time.Second, Kind: chaos.KindCrash, Target: chaos.Receiver(crashed)},
				},
			})

			if err := w.k.RunFor(2 * time.Minute); err != nil {
				t.Fatal(err)
			}
			// Detectors heartbeat forever by design; after closing them the
			// simulation must quiesce (nothing else may leak timers).
			for _, det := range views {
				if err := det.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.k.RunFor(time.Minute); err != nil {
				t.Fatal(err)
			}
			if pending := w.k.Pending(); pending > 0 {
				t.Errorf("%d events still pending after closing detectors; timers leaked", pending)
			}

			for i := 0; i < crashed; i++ {
				if views[i].View().Contains(w.readers[crashed].Local()) {
					t.Errorf("survivor %d still lists the crashed node", i)
				}
				rate := 100 * float64(delivered[i]) / samples
				switch {
				case reliable(t, spec):
					if delivered[i] != samples {
						t.Errorf("survivor %d delivered %d/%d; reliable transport did not converge", i, delivered[i], samples)
					}
				case spec.Name == "ricochet":
					if rate < 99 {
						t.Errorf("survivor %d delivered %.1f%%, want >= 99%%", i, rate)
					}
					if recovered[i] == 0 {
						t.Errorf("survivor %d recovered nothing; repair flow broke after the crash", i)
					}
				default: // best effort: bounded by the 5% loss only
					if rate < 90 {
						t.Errorf("survivor %d delivered %.1f%%, want >= 90%%", i, rate)
					}
				}
			}
			if got := delivered[crashed]; got > samples*2/3 {
				t.Errorf("crashed receiver delivered %d; crash not effective", got)
			}
		})
	}
}

// TestPartitionHealBackfill cuts a receiver off mid-stream and heals it,
// for every registered transport: reliable transports must backfill
// everything missed during the partition; best-effort transports must show
// the hole (proving the fault was real).
func TestPartitionHealBackfill(t *testing.T) {
	for _, spec := range specsUnderTest(t) {
		spec := spec
		t.Run(spec.String(), func(t *testing.T) {
			w := newWorld(t, 2, 33)
			delivered := make([]int, len(w.readers))
			ids := w.readerIDs()
			for i, node := range w.readers {
				i := i
				if _, err := protocols.MustRegistry().NewReceiver(spec, transport.Config{
					Env: w.e, Endpoint: node, Stream: 1, SenderID: w.sender.Local(),
					Receivers: transport.StaticReceivers(ids...),
					Deliver:   func(transport.Delivery) { delivered[i]++ },
				}); err != nil {
					t.Fatal(err)
				}
			}
			sender, err := protocols.MustRegistry().NewSender(spec, transport.Config{
				Env: w.e, Endpoint: w.sender, Stream: 1,
				Receivers: transport.StaticReceivers(ids...),
			})
			if err != nil {
				t.Fatal(err)
			}

			const samples = 200
			publish(t, w, sender, samples, 10*time.Millisecond)
			// Partition reader 1 from 0.5s to 1.2s (~70 samples missed live).
			w.schedule(t, chaos.Scenario{
				Name: "partition-heal",
				Events: []chaos.Event{
					{At: 500 * time.Millisecond, Kind: chaos.KindPartition, Target: chaos.Receiver(1)},
					{At: 1200 * time.Millisecond, Kind: chaos.KindHeal, Target: chaos.Receiver(1)},
				},
			})

			if err := w.k.RunFor(2 * time.Minute); err != nil {
				t.Fatal(err)
			}
			if delivered[0] != samples {
				t.Errorf("unpartitioned reader delivered %d/%d", delivered[0], samples)
			}
			if reliable(t, spec) {
				if delivered[1] != samples {
					t.Errorf("healed reader delivered %d/%d; backfill failed", delivered[1], samples)
				}
			} else {
				if delivered[1] >= samples {
					t.Errorf("best-effort reader delivered %d/%d through a partition", delivered[1], samples)
				}
				if delivered[1] < samples/2 {
					t.Errorf("healed reader delivered only %d/%d", delivered[1], samples)
				}
			}
		})
	}
}

// TestSenderCrashTerminates kills the sender mid-stream for both reliable
// transports: receivers must abandon the missing tail after bounded retries
// and the simulation must quiesce rather than retry forever.
func TestSenderCrashTerminates(t *testing.T) {
	for _, name := range []string{"nakcast(timeout=5ms)", "ackcast(rto=20ms)"} {
		spec, err := transport.ParseSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(spec.String(), func(t *testing.T) {
			w := newWorld(t, 2, 44)
			delivered := make([]int, len(w.readers))
			ids := w.readerIDs()
			for i, node := range w.readers {
				i := i
				node.SetLoss(5)
				if _, err := protocols.MustRegistry().NewReceiver(spec, transport.Config{
					Env: w.e, Endpoint: node, Stream: 1, SenderID: w.sender.Local(),
					Receivers: transport.StaticReceivers(ids...),
					Deliver:   func(transport.Delivery) { delivered[i]++ },
				}); err != nil {
					t.Fatal(err)
				}
			}
			sender, err := protocols.MustRegistry().NewSender(spec, transport.Config{
				Env: w.e, Endpoint: w.sender, Stream: 1,
				Receivers: transport.StaticReceivers(ids...),
			})
			if err != nil {
				t.Fatal(err)
			}
			publish(t, w, sender, 1000, 5*time.Millisecond) // would run 5s...
			w.schedule(t, chaos.Scenario{
				Name: "sender-crash",
				Events: []chaos.Event{
					{At: time.Second, Kind: chaos.KindCrash, Target: chaos.Sender()},
				},
			})

			if err := w.k.RunFor(5 * time.Minute); err != nil {
				t.Fatal(err)
			}
			if w.k.Pending() > 1 {
				t.Errorf("%d events pending after sender crash; retries did not terminate", w.k.Pending())
			}
			for i, d := range delivered {
				if d < 150 || d > 300 {
					t.Errorf("reader %d delivered %d; expected ~200 (1s at 200Hz)", i, d)
				}
			}
		})
	}
}

// TestBurstLossProtocols compares protocol behavior under Gilbert-Elliott
// bursty loss (scripted as a chaos scenario): NAKcast must still recover
// essentially everything; Ricochet suffers more than under uniform loss
// because bursts wipe whole XOR groups.
func TestBurstLossProtocols(t *testing.T) {
	run := func(specStr string, burst bool) float64 {
		spec, err := transport.ParseSpec(specStr)
		if err != nil {
			t.Fatal(err)
		}
		w := newWorld(t, 3, 55)
		var ev chaos.Event
		if burst {
			// ~5% average loss concentrated in bursts, from t=0.
			ev = chaos.Event{Kind: chaos.KindBurst, Target: chaos.AllReceivers(),
				PGB: 0.013, PBG: 0.25, DropBad: 1.0}
		} else {
			ev = chaos.Event{Kind: chaos.KindLoss, Target: chaos.AllReceivers(), Pct: 5}
		}
		w.schedule(t, chaos.Scenario{Name: "loss-model", Events: []chaos.Event{ev}})

		delivered := 0
		ids := w.readerIDs()
		for _, node := range w.readers {
			if _, err := protocols.MustRegistry().NewReceiver(spec, transport.Config{
				Env: w.e, Endpoint: node, Stream: 1, SenderID: w.sender.Local(),
				Receivers: transport.StaticReceivers(ids...),
				Deliver:   func(transport.Delivery) { delivered++ },
			}); err != nil {
				t.Fatal(err)
			}
		}
		sender, err := protocols.MustRegistry().NewSender(spec, transport.Config{
			Env: w.e, Endpoint: w.sender, Stream: 1,
			Receivers: transport.StaticReceivers(ids...),
		})
		if err != nil {
			t.Fatal(err)
		}
		const samples = 600
		publish(t, w, sender, samples, 10*time.Millisecond)
		if err := w.k.RunFor(3 * time.Minute); err != nil {
			t.Fatal(err)
		}
		return 100 * float64(delivered) / float64(samples*3)
	}

	nakBurst := run("nakcast(timeout=5ms)", true)
	if nakBurst < 99.9 {
		t.Errorf("NAKcast reliability %.2f%% under burst loss, want ~100%%", nakBurst)
	}
	ricUniform := run("ricochet(c=3,r=4)", false)
	ricBurst := run("ricochet(c=3,r=4)", true)
	if ricBurst >= ricUniform {
		t.Errorf("Ricochet under burst loss (%.2f%%) should be worse than uniform (%.2f%%)",
			ricBurst, ricUniform)
	}
	if ricBurst < 90 {
		t.Errorf("Ricochet burst reliability %.2f%% implausibly low", ricBurst)
	}
}
