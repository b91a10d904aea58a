package chaos

// Sharded-vs-serial differential coverage for chaos schedules: the same
// fault script, armed by Schedule on the same topology, must produce
// identical node states and identical traffic observables whether the world
// runs on one kernel or on per-node lanes of a sharded engine, at any
// worker count.

import (
	"reflect"
	"testing"
	"time"

	"adamant/internal/env"
	"adamant/internal/netem"
	"adamant/internal/sim"
	"adamant/internal/wire"
)

// knobState is the externally visible fault state of one node.
type knobState struct {
	Partitioned bool
	LossPct     float64
	ProcScale   float64
	Burst       bool
}

func snapshotKnobs(net *netem.Network) []knobState {
	var out []knobState
	for _, nd := range net.Nodes() {
		out = append(out, knobState{
			Partitioned: nd.Partitioned(),
			LossPct:     nd.LossPct(),
			ProcScale:   nd.ProcScale(),
			Burst:       nd.BurstLossActive(),
		})
	}
	return out
}

// buildWorld constructs a 1-sender, receivers-receiver world in either
// mode and returns the network, the node binding, and the run driver.
func buildWorld(t testing.TB, classic bool, workers, receivers int, seed int64) (*netem.Network, Nodes, interface {
	RunFor(time.Duration) error
	Run() error
}) {
	t.Helper()
	if classic {
		k := sim.New(seed)
		k.SetEventLimit(5_000_000)
		network, err := netem.New(env.NewSim(k), netem.Config{})
		if err != nil {
			t.Fatal(err)
		}
		n := Nodes{Sender: network.AddNode(netem.PC3000)}
		for i := 0; i < receivers; i++ {
			n.Receivers = append(n.Receivers, network.AddNode(netem.PC3000))
		}
		return network, n, k
	}
	sh := sim.NewSharded(seed, netem.DefaultPropDelay)
	sh.SetWorkers(workers)
	sh.SetEventLimit(5_000_000)
	network, err := netem.NewSharded(sh, netem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	n := Nodes{Sender: network.AddNode(netem.PC3000)}
	for i := 0; i < receivers; i++ {
		n.Receivers = append(n.Receivers, network.AddNode(netem.PC3000))
	}
	return network, n, sh
}

// scaleScenario is the role-heavy script used by the group-size tests:
// every role constructor, crash/restart, and a three-step loss ramp.
var scaleScenario = Scenario{
	Name: "scale-roles",
	Events: []Event{
		{At: 10 * time.Millisecond, Kind: KindLoss, Target: AllReceivers(), Pct: 5},
		{At: 20 * time.Millisecond, Kind: KindPartition, Target: EvenReceivers()},
		{At: 30 * time.Millisecond, Kind: KindCrash, Target: Receiver(123)},
		{At: 35 * time.Millisecond, Kind: KindCrash, Target: Receiver(7)},
		{At: 40 * time.Millisecond, Kind: KindLoss, Target: AllReceivers(), Pct: 15},
		{At: 45 * time.Millisecond, Kind: KindCPUScale, Target: Sender(), Scale: 2},
		{At: 50 * time.Millisecond, Kind: KindRestart, Target: Receiver(7)},
		{At: 60 * time.Millisecond, Kind: KindHeal, Target: EvenReceivers()},
		{At: 70 * time.Millisecond, Kind: KindLoss, Target: AllReceivers(), Pct: 30},
		{At: 80 * time.Millisecond, Kind: KindBurst, Target: Receiver(200), PGB: 0.1, PBG: 0.5, DropBad: 0.4},
	},
}

// TestChaosRoleResolutionAtScale pins the satellite requirement: at group
// size >= 500, role-based targets (partition halves, crashes, loss ramps)
// must resolve to the same node sets under sharded and serial execution.
// The serial run arms the script on the shared env; the sharded run arms
// it on the nodes' lanes across 4 workers. End-of-script knob state must
// match node for node, and both must agree with the static EndState replay
// about which nodes end down and which of them crashed.
func TestChaosRoleResolutionAtScale(t *testing.T) {
	const group = 500

	cNet, cNodes, cDrv := buildWorld(t, true, 0, group, 77)
	if _, err := Schedule(cNodes, scaleScenario); err != nil {
		t.Fatal(err)
	}
	if err := cDrv.RunFor(scaleScenario.Horizon() + time.Millisecond); err != nil {
		t.Fatal(err)
	}
	sNet, sNodes, sDrv := buildWorld(t, false, 4, group, 77)
	if _, err := Schedule(sNodes, scaleScenario); err != nil {
		t.Fatal(err)
	}
	if err := sDrv.RunFor(scaleScenario.Horizon() + time.Millisecond); err != nil {
		t.Fatal(err)
	}

	cKnobs, sKnobs := snapshotKnobs(cNet), snapshotKnobs(sNet)
	for i := range cKnobs {
		if cKnobs[i] != sKnobs[i] {
			t.Fatalf("node %d knob state diverges: serial %+v, sharded %+v", i, cKnobs[i], sKnobs[i])
		}
	}

	// Both must agree with the static replay about who ends the run down,
	// and the replay must name exactly the crash that was not restarted.
	sender, recv := scaleScenario.EndState(group)
	if sender.Down() != cKnobs[0].Partitioned {
		t.Fatalf("sender end state: static %v, simulated %v", sender.Down(), cKnobs[0].Partitioned)
	}
	var crashed []int
	for i, ne := range recv {
		if ne.Down() != cKnobs[1+i].Partitioned {
			t.Fatalf("receiver %d end state: static %v, simulated %v", i, ne.Down(), cKnobs[1+i].Partitioned)
		}
		if ne.Crashed {
			crashed = append(crashed, i)
		}
	}
	if want := []int{123}; !reflect.DeepEqual(crashed, want) {
		t.Fatalf("crashed at end = %v, want %v", crashed, want)
	}
}

// FuzzShardedKernel is the engine-level differential fuzzer demanded by
// the sharding work: a randomized topology plus a randomized chaos script
// runs once on the classic single-kernel network and once on the sharded
// network at a fuzzed worker count, under packet traffic with loss and
// reply unicasts. Per-node delivery streams (source, sequence, arrival
// time) and traffic counters must be identical — any divergence means the
// conservative window barrier reordered something observable.
func FuzzShardedKernel(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(2), []byte{})
	f.Add(int64(7), uint8(6), uint8(3), []byte{0, 100, 1, 2, 0, 50, 10, 10})
	f.Add(int64(42), uint8(9), uint8(8), []byte{
		0, 50, 6, 2, 0, 0, 0, 0,
		0, 99, 7, 2, 0, 0, 0, 0,
		1, 0, 6, 1, 0, 0, 0, 0,
	})
	f.Add(int64(-3), uint8(3), uint8(5), []byte{
		0, 10, 3, 3, 0, 255, 0, 0,
		2, 0, 3, 3, 0, 0, 0, 0,
		3, 0, 4, 4, 0, 9, 200, 7,
		0, 1, 8, 2, 1, 255, 0, 0,
	})
	f.Fuzz(func(t *testing.T, seed int64, nodesRaw, workersRaw uint8, script []byte) {
		receivers := 2 + int(nodesRaw%8)
		workers := 1 + int(workersRaw%8)
		sc := Scenario{Name: "fuzz", Events: eventsFromBytes(script)}

		type obs struct {
			deliveries [][]uint64 // per node: (src<<32|seq, arrival) pairs flattened
			stats      []netem.Stats
		}
		run := func(classic bool) (obs, error) {
			network, n, drv := buildWorld(t, classic, workers, receivers, seed)
			var o obs
			o.deliveries = make([][]uint64, receivers+1)
			for i, nd := range append([]*netem.Node{n.Sender}, n.Receivers...) {
				i, nd := i, nd
				if i > 0 {
					nd.SetLoss(7)
				}
				nd.SetHandler(func(src wire.NodeID, pkt *wire.Packet) {
					o.deliveries[i] = append(o.deliveries[i],
						uint64(src)<<32|pkt.Seq&0xffffffff,
						uint64(nd.Env().Now().UnixNano()))
					if i > 0 && len(o.deliveries[i])%8 == 0 {
						_ = nd.Unicast(src, &wire.Packet{
							Type: wire.TypeNak, Src: nd.Local(), Stream: 2, Seq: pkt.Seq,
						})
					}
				})
			}
			if _, err := Schedule(n, sc); err != nil {
				return o, err
			}
			payload := make([]byte, 32)
			var seq uint64
			var pump func()
			pump = func() {
				seq++
				pkt := &wire.Packet{Type: wire.TypeData, Src: 0, Stream: 1, Seq: seq, Payload: payload}
				if err := n.Sender.Multicast(pkt); err != nil {
					panic(err)
				}
				if seq < 40 {
					n.Sender.Env().Schedule(700*time.Microsecond, pump)
				}
			}
			n.Sender.Env().Schedule(0, pump)
			if err := drv.RunFor(20 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
			if err := drv.Run(); err != nil {
				t.Fatal(err)
			}
			for _, nd := range network.Nodes() {
				o.stats = append(o.stats, nd.Stats())
			}
			return o, nil
		}

		ref, refErr := run(true)
		got, gotErr := run(false)
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("validation diverges: serial err=%v, sharded err=%v", refErr, gotErr)
		}
		if refErr != nil {
			return // invalid scripts rejected identically by both paths
		}
		if !reflect.DeepEqual(ref.stats, got.stats) {
			t.Fatalf("stats diverge between serial and sharded runs\nserial:  %+v\nsharded: %+v", ref.stats, got.stats)
		}
		if !reflect.DeepEqual(ref.deliveries, got.deliveries) {
			t.Fatal("delivery streams diverge between serial and sharded runs")
		}
	})
}
