package netem

// Differential tests for the lane-sharded network: the same emulated
// workload must produce byte-identical observables (per-node delivery
// traces, traffic counters, drop counts) on the classic single-kernel
// network and on the sharded network at every worker width.

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"adamant/internal/env"
	"adamant/internal/sim"
	"adamant/internal/wire"
)

type delivRec struct {
	src wire.NodeID
	seq uint64
	at  int64
}

type netObs struct {
	deliveries [][]delivRec
	stats      []Stats
}

// shardedWorkloadNet runs a mixed multicast/unicast workload with loss,
// a mid-run partition, and a CPU-scale change, then returns everything a
// protocol could observe. mode "classic" uses New on one kernel; otherwise
// mode is the worker count for NewSharded.
func runNetWorkload(t *testing.T, classic bool, workers int) netObs {
	t.Helper()
	const (
		nodes   = 6
		seed    = 42
		packets = 250
	)

	type driver interface {
		RunFor(time.Duration) error
		Run() error
	}
	var (
		net *Network
		drv driver
		err error
	)
	if classic {
		k := sim.New(seed)
		net, err = New(env.NewSim(k), Config{Bandwidth: Mbps100})
		drv = k
	} else {
		sh := sim.NewSharded(seed, DefaultPropDelay)
		sh.SetWorkers(workers)
		net, err = NewSharded(sh, Config{Bandwidth: Mbps100})
		drv = sh
	}
	if err != nil {
		t.Fatalf("build network: %v", err)
	}

	obs := netObs{deliveries: make([][]delivRec, nodes)}
	for i := 0; i < nodes; i++ {
		nd := net.AddNode(PC3000)
		if i == 0 {
			continue
		}
		nd.SetLoss(10)
		i := i
		var replySeq uint64
		nd.SetHandler(func(src wire.NodeID, pkt *wire.Packet) {
			obs.deliveries[i] = append(obs.deliveries[i], delivRec{
				src: src, seq: pkt.Seq, at: nd.Env().Now().UnixNano(),
			})
			// Every fifth delivery answers with a unicast, exercising the
			// reverse lane crossing.
			if len(obs.deliveries[i])%5 == 0 {
				replySeq++
				reply := &wire.Packet{Type: wire.TypeNak, Src: nd.Local(), Stream: 2, Seq: replySeq}
				if err := nd.Unicast(src, reply); err != nil {
					panic(err)
				}
			}
		})
	}
	sender := net.Node(0)
	sender.SetHandler(func(src wire.NodeID, pkt *wire.Packet) {
		obs.deliveries[0] = append(obs.deliveries[0], delivRec{
			src: src, seq: pkt.Seq, at: sender.Env().Now().UnixNano(),
		})
	})

	// Mid-run knob changes ride each target node's own env, the same way
	// chaos scripts are fanned out.
	n3 := net.Node(3)
	n3.Env().Schedule(31*time.Millisecond, func() { n3.SetPartitioned(true) })
	n3.Env().Schedule(61*time.Millisecond, func() { n3.SetPartitioned(false) })
	n4 := net.Node(4)
	n4.Env().Schedule(41*time.Millisecond, func() { n4.SetProcScale(3.0) })

	payload := make([]byte, 64)
	var seq uint64
	var pump func()
	pump = func() {
		seq++
		pkt := &wire.Packet{Type: wire.TypeData, Src: 0, Stream: 1, Seq: seq, SentAt: sender.Env().Now(), Payload: payload}
		if err := sender.Multicast(pkt); err != nil {
			panic(err)
		}
		if seq < packets {
			sender.Env().Schedule(300*time.Microsecond, pump)
		}
	}
	sender.Env().Schedule(0, pump)

	if err := drv.RunFor(40 * time.Millisecond); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if err := drv.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < nodes; i++ {
		obs.stats = append(obs.stats, net.Node(wire.NodeID(i)).Stats())
	}
	return obs
}

// TestNetemShardedMatchesClassic pins mode equivalence: per-node delivery
// streams, arrival times, loss decisions, and counters are identical
// between the classic single-kernel network and the sharded network —
// the emulation model is the same machine, only partitioned differently.
func TestNetemShardedMatchesClassic(t *testing.T) {
	ref := runNetWorkload(t, true, 0)
	got := runNetWorkload(t, false, 1)
	if !reflect.DeepEqual(ref.stats, got.stats) {
		t.Fatalf("stats diverge:\nclassic: %+v\nsharded: %+v", ref.stats, got.stats)
	}
	for i := range ref.deliveries {
		if !reflect.DeepEqual(ref.deliveries[i], got.deliveries[i]) {
			t.Fatalf("node %d deliveries diverge (classic %d, sharded %d)",
				i, len(ref.deliveries[i]), len(got.deliveries[i]))
		}
	}
	var total int
	for _, d := range ref.deliveries {
		total += len(d)
	}
	if total == 0 {
		t.Fatal("workload delivered nothing")
	}
}

// TestNetemShardedWidthInvariance pins the worker-count contract at the
// network layer: identical observables at 1, 2, 4, and 8 workers.
func TestNetemShardedWidthInvariance(t *testing.T) {
	ref := runNetWorkload(t, false, 1)
	for _, workers := range []int{2, 4, 8} {
		got := runNetWorkload(t, false, workers)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("workers=%d: observables diverge from single-worker run", workers)
		}
	}
}

// TestNewShardedRejectsShortPropDelay pins the conservative precondition:
// a propagation delay below the engine lookahead would let packets arrive
// inside the current window and must be refused up front.
func TestNewShardedRejectsShortPropDelay(t *testing.T) {
	if _, err := NewSharded(sim.NewSharded(1, 2*DefaultPropDelay), Config{}); err == nil {
		t.Fatal("NewSharded accepted a lookahead above DefaultPropDelay")
	}
	if _, err := NewSharded(sim.NewSharded(1, DefaultPropDelay), Config{}); err != nil {
		t.Fatalf("NewSharded rejected default config: %v", err)
	}
}

// TestShardedNodeLaneWiring checks the node/lane/env bookkeeping the upper
// layers (crucible, chaos fan-out) rely on.
func TestShardedNodeLaneWiring(t *testing.T) {
	sh := sim.NewSharded(1, DefaultPropDelay)
	net, err := NewSharded(sh, Config{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := net.AddNode(PC3000), net.AddNode(PC850)
	if a.Lane() == b.Lane() {
		t.Fatalf("nodes share lane %d", a.Lane())
	}
	if net.Sharded() != sh || net.Env() != nil {
		t.Fatal("mode accessors miswired")
	}
	se, ok := a.Env().(*env.SimEnv)
	if !ok || se.Kernel() != sh.LaneKernel(a.Lane()) {
		t.Fatalf("node env is %T, want a SimEnv over lane %d's kernel", a.Env(), a.Lane())
	}
	if sh.Lanes() != 2 {
		t.Fatalf("engine has %d lanes, want 2", sh.Lanes())
	}
}

func ExampleNewSharded() {
	sh := sim.NewSharded(7, DefaultPropDelay)
	sh.SetWorkers(4)
	net, _ := NewSharded(sh, Config{})
	rx := net.AddNode(PC3000) // lane 0
	tx := net.AddNode(PC3000) // lane 1
	rx.SetHandler(func(src wire.NodeID, pkt *wire.Packet) {
		fmt.Printf("node %d got seq %d from %d\n", rx.Local(), pkt.Seq, src)
	})
	tx.Env().Schedule(0, func() {
		_ = tx.Unicast(rx.Local(), &wire.Packet{Type: wire.TypeData, Src: tx.Local(), Stream: 1, Seq: 1})
	})
	_ = sh.Run()
	// Output: node 0 got seq 1 from 1
}
