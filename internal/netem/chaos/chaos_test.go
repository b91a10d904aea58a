package chaos

import (
	"slices"
	"testing"
	"time"

	"adamant/internal/env"
	"adamant/internal/netem"
	"adamant/internal/sim"
)

// TestLibraryWellFormed pins the canonical library: unique names, valid
// scripts, horizons inside the standard 4-second publish window, and every
// fault healed by scenario end except the permanent crashes, and the loss
// held with them, that a scenario declares below.
func TestLibraryWellFormed(t *testing.T) {
	lib := Library()
	if len(lib) != 10 {
		t.Fatalf("library has %d scenarios, want 10", len(lib))
	}
	permanent := map[string]struct {
		senderCrashed bool
		crashed       []int // receivers of a group of 4 that end crashed
		dirty         bool  // every receiver ends with loss still set
	}{
		"cascade":          {crashed: []int{0, 1, 2}},
		"sender-crash":     {senderCrashed: true, dirty: true},
		"crash-under-loss": {crashed: []int{3}, dirty: true},
	}
	names := make(map[string]bool)
	for _, sc := range lib {
		if err := sc.Validate(); err != nil {
			t.Errorf("%s: %v", sc.Name, err)
		}
		if names[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		names[sc.Name] = true
		if h := sc.Horizon(); h > 3500*time.Millisecond {
			t.Errorf("%s: horizon %v exceeds the publish window", sc.Name, h)
		}
		want := permanent[sc.Name]
		sender, recv := sc.EndState(4)
		if sender.Crashed != want.senderCrashed || sender.Down() != want.senderCrashed || sender.Dirty {
			t.Errorf("%s: sender ends %+v, want crashed=%v and clean", sc.Name, sender, want.senderCrashed)
		}
		for i, ne := range recv {
			crashed := slices.Contains(want.crashed, i)
			if ne.Crashed != crashed || ne.Down() != crashed {
				t.Errorf("%s: receiver %d ends %+v, want crashed=%v", sc.Name, i, ne, crashed)
			}
			if ne.Dirty != want.dirty {
				t.Errorf("%s: receiver %d ends dirty=%v, want %v", sc.Name, i, ne.Dirty, want.dirty)
			}
		}
	}
}

func TestTargetResolve(t *testing.T) {
	if got := Sender().resolve(3); len(got) != 1 || got[0] != -1 {
		t.Errorf("sender resolved to %v", got)
	}
	if got := Receiver(5).resolve(3); len(got) != 1 || got[0] != 2 {
		t.Errorf("receiver 5 mod 3 resolved to %v, want [2]", got)
	}
	if got := AllReceivers().resolve(3); len(got) != 3 {
		t.Errorf("all receivers resolved to %v", got)
	}
	if got := EvenReceivers().resolve(5); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 4 {
		t.Errorf("even receivers of 5 resolved to %v, want [0 2 4]", got)
	}
	if got := Receiver(1).resolve(0); got != nil {
		t.Errorf("receiver target with no receivers resolved to %v", got)
	}
}

func TestEventValidate(t *testing.T) {
	bad := []Event{
		{At: -time.Second, Kind: KindHeal, Target: Sender()},
		{Kind: Kind(99), Target: Sender()},
		{Kind: KindHeal, Target: Target{Role: Role(77)}},
		{Kind: KindHeal, Target: Target{Role: RoleReceiver, Index: -1}},
		{Kind: KindLoss, Target: Sender(), Pct: 101},
		{Kind: KindBurst, Target: Sender(), PGB: 1.5},
		{Kind: KindCPUScale, Target: Sender(), Scale: 0},
	}
	for i, ev := range bad {
		if err := ev.Validate(); err == nil {
			t.Errorf("event %d (%+v) validated", i, ev)
		}
	}
	good := Event{At: time.Second, Kind: KindLoss, Target: AllReceivers(), Pct: 30}
	if err := good.Validate(); err != nil {
		t.Errorf("good event rejected: %v", err)
	}
}

// TestScheduleSameInstantOrder pins that events scheduled for the same
// virtual instant apply in slice order: a partition immediately followed by
// a heal at the same time must leave the node connected, and the reverse
// must leave it partitioned.
func TestScheduleSameInstantOrder(t *testing.T) {
	run := func(events []Event) bool {
		kernel := sim.New(7)
		network, err := netem.New(env.NewSim(kernel), netem.Config{})
		if err != nil {
			t.Fatal(err)
		}
		n := Nodes{Sender: network.AddNode(netem.PC3000),
			Receivers: []*netem.Node{network.AddNode(netem.PC3000)}}
		if _, err := Schedule(n, Scenario{Name: "order", Events: events}); err != nil {
			t.Fatal(err)
		}
		if err := kernel.Run(); err != nil {
			t.Fatal(err)
		}
		return n.Receivers[0].Partitioned()
	}
	at := 10 * time.Millisecond
	if run([]Event{
		{At: at, Kind: KindPartition, Target: Receiver(0)},
		{At: at, Kind: KindHeal, Target: Receiver(0)},
	}) {
		t.Error("partition then heal at one instant left the node partitioned")
	}
	if !run([]Event{
		{At: at, Kind: KindHeal, Target: Receiver(0)},
		{At: at, Kind: KindPartition, Target: Receiver(0)},
		{At: at / 2, Kind: KindPartition, Target: Receiver(0)},
	}) {
		t.Error("heal then partition at one instant left the node connected (stable time sort violated)")
	}
}

func TestScheduleRejects(t *testing.T) {
	kernel := sim.New(1)
	e := env.NewSim(kernel)
	network, err := netem.New(e, netem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	node := network.AddNode(netem.PC3000)
	ok := Scenario{Name: "ok"}
	if _, err := Schedule(Nodes{}, ok); err == nil {
		t.Error("nil sender accepted")
	}
	if _, err := Schedule(Nodes{Sender: node}, Scenario{}); err == nil {
		t.Error("unnamed scenario accepted")
	}
	bad := Scenario{Name: "bad", Events: []Event{{Kind: Kind(0), Target: Sender()}}}
	if _, err := Schedule(Nodes{Sender: node}, bad); err == nil {
		t.Error("invalid event accepted")
	}
}

// TestEndStateRestartClears pins that a restart clears both the partition
// and the crash flag, and that residual knobs mark a node dirty.
func TestEndStateRestartClears(t *testing.T) {
	sc := Scenario{Name: "restart", Events: []Event{
		{At: 1 * time.Millisecond, Kind: KindCrash, Target: Receiver(0)},
		{At: 2 * time.Millisecond, Kind: KindRestart, Target: Receiver(0)},
		{At: 3 * time.Millisecond, Kind: KindLoss, Target: Receiver(1), Pct: 10},
	}}
	_, recv := sc.EndState(2)
	if recv[0].Down() || recv[0].Crashed {
		t.Errorf("restarted receiver still down: %+v", recv[0])
	}
	if !recv[1].Dirty {
		t.Errorf("receiver with residual loss not dirty: %+v", recv[1])
	}
}
