package chaos

import (
	"testing"
	"time"

	"adamant/internal/env"
	"adamant/internal/netem"
	"adamant/internal/sim"
)

// TestLibraryWellFormed pins the canonical library: unique names, valid
// scripts, horizons inside the standard 4-second publish window, and —
// except for cascade's deliberate permanent crashes — every fault healed
// by scenario end.
func TestLibraryWellFormed(t *testing.T) {
	lib := Library()
	if len(lib) != 8 {
		t.Fatalf("library has %d scenarios, want 8", len(lib))
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
		sender, recv := sc.EndState(4)
		if sender.Down() || sender.Dirty {
			t.Errorf("%s: sender ends down/dirty", sc.Name)
		}
		for i, ne := range recv {
			if sc.Name == "cascade" {
				wantCrashed := i <= 2
				if ne.Crashed != wantCrashed {
					t.Errorf("cascade receiver %d: crashed=%v, want %v", i, ne.Crashed, wantCrashed)
				}
				continue
			}
			if ne.Down() {
				t.Errorf("%s: receiver %d ends down (unhealed fault)", sc.Name, i)
			}
			if ne.Dirty {
				t.Errorf("%s: receiver %d ends dirty (unreverted knob)", sc.Name, i)
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
	run := func(events []Event) []Kind {
		kernel := sim.New(7)
		e := env.NewSim(kernel)
		network, err := netem.New(e, netem.Config{})
		if err != nil {
			t.Fatal(err)
		}
		n := Nodes{Sender: network.AddNode(netem.PC3000),
			Receivers: []*netem.Node{network.AddNode(netem.PC3000)}}
		var applied []Kind
		_, err = Schedule(n, Scenario{Name: "order", Events: events},
			Hooks{OnEvent: func(ev Event) { applied = append(applied, ev.Kind) }})
		if err != nil {
			t.Fatal(err)
		}
		if err := kernel.Run(); err != nil {
			t.Fatal(err)
		}
		return applied
	}
	at := 10 * time.Millisecond
	got := run([]Event{
		{At: at, Kind: KindHeal, Target: Receiver(0)},
		{At: at, Kind: KindPartition, Target: Receiver(0)},
		{At: at / 2, Kind: KindPartition, Target: Receiver(0)},
	})
	want := []Kind{KindPartition, KindHeal, KindPartition}
	if len(got) != len(want) {
		t.Fatalf("applied %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("applied %v, want %v (stable time sort violated)", got, want)
		}
	}
}

// TestScheduleHooks pins the crash/restart hook index convention.
func TestScheduleHooks(t *testing.T) {
	kernel := sim.New(9)
	e := env.NewSim(kernel)
	network, err := netem.New(e, netem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	n := Nodes{Sender: network.AddNode(netem.PC3000),
		Receivers: []*netem.Node{network.AddNode(netem.PC3000), network.AddNode(netem.PC3000)}}
	var crashes, restarts []int
	sc := Scenario{Name: "hooks", Events: []Event{
		{At: time.Millisecond, Kind: KindCrash, Target: Receiver(1)},
		{At: 2 * time.Millisecond, Kind: KindCrash, Target: Sender()},
		{At: 3 * time.Millisecond, Kind: KindRestart, Target: Receiver(1)},
	}}
	_, err = Schedule(n, sc, Hooks{
		OnCrash:   func(idx int) { crashes = append(crashes, idx) },
		OnRestart: func(idx int) { restarts = append(restarts, idx) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if len(crashes) != 2 || crashes[0] != 1 || crashes[1] != -1 {
		t.Errorf("crash hooks fired for %v, want [1 -1]", crashes)
	}
	if len(restarts) != 1 || restarts[0] != 1 {
		t.Errorf("restart hooks fired for %v, want [1]", restarts)
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
	if _, err := Schedule(Nodes{}, ok, Hooks{}); err == nil {
		t.Error("nil sender accepted")
	}
	if _, err := Schedule(Nodes{Sender: node}, Scenario{}, Hooks{}); err == nil {
		t.Error("unnamed scenario accepted")
	}
	bad := Scenario{Name: "bad", Events: []Event{{Kind: Kind(0), Target: Sender()}}}
	if _, err := Schedule(Nodes{Sender: node}, bad, Hooks{}); err == nil {
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
