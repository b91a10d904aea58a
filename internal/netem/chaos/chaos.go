// Package chaos is a deterministic, discrete-event fault schedule engine
// for the netem LAN emulator. A Scenario is a named script of timed fault
// events — partitions and heals, link flaps, loss ramps, Gilbert-Elliott
// burst windows, node crashes and restarts, CPU-scale squeezes — applied
// through the existing netem.Node knobs via env.Env timers, so the same
// scenario replays bit-identically for a given simulation seed.
//
// Scenarios are plain data (no closures), which makes them trivially
// fuzzable and lets checkers reason about them statically: EndState replays
// a scenario's knob effects without running the simulator to derive which
// nodes end the run down and whether every transient fault heals.
//
// The transport crucible (internal/transport/conformance) runs every
// registered protocol through the canonical scenario library in this
// package under shared invariant checkers; adamant-verify -chaos exposes
// the same matrix from the command line.
package chaos

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"adamant/internal/netem"
)

// Role selects which node(s) an event targets.
type Role uint8

// Role values.
const (
	// RoleSender targets the publishing node.
	RoleSender Role = iota + 1
	// RoleReceiver targets one receiver: index Target.Index modulo the
	// receiver count, so scenarios stay valid for any group size.
	RoleReceiver
	// RoleAllReceivers targets every receiver.
	RoleAllReceivers
	// RoleEvenReceivers targets receivers 0, 2, 4, ... — the deterministic
	// "half the group" used by split-brain style scenarios.
	RoleEvenReceivers

	maxRole = RoleEvenReceivers
)

var roleNames = [...]string{
	RoleSender:        "sender",
	RoleReceiver:      "receiver",
	RoleAllReceivers:  "receivers",
	RoleEvenReceivers: "even-receivers",
}

// String implements fmt.Stringer.
func (r Role) String() string {
	if int(r) < len(roleNames) && roleNames[r] != "" {
		return roleNames[r]
	}
	return fmt.Sprintf("Role(%d)", uint8(r))
}

// Valid reports whether r is a known role.
func (r Role) Valid() bool { return r >= RoleSender && r <= maxRole }

// Kind enumerates the fault event types.
type Kind uint8

// Kind values.
const (
	// KindPartition isolates the target (every packet to or from it is
	// dropped). A partition is a transient link fault: checkers expect a
	// matching KindHeal before the scenario ends unless the node crashed.
	KindPartition Kind = iota + 1
	// KindHeal reconnects a partitioned target.
	KindHeal
	// KindLoss sets the target's uniform end-host loss to Pct percent.
	KindLoss
	// KindBurst enables a Gilbert-Elliott bursty loss window on the target
	// (PGB, PBG, DropBad transition/drop probabilities).
	KindBurst
	// KindBurstOff disables the Gilbert-Elliott model on the target.
	KindBurstOff
	// KindCrash fails the target like a dead process: the node is isolated
	// exactly as by KindPartition. Checkers treat a crashed-and-not-restarted
	// node as legitimately down at scenario end.
	KindCrash
	// KindRestart revives a crashed target: the node reconnects.
	KindRestart
	// KindCPUScale multiplies the target's CPU costs by Scale (a slow-node
	// squeeze; Scale 1 restores normal speed).
	KindCPUScale

	maxKind = KindCPUScale
)

var kindNames = [...]string{
	KindPartition: "partition",
	KindHeal:      "heal",
	KindLoss:      "loss",
	KindBurst:     "burst",
	KindBurstOff:  "burst-off",
	KindCrash:     "crash",
	KindRestart:   "restart",
	KindCPUScale:  "cpu-scale",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Valid reports whether k is a known kind.
func (k Kind) Valid() bool { return k >= KindPartition && k <= maxKind }

// Target names the node(s) an event applies to.
type Target struct {
	Role Role
	// Index selects the receiver for RoleReceiver (taken modulo the
	// receiver count); ignored for other roles.
	Index int
}

// Sender, Receiver, AllReceivers and EvenReceivers are Target constructors.
func Sender() Target        { return Target{Role: RoleSender} }
func Receiver(i int) Target { return Target{Role: RoleReceiver, Index: i} }
func AllReceivers() Target  { return Target{Role: RoleAllReceivers} }
func EvenReceivers() Target { return Target{Role: RoleEvenReceivers} }

// Event is one timed fault. The zero value is invalid.
type Event struct {
	// At is the virtual-time offset from scenario start.
	At     time.Duration
	Kind   Kind
	Target Target
	// Pct is the loss percentage for KindLoss.
	Pct float64
	// Scale is the CPU multiplier for KindCPUScale.
	Scale float64
	// PGB, PBG, DropBad parameterize KindBurst (good->bad and bad->good
	// transition probabilities and the drop probability in the bad state).
	PGB, PBG, DropBad float64
}

// Validate reports whether the event is well-formed.
func (ev Event) Validate() error {
	if ev.At < 0 {
		return fmt.Errorf("chaos: negative event time %v", ev.At)
	}
	if !ev.Kind.Valid() {
		return fmt.Errorf("chaos: invalid kind %d", uint8(ev.Kind))
	}
	if !ev.Target.Role.Valid() {
		return fmt.Errorf("chaos: invalid role %d", uint8(ev.Target.Role))
	}
	if ev.Target.Index < 0 {
		return fmt.Errorf("chaos: negative target index %d", ev.Target.Index)
	}
	switch ev.Kind {
	case KindLoss:
		if ev.Pct < 0 || ev.Pct > 100 {
			return fmt.Errorf("chaos: loss pct %v out of [0,100]", ev.Pct)
		}
	case KindBurst:
		for _, p := range []float64{ev.PGB, ev.PBG, ev.DropBad} {
			if p < 0 || p > 1 {
				return fmt.Errorf("chaos: burst probability %v out of [0,1]", p)
			}
		}
	case KindCPUScale:
		if ev.Scale <= 0 {
			return fmt.Errorf("chaos: non-positive cpu scale %v", ev.Scale)
		}
	}
	return nil
}

// Scenario is a named, replayable fault script.
type Scenario struct {
	// Name identifies the scenario in matrices and reports.
	Name string
	// Info is a one-line description for humans.
	Info string
	// Events is the fault script. Events need not be sorted; same-instant
	// events apply in slice order.
	Events []Event
}

// Validate reports whether every event is well-formed.
func (sc Scenario) Validate() error {
	if sc.Name == "" {
		return errors.New("chaos: scenario missing name")
	}
	for i, ev := range sc.Events {
		if err := ev.Validate(); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	return nil
}

// Horizon returns the time of the latest event (0 for an empty script).
func (sc Scenario) Horizon() time.Duration {
	var h time.Duration
	for _, ev := range sc.Events {
		if ev.At > h {
			h = ev.At
		}
	}
	return h
}

// Nodes binds a scenario to the emulated world.
type Nodes struct {
	Sender    *netem.Node
	Receivers []*netem.Node
}

// resolve maps a target to the concrete receiver indices it covers;
// sender targets return {-1}.
func (t Target) resolve(receivers int) []int {
	switch t.Role {
	case RoleSender:
		return []int{-1}
	case RoleReceiver:
		if receivers == 0 {
			return nil
		}
		return []int{t.Index % receivers}
	case RoleAllReceivers:
		out := make([]int, receivers)
		for i := range out {
			out[i] = i
		}
		return out
	case RoleEvenReceivers:
		var out []int
		for i := 0; i < receivers; i += 2 {
			out = append(out, i)
		}
		return out
	}
	return nil
}

// Schedule arms every event of sc on its target node's own env (Node.Env)
// and returns the scenario horizon. On a classic network every Node.Env is
// the shared env; on a sharded network it is the node's lane, where alone
// that node's knobs may be touched. Events are stable-sorted by time, so
// same-instant events apply in slice order; events already due (At == 0)
// run on the next env dispatch.
func Schedule(n Nodes, sc Scenario) (time.Duration, error) {
	if n.Sender == nil {
		return 0, errors.New("chaos: nil sender node")
	}
	if err := sc.Validate(); err != nil {
		return 0, fmt.Errorf("chaos: scenario %q: %w", sc.Name, err)
	}
	evs := append([]Event(nil), sc.Events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	for _, ev := range evs {
		for _, idx := range ev.Target.resolve(len(n.Receivers)) {
			node := n.Sender
			if idx >= 0 {
				node = n.Receivers[idx]
			}
			node.Env().Schedule(ev.At, func() { applyKnob(ev, node) })
		}
	}
	return sc.Horizon(), nil
}

// applyKnob turns one event into the node knob call it stands for.
func applyKnob(ev Event, node *netem.Node) {
	switch ev.Kind {
	case KindPartition, KindCrash:
		node.SetPartitioned(true)
	case KindHeal, KindRestart:
		node.SetPartitioned(false)
	case KindLoss:
		node.SetLoss(ev.Pct)
	case KindBurst:
		node.SetBurstLoss(ev.PGB, ev.PBG, ev.DropBad)
	case KindBurstOff:
		node.SetBurstLoss(0, 0, 0)
	case KindCPUScale:
		node.SetProcScale(ev.Scale)
	}
}

// NodeEnd is the statically derived end-of-scenario state of one node.
type NodeEnd struct {
	// Partitioned is true when the node's last partition/crash was never
	// healed/restarted.
	Partitioned bool
	// Crashed is true when the node's last isolation came from KindCrash
	// (a process death, not a link fault) and no restart followed.
	Crashed bool
	// Dirty is true when the node ends the scenario with residual loss,
	// burst loss, or a CPU scale other than 1 — i.e. a fault that never
	// reverted.
	Dirty bool
}

// Down reports whether the node ends the scenario disconnected.
func (ne NodeEnd) Down() bool { return ne.Partitioned || ne.Crashed }

// EndState replays the scenario's knob effects (without the simulator) and
// returns the end state of the sender and of each of the given receivers.
// Checkers use it to decide which invariants apply: convergence is only
// owed by nodes that end the scenario connected and clean.
func (sc Scenario) EndState(receivers int) (sender NodeEnd, recv []NodeEnd) {
	recv = make([]NodeEnd, receivers)
	evs := append([]Event(nil), sc.Events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	type knobs struct {
		loss  float64
		burst bool
		scale float64
	}
	kn := make([]knobs, receivers+1) // index 0 = sender, 1+i = receiver i
	for i := range kn {
		kn[i].scale = 1
	}
	at := func(idx int) (*NodeEnd, *knobs) {
		if idx < 0 {
			return &sender, &kn[0]
		}
		return &recv[idx], &kn[1+idx]
	}
	for _, ev := range evs {
		for _, idx := range ev.Target.resolve(receivers) {
			ne, k := at(idx)
			switch ev.Kind {
			case KindPartition:
				ne.Partitioned = true
			case KindHeal:
				ne.Partitioned = false
			case KindCrash:
				ne.Partitioned = true
				ne.Crashed = true
			case KindRestart:
				ne.Partitioned = false
				ne.Crashed = false
			case KindLoss:
				k.loss = ev.Pct
			case KindBurst:
				k.burst = ev.PGB > 0
			case KindBurstOff:
				k.burst = false
			case KindCPUScale:
				k.scale = ev.Scale
				if ev.Scale <= 0 {
					k.scale = 1
				}
			}
		}
	}
	for i := range kn {
		ne, k := &sender, &kn[0]
		if i > 0 {
			ne, k = &recv[i-1], &kn[i]
		}
		ne.Dirty = k.loss != 0 || k.burst || k.scale != 1
	}
	return sender, recv
}
