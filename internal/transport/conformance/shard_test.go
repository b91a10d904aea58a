package conformance

// Crucible-level coverage for the sharded engine. The equivalence tower
// below this file — sim-level (internal/sim/shard_test.go: single-lane
// Sharded is byte-identical to the plain Kernel), netem-level
// (internal/netem/shard_test.go: classic and sharded networks agree on
// every observable), and chaos-level (FuzzShardedKernel) — proves classic
// and sharded execution identical whenever same-instant arrivals from
// distinct sources do not contend for receiver CPU.
//
// The crucible's synchronized heartbeat timers break that precondition on
// purpose: every detector fires at exact multiples of the interval, so at
// tie instants a receiver sees the data packet and several heartbeats
// arrive on the same nanosecond. The classic kernel orders those ties by
// global arming order (the whole causal history threaded through one
// event counter); the sharded engine orders them by (source lane, source
// sequence). Both orders are fully deterministic, but they are different
// orders, so CPU queueing at tie instants shifts delivery timestamps
// between engines. The contract the crucible therefore pins is:
//
//  1. width-invariance: the sharded hash is identical at every worker
//     count (1, 2, 8) — parallelism is invisible;
//  2. replayability: same seed, same hash, every time (RunCell);
//  3. invariant conformance: sharded cells pass the full crucible
//     invariant set, including at group size 500;
//  4. protocol equivalence with classic where it is well-defined: on the
//     calm scenario the delivered sequence streams match exactly.
//
// Sharded cells carry /shards=N in their Name and get their own golden
// hash lines; the classic golden corpus is untouched.

import (
	"testing"
	"time"

	"adamant/internal/netem/chaos"
)

// TestCrucibleShardWidthInvariance pins the worker-count contract end to
// end: the same cell at 1, 2, and 8 workers hashes identically. Together
// with the sim- and netem-level width tests this is the acceptance bar
// "output byte-identical at any shard count".
func TestCrucibleShardWidthInvariance(t *testing.T) {
	cells := []CrucibleScenario{
		{Spec: mustSpec("bemcast"), Chaos: chaos.CalmControl()},
		{Spec: mustSpec("nakcast(timeout=5ms)"), Chaos: chaos.SplitBrain()},
		{Spec: mustSpec("fountcast(k=8,oh=25)"), Chaos: chaos.Cascade()},
		{Spec: mustSpec("ricochet(c=3,r=4)"), Chaos: chaos.LossyRamp()},
		{
			Spec:     mustSpec("bemcast"),
			Chaos:    chaos.CalmControl(),
			Switches: []TransportSwitch{{At: 2000 * time.Millisecond, Spec: mustSpec("nakcast(timeout=5ms)")}},
		},
	}
	for _, base := range cells {
		base := base
		base.Shards = 1
		t.Run(base.Name(), func(t *testing.T) {
			t.Parallel()
			want, err := ExecuteCrucible(base)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{2, 8} {
				cell := base
				cell.Shards = shards
				got, err := ExecuteCrucible(cell)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if got.Hash != want.Hash {
					t.Fatalf("shards=%d hash %.12s != shards=1 hash %.12s", shards, got.Hash, want.Hash)
				}
			}
		})
	}
}

// TestCrucibleShardedInvariants holds sharded execution to the full
// crucible invariant set (including the same-seed replay check inside
// RunCell) across a representative spec x scenario slice.
func TestCrucibleShardedInvariants(t *testing.T) {
	cells := []CrucibleScenario{
		{Spec: mustSpec("bemcast"), Chaos: chaos.CalmControl(), Shards: 4},
		{Spec: mustSpec("nakcast(timeout=5ms)"), Chaos: chaos.SplitBrain(), Shards: 4},
		{Spec: mustSpec("fountcast(k=8,oh=25)"), Chaos: chaos.Cascade(), Shards: 4},
		{Spec: mustSpec("ricochet(c=3,r=4)"), Chaos: chaos.LossyRamp(), Shards: 4},
	}
	for _, cell := range cells {
		cell := cell
		t.Run(cell.Name(), func(t *testing.T) {
			t.Parallel()
			res := RunCell(cell)
			if res.Err != nil {
				t.Fatalf("execution: %v", res.Err)
			}
			for _, f := range res.Failures {
				t.Error(f)
			}
		})
	}
}

// TestCrucibleShardedMatchesClassicCalm pins cross-engine protocol
// equivalence in the regime where it is well-defined: with no loss and no
// faults there are no rng draws whose order could shift at tie instants,
// so the delivered sequence streams (though not the CPU-queueing
// timestamps) must be identical between the classic kernel and the
// sharded engine.
func TestCrucibleShardedMatchesClassicCalm(t *testing.T) {
	cell := CrucibleScenario{Spec: mustSpec("bemcast"), Chaos: chaos.CalmControl()}
	classic, err := ExecuteCrucible(cell)
	if err != nil {
		t.Fatal(err)
	}
	cell.Shards = 4
	sharded, err := ExecuteCrucible(cell)
	if err != nil {
		t.Fatal(err)
	}
	for i := range classic.Deliveries {
		c, s := classic.Deliveries[i], sharded.Deliveries[i]
		if len(c) != len(s) {
			t.Fatalf("receiver %d: classic delivered %d, sharded %d", i, len(c), len(s))
		}
		for j := range c {
			if c[j].Seq != s[j].Seq {
				t.Fatalf("receiver %d delivery %d: classic seq %d, sharded seq %d", i, j, c[j].Seq, s[j].Seq)
			}
		}
		if classic.Stats[i].Delivered != sharded.Stats[i].Delivered ||
			classic.Stats[i].Duplicates != sharded.Stats[i].Duplicates {
			t.Fatalf("receiver %d stats diverge: classic %+v, sharded %+v", i, classic.Stats[i], sharded.Stats[i])
		}
		if classic.Views[i].String() != sharded.Views[i].String() {
			t.Fatalf("receiver %d membership views diverge: classic %s, sharded %s",
				i, classic.Views[i], sharded.Views[i])
		}
	}
}

// TestCrucibleLargeGroup runs one full 500-receiver cell end to end on the
// sharded engine and holds it to the complete invariant set, including the
// same-seed replay check. This is the scale regime the sharding work
// exists for. The heartbeat slows to 250ms because membership traffic is
// O(group^2) per interval and the 50ms default would drown the data stream
// at this scale. 200 samples at the default 100 Hz is a 2 s publish window,
// past the cascade's last crash at 1.6 s, so the crash invariants stay
// meaningful while the cell's event count stays inside test-suite budget.
func TestCrucibleLargeGroup(t *testing.T) {
	if testing.Short() {
		t.Skip("500-receiver cell is seconds of work; skipped in -short")
	}
	cell := CrucibleScenario{
		Spec:      mustSpec("bemcast"),
		Chaos:     chaos.Cascade(),
		Seed:      1,
		Receivers: 500,
		Samples:   200,
		Heartbeat: 250 * time.Millisecond,
		Shards:    8,
	}
	res := RunCell(cell)
	if res.Err != nil {
		t.Fatalf("cell %s failed to execute: %v", cell.Name(), res.Err)
	}
	for _, f := range res.Failures {
		t.Errorf("cell %s: %s", cell.Name(), f)
	}
}
