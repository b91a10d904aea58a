package sim

// Differential tests for the lane-sharded conservative-window engine, in
// the style of refqueue_test.go: drive randomized workloads through the
// engine at several worker widths and demand bit-identical observable
// traces, with the plain Kernel as the reference model for the single-lane
// degenerate case.

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

const testLookahead = 30 * time.Microsecond

// shardEnt is one observable firing: the lane clock at fire time and the
// lane-local rng draw made by the callback. Together with per-lane append
// order this captures everything protocol code can observe.
type shardEnt struct {
	key int64
	r   uint64
}

// laneCtx is one lane's workload state. All events that run on the lane
// share it, so the rng consumption order is itself part of the trace.
type laneCtx struct {
	sh     *Sharded
	lane   int
	rng    splitmixTest
	budget int
	trace  []shardEnt
	all    []*laneCtx
}

type splitmixTest struct{ state uint64 }

func (s *splitmixTest) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// fire is the workload step: record the observation, then perpetuate the
// simulation with a mix of local scheduling, zero-delay events, timer
// cancel churn, and cross-lane sends at minimum-lookahead distance.
func (c *laneCtx) fire() {
	k := c.sh.LaneKernel(c.lane)
	r := c.rng.next()
	c.trace = append(c.trace, shardEnt{key: k.Now().UnixNano(), r: r})
	if c.budget <= 0 {
		return
	}
	c.budget--
	switch r % 5 {
	case 0: // cross-lane send, tight against the lookahead bound
		dst := c.lane
		if n := len(c.all); n > 1 {
			dst = (c.lane + 1 + int(r>>8)%(n-1)) % n
		}
		at := k.Now().Add(testLookahead + time.Duration((r>>16)%300)*time.Microsecond)
		d := c.all[dst]
		c.sh.Send(c.lane, dst, at, nil, nil, d.fire)
	case 1: // zero-delay local event (same-instant FIFO ordering)
		k.After(0, c.fire)
	case 2: // cancel churn
		ev := k.After(time.Duration(1+(r>>12)%5000)*time.Microsecond, c.fire)
		if r%10 == 2 {
			ev.Stop()
			k.After(time.Duration((r>>20)%800)*time.Microsecond, c.fire)
		}
	case 3: // far-horizon timer
		k.After(time.Duration(20+(r>>10)%180)*time.Millisecond, c.fire)
	default: // near-future local jitter
		k.After(time.Duration((r>>9)%2000)*time.Microsecond, c.fire)
	}
}

// runShardWorkload executes the randomized workload on a fresh engine and
// returns the per-lane traces plus (fired, final now) for comparison.
func runShardWorkload(t *testing.T, lanes, workers, budget int, seed int64) ([][]shardEnt, uint64, int64) {
	t.Helper()
	sh := NewSharded(seed, testLookahead)
	sh.SetWorkers(workers)
	ctxs := make([]*laneCtx, lanes)
	for l := 0; l < lanes; l++ {
		ctxs[l] = &laneCtx{
			sh: sh, lane: sh.AddLane(),
			rng:    splitmixTest{state: uint64(seed)*2654435761 + uint64(l)},
			budget: budget,
		}
	}
	for _, c := range ctxs {
		c.all = ctxs
		d := time.Duration(c.rng.next()%1000) * time.Microsecond
		c.sh.LaneKernel(c.lane).After(d, c.fire)
	}
	// Alternate bounded runs and a final drain so the deadline/advance path
	// is exercised alongside the run-to-empty path.
	if err := sh.RunFor(50 * time.Millisecond); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if err := sh.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	traces := make([][]shardEnt, lanes)
	for l, c := range ctxs {
		traces[l] = c.trace
	}
	return traces, sh.Fired(), sh.Now().UnixNano()
}

// TestShardedWorkerWidthInvariance is the tentpole determinism pin: the
// same topology and workload must produce byte-identical per-lane traces,
// fired counts, and final clocks at every worker width, including the
// single-threaded reference (workers=1).
func TestShardedWorkerWidthInvariance(t *testing.T) {
	for _, lanes := range []int{2, 3, 8, 33} {
		lanes := lanes
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			refTrace, refFired, refNow := runShardWorkload(t, lanes, 1, 400, 11)
			var total int
			for _, tr := range refTrace {
				total += len(tr)
			}
			if total == 0 {
				t.Fatal("workload fired no events")
			}
			for _, workers := range []int{2, 4, 8} {
				gotTrace, gotFired, gotNow := runShardWorkload(t, lanes, workers, 400, 11)
				if gotFired != refFired || gotNow != refNow {
					t.Fatalf("workers=%d: fired/now = %d/%d, want %d/%d",
						workers, gotFired, gotNow, refFired, refNow)
				}
				for l := range refTrace {
					if !reflect.DeepEqual(gotTrace[l], refTrace[l]) {
						t.Fatalf("workers=%d: lane %d trace diverges (len %d vs %d)",
							workers, l, len(gotTrace[l]), len(refTrace[l]))
					}
				}
			}
		})
	}
}

// TestShardedSingleLaneMatchesKernel pins the degenerate case: one lane
// runs the exact same heap and (time, seq) order as a plain Kernel,
// so an identical workload driven through both must produce an identical
// trace.
func TestShardedSingleLaneMatchesKernel(t *testing.T) {
	const budget = 2000
	run := func(after func(d time.Duration, fn func()) Timer,
		now func() time.Time, sendSelf func(at time.Time, fn func())) *[]shardEnt {
		rng := splitmixTest{state: 99}
		trace := new([]shardEnt)
		left := budget
		var fire func()
		fire = func() {
			r := rng.next()
			*trace = append(*trace, shardEnt{key: now().UnixNano(), r: r})
			if left <= 0 {
				return
			}
			left--
			switch r % 5 {
			case 0:
				sendSelf(now().Add(testLookahead+time.Duration((r>>16)%300)*time.Microsecond), fire)
			case 1:
				after(0, fire)
			case 2:
				ev := after(time.Duration(1+(r>>12)%5000)*time.Microsecond, fire)
				if r%10 == 2 {
					ev.Stop()
					after(time.Duration((r>>20)%800)*time.Microsecond, fire)
				}
			case 3:
				after(time.Duration(20+(r>>10)%180)*time.Millisecond, fire)
			default:
				after(time.Duration((r>>9)%2000)*time.Microsecond, fire)
			}
		}
		after(0, fire)
		return trace
	}

	k := New(7)
	kTrace := run(k.After, k.Now, func(at time.Time, fn func()) { k.At(at, fn) })
	if err := k.Run(); err != nil {
		t.Fatalf("kernel run: %v", err)
	}

	sh := NewSharded(7, testLookahead)
	lane := sh.AddLane()
	lk := sh.LaneKernel(lane)
	sTrace := run(lk.After, lk.Now, func(at time.Time, fn func()) { sh.Send(lane, lane, at, nil, nil, fn) })
	if err := sh.Run(); err != nil {
		t.Fatalf("sharded run: %v", err)
	}

	if len(*kTrace) == 0 {
		t.Fatal("reference kernel fired no events")
	}
	if sh.Fired() != k.Fired() {
		t.Fatalf("fired: sharded %d, kernel %d", sh.Fired(), k.Fired())
	}
	if !reflect.DeepEqual(*sTrace, *kTrace) {
		t.Fatalf("traces diverge: sharded %d entries, kernel %d entries", len(*sTrace), len(*kTrace))
	}
}

// TestShardedEventLimit checks the runaway-loop guard crosses the window
// barrier: a zero-delay self-perpetuating event must trip ErrEventLimit
// instead of spinning inside one window forever.
func TestShardedEventLimit(t *testing.T) {
	sh := NewSharded(1, testLookahead)
	l := sh.AddLane()
	sh.SetEventLimit(1000)
	k := sh.LaneKernel(l)
	var spin func()
	spin = func() { k.After(0, spin) }
	k.After(0, spin)
	err := sh.Run()
	if !errors.Is(err, ErrEventLimit) {
		t.Fatalf("Run = %v, want ErrEventLimit", err)
	}
}

// TestShardedLookaheadViolationPanics pins the conservative guarantee: a
// cross-lane send inside the lookahead horizon would break the window
// safety argument and must fail loudly.
func TestShardedLookaheadViolationPanics(t *testing.T) {
	sh := NewSharded(1, testLookahead)
	a, b := sh.AddLane(), sh.AddLane()
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("Send inside the lookahead did not panic")
		}
		if !strings.Contains(fmt.Sprint(p), "lookahead") {
			t.Fatalf("unexpected panic: %v", p)
		}
	}()
	sh.Send(a, b, sh.LaneKernel(a).Now().Add(testLookahead/2), nil, nil, func() {})
}

// TestShardedRunUntilAdvancesClocks pins RunUntil's deadline semantics:
// every lane clock and the global clock land exactly on the deadline, and
// later events stay queued.
func TestShardedRunUntilAdvancesClocks(t *testing.T) {
	sh := NewSharded(3, testLookahead)
	for i := 0; i < 4; i++ {
		sh.AddLane()
	}
	fired := 0
	sh.LaneKernel(2).After(time.Millisecond, func() { fired++ })
	sh.LaneKernel(3).After(time.Hour, func() { fired += 100 })
	deadline := Epoch.Add(10 * time.Millisecond)
	if err := sh.RunUntil(deadline); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if !sh.Now().Equal(deadline) {
		t.Fatalf("Now = %v, want %v", sh.Now(), deadline)
	}
	for i := 0; i < sh.Lanes(); i++ {
		if got := sh.LaneKernel(i).Now(); !got.Equal(deadline) {
			t.Fatalf("lane %d clock = %v, want %v", i, got, deadline)
		}
	}
	if sh.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", sh.Pending())
	}
	if err := sh.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 101 {
		t.Fatalf("fired = %d, want 101 after drain", fired)
	}
}

// TestShardedSendBetweenRuns covers the harness pattern of injecting
// cross-lane work from the driving goroutine between run calls (the shape
// a crucible teardown uses): the message must be merged and delivered on
// the next run.
func TestShardedSendBetweenRuns(t *testing.T) {
	sh := NewSharded(5, testLookahead)
	a, b := sh.AddLane(), sh.AddLane()
	if err := sh.RunFor(time.Millisecond); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	var got int64
	at := sh.LaneKernel(a).Now().Add(testLookahead)
	sh.Send(a, b, at, nil, nil, func() {
		got = sh.LaneKernel(b).Now().UnixNano()
	})
	if err := sh.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != at.UnixNano() {
		t.Fatalf("delivery time = %d, want %d", got, at.UnixNano())
	}
}
