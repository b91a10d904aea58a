package sim

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestKernelStartsAtEpoch(t *testing.T) {
	k := New(1)
	if !k.Now().Equal(Epoch) {
		t.Errorf("Now() = %v, want %v", k.Now(), Epoch)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	k := New(1)
	var order []int
	k.After(30*time.Millisecond, func() { order = append(order, 3) })
	k.After(10*time.Millisecond, func() { order = append(order, 1) })
	k.After(20*time.Millisecond, func() { order = append(order, 2) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	k := New(1)
	var order []int
	at := k.Now().Add(5 * time.Millisecond)
	for i := 0; i < 10; i++ {
		i := i
		k.At(at, func() { order = append(order, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(order) {
		t.Errorf("same-instant events fired out of scheduling order: %v", order)
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	k := New(1)
	var at time.Time
	k.After(42*time.Millisecond, func() { at = k.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := Epoch.Add(42 * time.Millisecond); !at.Equal(want) {
		t.Errorf("callback saw Now() = %v, want %v", at, want)
	}
}

func TestPastEventsClampToNow(t *testing.T) {
	k := New(1)
	k.After(10*time.Millisecond, func() {
		k.At(Epoch, func() {
			if k.Now().Before(Epoch.Add(10 * time.Millisecond)) {
				t.Error("clock moved backwards")
			}
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCancel(t *testing.T) {
	k := New(1)
	fired := false
	e := k.After(time.Millisecond, func() { fired = true })
	if !e.Stop() {
		t.Error("first Stop returned false")
	}
	if e.Stop() {
		t.Error("second Stop returned true; want idempotent false")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("canceled event fired")
	}
}

func TestCancelAfterFire(t *testing.T) {
	k := New(1)
	e := k.After(time.Millisecond, func() {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Stop() {
		t.Error("Stop after fire returned true")
	}
}

// TestTimerStaleHandle pins the generation check: a handle whose event
// fired and was recycled for a later timer neither reports nor stops that
// timer, and the zero Timer is stopped.
func TestTimerStaleHandle(t *testing.T) {
	var zero Timer
	if zero.Pending() || zero.Stop() {
		t.Error("zero Timer reports pending or stops")
	}
	k := New(1)
	a := k.After(time.Millisecond, func() {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	fired := false
	b := k.After(time.Millisecond, func() { fired = true })
	if b.e != a.e {
		t.Fatal("B did not take A's recycled event")
	}
	if a.Pending() || a.Stop() {
		t.Error("stale handle A reports pending or stops")
	}
	if !b.Pending() {
		t.Error("B not pending")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("B did not fire after A's stale Stop")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	k := New(1)
	var fired []int
	events := make([]Timer, 20)
	for i := range events {
		i := i
		events[i] = k.After(time.Duration(i)*time.Millisecond, func() { fired = append(fired, i) })
	}
	for i := 5; i < 15; i++ {
		events[i].Stop()
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 10 {
		t.Fatalf("fired %d events, want 10: %v", len(fired), fired)
	}
	if !sort.IntsAreSorted(fired) {
		t.Errorf("fired out of order after cancels: %v", fired)
	}
}

func TestRunUntil(t *testing.T) {
	k := New(1)
	var fired []int
	k.After(10*time.Millisecond, func() { fired = append(fired, 1) })
	k.After(30*time.Millisecond, func() { fired = append(fired, 2) })
	deadline := Epoch.Add(20 * time.Millisecond)
	if err := k.RunUntil(deadline); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 {
		t.Errorf("fired = %v, want just the first event", fired)
	}
	if !k.Now().Equal(deadline) {
		t.Errorf("Now() = %v, want clock advanced to deadline %v", k.Now(), deadline)
	}
	if k.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", k.Pending())
	}
}

func TestRunFor(t *testing.T) {
	k := New(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		k.After(time.Second, tick)
	}
	k.After(time.Second, tick)
	if err := k.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("ticked %d times in 10s, want 10", n)
	}
}

func TestEventLimit(t *testing.T) {
	k := New(1)
	k.SetEventLimit(100)
	var loop func()
	loop = func() { k.After(time.Microsecond, loop) }
	k.After(0, loop)
	if err := k.Run(); !errors.Is(err, ErrEventLimit) {
		t.Errorf("err = %v, want ErrEventLimit", err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func(seed int64) []int64 {
		k := New(seed)
		rng := k.Rand("workload")
		var draws []int64
		var tick func()
		tick = func() {
			draws = append(draws, rng.Int63())
			if len(draws) < 50 {
				k.After(time.Duration(rng.Intn(1000))*time.Microsecond, tick)
			}
		}
		k.After(0, tick)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return draws
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at draw %d", i)
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical draws")
	}
}

func TestRandStreamsIndependent(t *testing.T) {
	k := New(3)
	a := k.Rand("alpha")
	b := k.Rand("beta")
	a2 := k.Rand("alpha")
	if a.Int63() != a2.Int63() {
		t.Error("equal stream names must yield identical streams")
	}
	equal := 0
	for i := 0; i < 20; i++ {
		if a.Int63() == b.Int63() {
			equal++
		}
	}
	if equal > 2 {
		t.Errorf("streams alpha and beta look correlated: %d equal draws", equal)
	}
}

func TestDeriveSeedDistinct(t *testing.T) {
	seen := map[int64]string{}
	names := []string{"", "a", "b", "ab", "ba", "node-1", "node-2", "loss", "cpu"}
	for _, n := range names {
		s := DeriveSeed(42, n)
		if prev, ok := seen[s]; ok {
			t.Errorf("DeriveSeed collision between %q and %q", prev, n)
		}
		seen[s] = n
	}
	if DeriveSeed(1, "x") == DeriveSeed(2, "x") {
		t.Error("same name with different seeds must differ")
	}
}

// Property: any batch of events with arbitrary delays fires in nondecreasing
// time order, and the clock never moves backwards.
func TestHeapOrderingProperty(t *testing.T) {
	f := func(delaysRaw []uint32) bool {
		if len(delaysRaw) > 200 {
			delaysRaw = delaysRaw[:200]
		}
		k := New(11)
		var times []time.Time
		for _, d := range delaysRaw {
			k.After(time.Duration(d%1_000_000)*time.Microsecond, func() {
				times = append(times, k.Now())
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i].Before(times[i-1]) {
				return false
			}
		}
		return len(times) == len(delaysRaw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: random interleaving of schedules and cancels never corrupts the
// heap: every non-canceled event fires exactly once, in order.
func TestScheduleCancelProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := New(seed)
		fired := map[int]int{}
		var events []Timer
		canceled := map[int]bool{}
		n := 100
		for i := 0; i < n; i++ {
			i := i
			events = append(events, k.After(time.Duration(rng.Intn(5000))*time.Microsecond,
				func() { fired[i]++ }))
			if rng.Intn(3) == 0 && len(events) > 0 {
				victim := rng.Intn(len(events))
				if events[victim].Stop() {
					canceled[victim] = true
				}
			}
		}
		if err := k.Run(); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			want := 1
			if canceled[i] {
				want = 0
			}
			if fired[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestScheduleArgOrderAndPooling pins the closure-free dispatch path: it
// interleaves with After in strict (time, seq) order and recycles events
// through the free list like After does.
func TestScheduleArgOrderAndPooling(t *testing.T) {
	k := New(1)
	var order []int
	at := 3 * time.Millisecond
	k.After(at, func() { order = append(order, 0) })
	k.ScheduleArg(at, func(a any) { order = append(order, a.(int)) }, 1)
	k.After(at, func() { order = append(order, 2) })
	k.ScheduleArg(at, func(a any) { order = append(order, a.(int)) }, 3)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(order) || len(order) != 4 {
		t.Errorf("same-instant After/ScheduleArg fired out of order: %v", order)
	}
	if len(k.free) != 4 {
		t.Errorf("free list holds %d events after run, want 4", len(k.free))
	}
}

// TestScheduleArgAllocationFree verifies the whole point of ScheduleArg: in
// steady state (warm free list, pointer-shaped arg) it never allocates.
func TestScheduleArgAllocationFree(t *testing.T) {
	k := New(1)
	type payload struct{ n int }
	p := &payload{}
	fn := func(a any) { a.(*payload).n++ }
	k.ScheduleArg(time.Microsecond, fn, p) // warm the free list
	k.Step()
	allocs := testing.AllocsPerRun(1000, func() {
		k.ScheduleArg(time.Microsecond, fn, p)
		k.Step()
	})
	if allocs != 0 {
		t.Errorf("ScheduleArg allocated %.1f times per event, want 0", allocs)
	}
}

// TestKernelFootprint pins what a lane costs: the sharded storm and the
// 500-receiver crucible cells build one Kernel per node, 500 to 1 000 of
// them, so a Kernel stays a few words, not an inline slot array.
func TestKernelFootprint(t *testing.T) {
	if n := unsafe.Sizeof(Kernel{}); n > 256 {
		t.Errorf("unsafe.Sizeof(Kernel{}) = %d bytes, want <= 256", n)
	}
}

// horizon is the reach of the timer wheel the kernel once kept in front of
// its heap (1024 ticks of 16.384 µs). The tests below keep their delays on
// both sides of it and far past it, where the wheel's boundaries were.
const horizon = 16_777_216 * time.Nanosecond

// TestFireOrderAcrossDelays schedules events around one tick, just inside,
// exactly at and beyond the horizon, and far past it, and checks they fire
// in time order.
func TestFireOrderAcrossDelays(t *testing.T) {
	k := New(1)
	const tick = 16_384 * time.Nanosecond
	delays := []time.Duration{
		0, time.Nanosecond, tick - 1, tick,
		horizon - time.Nanosecond, horizon, horizon + time.Nanosecond,
		10 * horizon,
	}
	var fired []time.Duration
	for _, d := range delays {
		d := d
		k.After(d, func() { fired = append(fired, d) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != len(delays) {
		t.Fatalf("fired %d of %d events", len(fired), len(delays))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("fired out of order: %v", fired)
		}
	}
}

// TestCancelAtAnyDelay cancels a due-now event, two events at the same
// instant and one past the horizon, and checks only the kept event fires.
func TestCancelAtAnyDelay(t *testing.T) {
	k := New(1)
	fired := 0
	count := func() { fired++ }
	now := k.After(0, count)
	sameA := k.After(time.Millisecond, count)
	sameB := k.After(time.Millisecond, count) // same instant as sameA
	far := k.After(horizon+time.Second, count)
	keep := k.After(2*time.Millisecond, count) // survives
	for _, e := range []Timer{now, sameA, far} {
		if !e.Stop() {
			t.Fatal("Stop returned false for a queued event")
		}
		if e.Stop() {
			t.Fatal("second Stop returned true")
		}
	}
	if !sameB.Stop() {
		t.Fatal("Stop of the same-instant event returned false")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Errorf("fired = %d, want 1 (only the kept event)", fired)
	}
	if keep.Stop() {
		t.Error("Stop after fire returned true")
	}
}

// TestPendingCountsEveryDelay checks Pending counts events due now, soon,
// and past the horizon.
func TestPendingCountsEveryDelay(t *testing.T) {
	k := New(1)
	k.After(0, func() {})
	k.After(time.Millisecond, func() {})
	k.After(horizon+time.Minute, func() {})
	if got := k.Pending(); got != 3 {
		t.Errorf("Pending() = %d, want 3", got)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := k.Pending(); got != 0 {
		t.Errorf("Pending() after Run = %d, want 0", got)
	}
}

// TestRunUntilDeadlineInclusive drains exactly the events at or before the
// deadline, one soon and one past the horizon exactly at the deadline.
func TestRunUntilDeadlineInclusive(t *testing.T) {
	k := New(1)
	var fired []int
	k.After(time.Millisecond, func() { fired = append(fired, 1) })
	k.After(horizon+time.Second, func() { fired = append(fired, 2) })
	deadline := Epoch.Add(horizon + time.Second)
	if err := k.RunUntil(deadline); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Errorf("fired = %v, want both events (deadline inclusive)", fired)
	}
	if !k.Now().Equal(deadline) {
		t.Errorf("Now() = %v, want %v", k.Now(), deadline)
	}
}

// BenchmarkScheduleAndFire measures one After and its firing: after warmup
// every event comes from the kernel free list, so steady state allocates
// nothing per event.
func BenchmarkScheduleAndFire(b *testing.B) {
	k := New(1)
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.After(time.Microsecond, fn)
		k.Step()
	}
}

// BenchmarkScheduleArg measures the closure-free dispatch path.
func BenchmarkScheduleArg(b *testing.B) {
	k := New(1)
	fn := func(any) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.ScheduleArg(time.Microsecond, fn, nil)
		k.Step()
	}
}

// BenchmarkScheduleDeep measures steady-state pop/push with a large pending
// set: 100k events resident, four in five within 10 ms and the rest up to
// 200 ms out, on both sides of the horizon.
func BenchmarkScheduleDeep(b *testing.B) {
	k := New(1)
	fn := func() {}
	rng := rand.New(rand.NewSource(7))
	delay := func() time.Duration {
		if rng.Intn(5) == 0 {
			return time.Duration(rng.Intn(200_000)) * time.Microsecond
		}
		return time.Duration(rng.Intn(10_000)) * time.Microsecond
	}
	for i := 0; i < 100_000; i++ {
		k.After(delay(), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.After(delay(), fn)
		k.Step()
	}
}
