// Package sim provides a deterministic discrete-event simulation kernel: a
// virtual clock, an event queue, and seeded random-number streams.
//
// The kernel is the substitute for the paper's Emulab testbed time base.
// Everything above it (network emulation, transport protocols, middleware)
// is written against the environment abstraction in package env, so the same
// protocol code runs under this kernel in virtual time and under the real
// clock in the examples.
//
// The event queue is one monomorphic index-tracking 4-ary min-heap (see
// queue.go). There is no interface boxing anywhere on the hot path.
//
// Determinism contract: given the same seed and the same sequence of
// scheduling calls, a simulation produces bit-identical event orderings.
// Events scheduled for the same instant fire in scheduling order: every
// event is ranked by one (time, seq) total order in one container.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Epoch is the virtual time at which every simulation starts. The concrete
// value is arbitrary; a fixed nonzero epoch catches code that confuses
// wall-clock and simulated time.
var Epoch = time.Date(2010, time.November, 29, 0, 0, 0, 0, time.UTC)

// event is a scheduled callback. Every event returns to its kernel's free
// list once it fires or is stopped, so scheduling allocates nothing once the
// simulation is warm; gen counts those recycles, so a Timer left on a
// recycled event no longer matches it.
type event struct {
	at  time.Time
	key int64  // at.UnixNano(): the scheduler ordering key
	seq uint64 // tie-breaker: FIFO among events at the same instant
	fn  func()
	// argFn/arg are the closure-free dispatch path used by ScheduleArg: hot
	// paths pass a static function and a pooled argument instead of
	// allocating a capturing closure per event.
	argFn func(any)
	arg   any
	owner *Kernel
	index int32 // position in the heap, -1 once fired or stopped
	gen   uint64
}

// Timer is the handle At and After return. It is a value, so holding one
// allocates nothing; the zero Timer is stopped.
type Timer struct {
	e   *event
	gen uint64
}

// Pending reports whether the timer's callback is still queued.
func (t Timer) Pending() bool { return t.e != nil && t.e.gen == t.gen }

// Stop removes the timer's event from the queue. It returns false if the
// callback already ran or the timer was already stopped, and never touches
// an event recycled since.
func (t Timer) Stop() bool {
	if !t.Pending() {
		return false
	}
	k := t.e.owner
	k.q.remove(t.e.index)
	k.recycle(t.e)
	return true
}

// Kernel is a single-threaded discrete-event executor. It is not safe for
// concurrent use: all scheduling must happen from the driving goroutine or
// from within event callbacks (which the kernel runs serially).
type Kernel struct {
	now    time.Time
	nowKey int64 // now.UnixNano()
	q      evHeap
	nextID uint64
	seed   int64
	fired  uint64
	// maxEvents guards against runaway event loops in tests; 0 = unlimited.
	maxEvents uint64
	// free recycles fired and stopped events. Packet-hop simulations churn
	// one event per hop, so reuse keeps the workers out of the allocator on
	// the hot path.
	free []*event
}

// Engine is the surface that drives a whole simulation: the single Kernel
// and the lane-sharded engine both satisfy it.
type Engine interface {
	SetEventLimit(n uint64)
	RunFor(d time.Duration) error
	Run() error
	Pending() int
	Fired() uint64
}

// maxFreeEvents bounds the free list so a scheduling burst cannot pin an
// arbitrarily large pool of dead events.
const maxFreeEvents = 1 << 15

// New returns a kernel with its clock at Epoch, deriving all randomness from
// seed.
func New(seed int64) *Kernel {
	return &Kernel{now: Epoch, nowKey: Epoch.UnixNano(), seed: seed}
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Time { return k.now }

// Seed returns the seed the kernel was created with.
func (k *Kernel) Seed() int64 { return k.seed }

// Fired returns the number of events executed so far.
func (k *Kernel) Fired() uint64 { return k.fired }

// Pending returns the number of events waiting in the queue.
func (k *Kernel) Pending() int { return len(k.q.ev) }

// SetEventLimit bounds the total number of events Run will execute; 0 means
// unlimited. Exceeding the limit makes Run return ErrEventLimit.
func (k *Kernel) SetEventLimit(n uint64) { k.maxEvents = n }

// ErrEventLimit is returned by the run methods when the configured event
// limit is exceeded, which almost always indicates a protocol timer loop
// that fails to terminate.
var ErrEventLimit = errors.New("sim: event limit exceeded")

// At schedules fn to run at virtual time t. Times in the past (before Now)
// are clamped to Now, preserving causal ordering. Callers that never stop
// the timer drop the handle.
func (k *Kernel) At(t time.Time, fn func()) Timer {
	if fn == nil {
		panic("sim: At called with nil callback") // programmer error, not runtime condition
	}
	key := t.UnixNano()
	if key < k.nowKey {
		key = k.nowKey
		t = k.now
	}
	return k.push(key, t, fn, nil, nil)
}

// After schedules fn to run d from now. Negative d is treated as zero.
func (k *Kernel) After(d time.Duration, fn func()) Timer {
	return k.At(k.now.Add(d), fn)
}

// ScheduleArg is the closure-free form of After: at the scheduled time the
// kernel calls fn(arg). Hot paths that would otherwise allocate a capturing
// closure per event (one per packet hop) pass a static function and a
// pooled argument instead; combined with the event free list the
// steady-state cost is zero allocations per event. Ordering is identical to
// After.
func (k *Kernel) ScheduleArg(d time.Duration, fn func(arg any), arg any) {
	if fn == nil {
		panic("sim: ScheduleArg called with nil callback")
	}
	d = max(d, 0)
	k.push(k.nowKey+int64(d), k.now.Add(d), nil, fn, arg)
}

// push queues an event at key (at's UnixNano), taking it from the free list
// when one is there, and stamps it with the kernel's next sequence number.
func (k *Kernel) push(key int64, at time.Time, fn func(), argFn func(any), arg any) Timer {
	var e *event
	if n := len(k.free); n > 0 {
		e = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		e = &event{owner: k}
	}
	e.at, e.key, e.seq = at, key, k.nextID
	e.fn, e.argFn, e.arg = fn, argFn, arg
	k.nextID++
	k.q.push(e)
	return Timer{e, e.gen}
}

// recycle retires e, fired or stopped: every Timer on it goes stale.
func (k *Kernel) recycle(e *event) {
	e.fn, e.argFn, e.arg = nil, nil, nil
	e.gen++
	if len(k.free) < maxFreeEvents {
		k.free = append(k.free, e)
	}
}

// Next returns the time of the earliest pending event; ok is false when the
// queue is empty.
func (k *Kernel) Next() (t time.Time, ok bool) {
	if len(k.q.ev) == 0 {
		return time.Time{}, false
	}
	return k.q.ev[0].at, true
}

// peekKey returns the key of the earliest pending event without removing it.
func (k *Kernel) peekKey() (int64, bool) {
	if len(k.q.ev) == 0 {
		return 0, false
	}
	return k.q.ev[0].key, true
}

// Step fires the earliest pending event, advancing the clock to its time.
// It returns false if the queue is empty.
func (k *Kernel) Step() bool {
	if len(k.q.ev) == 0 {
		return false
	}
	e := k.q.pop()
	k.now = e.at
	k.nowKey = e.key
	fn, argFn, arg := e.fn, e.argFn, e.arg
	k.recycle(e)
	k.fired++
	if argFn != nil {
		argFn(arg)
	} else {
		fn()
	}
	return true
}

// Run executes events until the queue is empty.
func (k *Kernel) Run() error {
	for k.Step() {
		if k.maxEvents > 0 && k.fired > k.maxEvents {
			return fmt.Errorf("%w: %d events", ErrEventLimit, k.fired)
		}
	}
	return nil
}

// RunUntil executes events with time <= deadline, then advances the clock to
// the deadline. Events scheduled after the deadline remain queued.
func (k *Kernel) RunUntil(deadline time.Time) error {
	deadlineKey := deadline.UnixNano()
	for {
		key, ok := k.peekKey()
		if !ok || key > deadlineKey {
			break
		}
		k.Step()
		if k.maxEvents > 0 && k.fired > k.maxEvents {
			return fmt.Errorf("%w: %d events", ErrEventLimit, k.fired)
		}
	}
	if k.now.Before(deadline) {
		k.now = deadline
		k.nowKey = deadlineKey
	}
	return nil
}

// RunFor executes events for virtual duration d from the current time.
func (k *Kernel) RunFor(d time.Duration) error {
	return k.RunUntil(k.now.Add(d))
}

// Rand returns an independent deterministic random stream derived from the
// kernel seed and the given name. Equal names yield identical streams;
// distinct names yield decorrelated streams. Components should each own a
// named stream so that adding a component does not perturb others' draws.
func (k *Kernel) Rand(name string) *rand.Rand {
	return rand.New(rand.NewSource(DeriveSeed(k.seed, name)))
}

// DeriveSeed mixes a base seed with a component name into a new seed using
// an FNV-1a / splitmix64 construction. It is exported for components that
// need raw seeds rather than *rand.Rand streams.
func DeriveSeed(seed int64, name string) int64 {
	h := uint64(1469598103934665603) // FNV offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211 // FNV prime
	}
	h ^= uint64(seed)
	// splitmix64 finalizer for avalanche.
	h += 0x9E3779B97F4A7C15
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	h ^= h >> 31
	return int64(h)
}
