// Package env abstracts the execution environment — clock, timers, and
// randomness — so that transport protocols and middleware are written once
// as event-driven state machines and run unchanged in two worlds:
//
//   - SimEnv: virtual time driven by the deterministic discrete-event kernel
//     in package sim (the Emulab-substitute used by every experiment), and
//   - RealEnv: wall-clock time with callbacks serialized on one goroutine
//     (used by the loopback/UDP examples).
//
// The serialization guarantee is the load-bearing part of the contract:
// an Env never runs two callbacks concurrently, so protocol state machines
// need no locks.
package env

import (
	"math/rand"
	"sync"
	"time"

	"adamant/internal/sim"
)

// Timer is a cancelable pending callback.
type Timer interface {
	// Stop cancels the timer. It returns false if the callback already ran
	// or the timer was already stopped. After Stop returns true the
	// callback will never run.
	Stop() bool
}

// Env is the execution environment handed to protocol state machines.
//
// Callbacks passed to After and Post are executed serially: no two callbacks
// from the same Env ever run concurrently, and Now is only meaningful from
// inside a callback or from the driving goroutine.
type Env interface {
	// Now returns the current time (virtual or wall-clock).
	Now() time.Time
	// After schedules fn to run d from now.
	After(d time.Duration, fn func()) Timer
	// Schedule is the fire-and-forget form of After: fn runs d from now
	// with no way to cancel it. Hot paths that never cancel should prefer
	// it — SimEnv recycles the underlying event through the kernel's free
	// list, so Schedule does not allocate once the simulation is warm.
	Schedule(d time.Duration, fn func())
	// ScheduleArg is the closure-free form of Schedule: fn(arg) runs d from
	// now. Hot paths that would capture per-event state in a closure (one
	// allocation per packet hop) pass a static fn and a pooled arg instead;
	// under SimEnv the steady-state cost is zero allocations per event.
	ScheduleArg(d time.Duration, fn func(arg any), arg any)
	// Post schedules fn to run as soon as possible, after any callbacks
	// already queued. It is the bridge for external events (e.g. packets
	// read from a real socket).
	Post(fn func())
	// Rand returns a named deterministic random stream. In SimEnv equal
	// names yield identical streams for a given seed; RealEnv streams are
	// seeded from the wall clock.
	Rand(name string) *rand.Rand
}

// SimEnv adapts a sim.Kernel to the Env interface.
type SimEnv struct {
	k *sim.Kernel
}

var _ Env = (*SimEnv)(nil)

// NewSim wraps kernel as an Env.
func NewSim(kernel *sim.Kernel) *SimEnv { return &SimEnv{k: kernel} }

// Kernel returns the underlying simulation kernel.
func (s *SimEnv) Kernel() *sim.Kernel { return s.k }

// Now implements Env.
func (s *SimEnv) Now() time.Time { return s.k.Now() }

// After implements Env.
func (s *SimEnv) After(d time.Duration, fn func()) Timer { return simTimer{s.k.After(d, fn)} }

// Schedule implements Env through the kernel's pooled fire-and-forget path.
func (s *SimEnv) Schedule(d time.Duration, fn func()) { s.k.Schedule(d, fn) }

// ScheduleArg implements Env through the kernel's closure-free pooled path.
func (s *SimEnv) ScheduleArg(d time.Duration, fn func(arg any), arg any) {
	s.k.ScheduleArg(d, fn, arg)
}

// Post implements Env.
func (s *SimEnv) Post(fn func()) { s.k.Schedule(0, fn) }

// Rand implements Env.
func (s *SimEnv) Rand(name string) *rand.Rand { return s.k.Rand(name) }

type simTimer struct{ e *sim.Event }

func (t simTimer) Stop() bool { return t.e.Cancel() }

// RealEnv executes callbacks on a single dedicated goroutine in wall-clock
// time. Create one with NewReal and release it with Close.
type RealEnv struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []func()
	closed bool
	done   chan struct{}
	seed   int64
}

var _ Env = (*RealEnv)(nil)

// NewReal starts the executor goroutine. seed feeds the named random
// streams so tests against RealEnv can still be made reproducible.
func NewReal(seed int64) *RealEnv {
	e := &RealEnv{done: make(chan struct{}), seed: seed}
	e.cond = sync.NewCond(&e.mu)
	go e.loop()
	return e
}

func (e *RealEnv) loop() {
	defer close(e.done)
	for {
		e.mu.Lock()
		for len(e.queue) == 0 && !e.closed {
			e.cond.Wait()
		}
		if e.closed && len(e.queue) == 0 {
			e.mu.Unlock()
			return
		}
		fn := e.queue[0]
		e.queue = e.queue[1:]
		e.mu.Unlock()
		fn()
	}
}

// Now implements Env.
func (e *RealEnv) Now() time.Time { return time.Now() }

// Post implements Env. Posting to a closed env is a no-op.
func (e *RealEnv) Post(fn func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.queue = append(e.queue, fn)
	e.cond.Signal()
}

// Schedule implements Env. Timers that fire after Close are dropped by
// Post, matching After's behavior.
func (e *RealEnv) Schedule(d time.Duration, fn func()) {
	if d <= 0 {
		e.Post(fn)
		return
	}
	time.AfterFunc(d, func() { e.Post(fn) })
}

// ScheduleArg implements Env. RealEnv is not a hot path, so it simply wraps
// the pair in a closure; the allocation-free contract is SimEnv's.
func (e *RealEnv) ScheduleArg(d time.Duration, fn func(arg any), arg any) {
	e.Schedule(d, func() { fn(arg) })
}

// After implements Env.
func (e *RealEnv) After(d time.Duration, fn func()) Timer {
	rt := &realTimer{}
	rt.t = time.AfterFunc(d, func() {
		rt.mu.Lock()
		if rt.stopped {
			rt.mu.Unlock()
			return
		}
		rt.fired = true
		rt.mu.Unlock()
		e.Post(fn)
	})
	return rt
}

// Rand implements Env.
func (e *RealEnv) Rand(name string) *rand.Rand {
	return rand.New(rand.NewSource(sim.DeriveSeed(e.seed, name)))
}

// Close stops the executor after draining queued callbacks and waits for the
// loop goroutine to exit. Timers that fire after Close are dropped.
func (e *RealEnv) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		<-e.done
		return
	}
	e.closed = true
	e.cond.Signal()
	e.mu.Unlock()
	<-e.done
}

// Barrier posts a no-op and waits until the executor has processed it,
// guaranteeing every callback posted before the call has completed. Useful
// in tests.
func (e *RealEnv) Barrier() {
	ch := make(chan struct{})
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.queue = append(e.queue, func() { close(ch) })
	e.cond.Signal()
	e.mu.Unlock()
	<-ch
}

type realTimer struct {
	mu      sync.Mutex
	t       *time.Timer
	stopped bool
	fired   bool
}

func (t *realTimer) Stop() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped || t.fired {
		return false
	}
	t.stopped = true
	t.t.Stop()
	return true
}
