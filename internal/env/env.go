// Package env abstracts the execution environment — clock, timers, and
// randomness — so that transport protocols and middleware are written once
// as event-driven state machines and run unchanged in two worlds:
//
//   - SimEnv: virtual time driven by the deterministic discrete-event kernel
//     in package sim (the Emulab-substitute used by every experiment), and
//   - RealEnv: the same kernel paced by the wall clock (used by the
//     loopback/UDP examples). One executor goroutine owns the kernel: it
//     runs the callbacks other goroutines Post, firing the kernel's events
//     due by time.Now() before each, then sleeps until the next event is
//     due or another Post arrives.
//
// The serialization guarantee is the load-bearing part of the contract:
// an Env never runs two callbacks concurrently, so protocol state machines
// need no locks. Both Envs arm timers on the one kernel event lifecycle, so
// a Timer is the kernel's allocation-free handle in both worlds.
package env

import (
	"math/rand"
	"sync"
	"time"

	"adamant/internal/sim"
)

// Timer is a cancelable pending callback: Stop returns false if the
// callback already ran or the timer was already stopped, and after it
// returns true the callback never runs; Pending reports whether the
// callback is still queued. The zero Timer is stopped.
type Timer = sim.Timer

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
	// Schedule is After with the handle dropped: fn runs d from now with
	// no way to cancel it.
	Schedule(d time.Duration, fn func())
	// ScheduleArg is the closure-free form of Schedule: fn(arg) runs d from
	// now. Hot paths that would capture per-event state in a closure (one
	// allocation per packet hop) pass a static fn and a pooled arg instead;
	// the steady-state cost is zero allocations per event.
	ScheduleArg(d time.Duration, fn func(arg any), arg any)
	// Post schedules fn to run as soon as possible, after any callbacks
	// already queued. It is the bridge for external events (e.g. packets
	// read from a real socket).
	Post(fn func())
	// Rand returns a named deterministic random stream: equal names yield
	// identical streams for a given seed.
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
func (s *SimEnv) After(d time.Duration, fn func()) Timer { return s.k.After(d, fn) }

// Schedule implements Env.
func (s *SimEnv) Schedule(d time.Duration, fn func()) { s.k.After(d, fn) }

// ScheduleArg implements Env through the kernel's closure-free path.
func (s *SimEnv) ScheduleArg(d time.Duration, fn func(arg any), arg any) {
	s.k.ScheduleArg(d, fn, arg)
}

// Post implements Env.
func (s *SimEnv) Post(fn func()) { s.k.After(0, fn) }

// Rand implements Env.
func (s *SimEnv) Rand(name string) *rand.Rand { return s.k.Rand(name) }

// RealEnv is a SimEnv whose kernel is paced by the wall clock and owned by
// one executor goroutine. Post, Close and Barrier are the only methods other
// goroutines may call. Now, After, Schedule, ScheduleArg, Kernel and a
// Timer's Stop and Pending are called from callbacks, which the executor
// runs serially; enter the env through Post. Create one with NewReal and
// release it with Close.
type RealEnv struct {
	SimEnv
	mu     sync.Mutex
	queue  []func()
	closed bool
	wake   chan struct{} // one pending signal: a Post or Close arrived
	done   chan struct{}
}

var _ Env = (*RealEnv)(nil)

// NewReal starts the executor goroutine with the kernel's clock at
// time.Now(). seed feeds the named random streams so tests against RealEnv
// can still be made reproducible.
func NewReal(seed int64) *RealEnv {
	k := sim.New(seed)
	_ = k.RunUntil(time.Now())
	e := &RealEnv{SimEnv: SimEnv{k}, wake: make(chan struct{}, 1), done: make(chan struct{})}
	go e.loop()
	return e
}

// loop is the executor: each posted callback runs with the clock brought
// to time.Now() and the events due by then fired, and between batches the
// executor sleeps until the next event is due or a Post wakes it.
func (e *RealEnv) loop() {
	defer close(e.done)
	sleep := time.NewTimer(time.Hour)
	defer sleep.Stop()
	for {
		e.mu.Lock()
		batch, closed := e.queue, e.closed
		e.queue = nil
		e.mu.Unlock()
		for _, fn := range batch {
			_ = e.k.RunUntil(time.Now())
			fn()
		}
		if closed {
			return
		}
		_ = e.k.RunUntil(time.Now())
		next, ok := e.k.Next()
		if !ok {
			<-e.wake
			continue
		}
		if d := time.Duration(next.UnixNano() - time.Now().UnixNano()); d > 0 {
			sleep.Reset(d)
			select {
			case <-e.wake:
			case <-sleep.C:
			}
		}
	}
}

// Post implements Env. Posting to a closed env is a no-op.
func (e *RealEnv) Post(fn func()) { e.enqueue(fn) }

// enqueue queues fn for the executor and wakes it; it reports false once
// the env is closed.
func (e *RealEnv) enqueue(fn func()) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	e.queue = append(e.queue, fn)
	select {
	case e.wake <- struct{}{}:
	default:
	}
	return true
}

// Close stops the executor after draining queued callbacks and waits for it
// to exit. Timers still pending are dropped. Close is idempotent.
func (e *RealEnv) Close() {
	e.mu.Lock()
	e.closed = true
	select {
	case e.wake <- struct{}{}:
	default:
	}
	e.mu.Unlock()
	<-e.done
}

// Barrier posts a no-op and waits until the executor has processed it,
// guaranteeing every callback posted before the call has completed. Useful
// in tests.
func (e *RealEnv) Barrier() {
	ch := make(chan struct{})
	if e.enqueue(func() { close(ch) }) {
		<-ch
	}
}
