package broker

import (
	"sync"
	"sync/atomic"
	"time"
)

// Publish admission is the broker's backpressure valve. Every accepted
// outbound frame adds its wire size to a server-wide gauge when it is
// enqueued and removes it when its bytes are written to a socket (or the
// frame is discarded with a dying connection). Before a connection's core
// routes a batch of publishes it waits, off every lock, until the gauge
// is below the configured window — so an unpaced publisher is paced by
// the drain rate of the fan-out instead of inflating half-second queues
// inside the broker. Because the wait happens on the publisher's own
// reader goroutine, the publisher's TCP socket fills and the backpressure
// propagates all the way to the remote writer.
//
// The wait is bounded: a pathological consumer can pin queued bytes
// without draining them (e.g. a stalled peer under SlowConsumerDrop
// whose queue bound exceeds the admission window), and blocking
// publishers forever on it would hand one broken subscriber a veto over
// the whole bus. On timeout the publish proceeds anyway — the per-client
// queue bounds and slow-consumer policies remain the backstop — and the
// timeout is counted in ServerStats.AdmissionTimeouts.

// Admission defaults: the window bounds bytes queued inside the broker
// (32 MiB is one default client write queue), the timeout bounds how
// long a publisher can be parked on a gauge that is not draining.
const (
	defaultAdmissionBytes   = 32 << 20
	defaultAdmissionTimeout = time.Second
)

// admission is the shared gauge plus the wake channel for parked
// publishers.
type admission struct {
	limit int64
	cur   atomic.Int64

	mu   sync.Mutex
	wake chan struct{} // non-nil while publishers are parked; closed on drain
}

// add records bytes entering the pipeline (enqueue of an accepted frame).
func (a *admission) add(n int64) {
	a.cur.Add(n)
}

// done records bytes leaving the pipeline (written or discarded) and
// wakes parked publishers once the gauge falls back under the window.
func (a *admission) done(n int64) {
	if a.cur.Add(-n) >= a.limit {
		return
	}
	a.mu.Lock()
	if a.wake != nil {
		close(a.wake)
		a.wake = nil
	}
	a.mu.Unlock()
}

// over reports whether the gauge is at or above the window.
func (a *admission) over() bool {
	return a.cur.Load() >= a.limit
}

// wait parks the caller until the gauge is under the window, the timeout
// expires, or quit closes. It reports false on timeout.
func (a *admission) wait(timeout time.Duration, quit <-chan struct{}) bool {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		a.mu.Lock()
		if !a.over() {
			a.mu.Unlock()
			return true
		}
		ch := a.wake
		if ch == nil {
			ch = make(chan struct{})
			a.wake = ch
		}
		a.mu.Unlock()
		select {
		case <-ch:
		case <-timer.C:
			return false
		case <-quit:
			return true // shutting down; let the reader run to its exit
		}
	}
}
