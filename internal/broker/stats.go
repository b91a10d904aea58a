package broker

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ServerStats are cumulative broker counters. A Stats snapshot is
// internally consistent: all fields come from the same seqlock
// generation, so invariants that hold per update batch (e.g. BytesOut
// matching MsgsOut for a fixed payload size) hold in every snapshot.
type ServerStats struct {
	Connections   uint64
	MsgsIn        uint64
	MsgsOut       uint64
	BytesIn       uint64
	BytesOut      uint64
	Subscriptions uint64

	// SlowConsumerDrops counts frames dropped by SlowConsumerDrop;
	// SlowConsumerDisconnects counts clients evicted by
	// SlowConsumerDisconnect.
	SlowConsumerDrops       uint64
	SlowConsumerDisconnects uint64

	// AdmissionWaits counts publish batches that parked on the admission
	// gauge; AdmissionTimeouts counts the subset that gave up waiting and
	// proceeded (see admission.go for why the wait is bounded).
	AdmissionWaits    uint64
	AdmissionTimeouts uint64

	// Federation counters (route.go). Routes is the number of live
	// inter-broker routes (a gauge); RemoteSubs is the number of remote
	// interest entries currently installed by peers (a gauge); RoutedMsgs
	// counts RMSG frames forwarded to peers; DupsSuppressed counts
	// inbound routed frames dropped by the origin-tag dedup rule (our own
	// origin echoed back, i.e. a loop a misconfigured mesh would create).
	Routes         uint64
	RemoteSubs     uint64
	RoutedMsgs     uint64
	DupsSuppressed uint64
}

// counters is the seqlock-guarded stats block. Writers (routeBatch and
// the rare connection/subscription events) serialize on mu and bump seq
// to odd around their field updates; Stats spins until it reads the same
// even seq before and after loading the fields, so a snapshot can never
// mix counters from two different updates. The fields stay atomics so
// the reader's loads are race-clean while a writer is mid-update.
type counters struct {
	mu  sync.Mutex
	seq atomic.Uint64

	connections       atomic.Uint64
	msgsIn            atomic.Uint64
	msgsOut           atomic.Uint64
	bytesIn           atomic.Uint64
	bytesOut          atomic.Uint64
	subscriptions     atomic.Uint64
	slowDrops         atomic.Uint64
	slowDisconnects   atomic.Uint64
	admissionWaits    atomic.Uint64
	admissionTimeouts atomic.Uint64
	routes            atomic.Uint64
	remoteSubs        atomic.Uint64
	routedMsgs        atomic.Uint64
	dupsSuppressed    atomic.Uint64
}

// write runs fn (which updates counter fields) inside one seqlock
// generation.
func (c *counters) write(fn func()) {
	c.mu.Lock()
	c.seq.Add(1)
	fn()
	c.seq.Add(1)
	c.mu.Unlock()
}

// Stats returns an internally consistent snapshot of the broker
// counters: the seqlock retry guarantees all fields belong to the same
// update generation (no torn reads across counters mid-publish).
func (s *Server) Stats() ServerStats {
	c := &s.stats
	for {
		s1 := c.seq.Load()
		if s1&1 == 0 {
			snap := ServerStats{
				Connections:             c.connections.Load(),
				MsgsIn:                  c.msgsIn.Load(),
				MsgsOut:                 c.msgsOut.Load(),
				BytesIn:                 c.bytesIn.Load(),
				BytesOut:                c.bytesOut.Load(),
				Subscriptions:           c.subscriptions.Load(),
				SlowConsumerDrops:       c.slowDrops.Load(),
				SlowConsumerDisconnects: c.slowDisconnects.Load(),
				AdmissionWaits:          c.admissionWaits.Load(),
				AdmissionTimeouts:       c.admissionTimeouts.Load(),
				Routes:                  c.routes.Load(),
				RemoteSubs:              c.remoteSubs.Load(),
				RoutedMsgs:              c.routedMsgs.Load(),
				DupsSuppressed:          c.dupsSuppressed.Load(),
			}
			if c.seq.Load() == s1 {
				return snap
			}
		}
		runtime.Gosched()
	}
}
