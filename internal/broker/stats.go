package broker

import "sync/atomic"

// ServerStats are cumulative broker counters. The data-path fields (MsgsIn,
// BytesIn, MsgsOut, BytesOut, RoutedMsgs and the two slow-consumer
// counters) are internally consistent in every snapshot: each received
// message is counted together with everything that became of it, so
// identities that hold per message (BytesOut matching MsgsOut for a fixed
// payload size, MsgsOut + SlowConsumerDrops == MsgsIn for one subscriber
// under the drop policy) hold in every snapshot. The remaining fields are
// independent counters and gauges.
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

	// ControlEvictions counts routes torn down because a control line
	// (RS+, RS-, RINFO, PING, a reply) met the route's full queue.
	ControlEvictions uint64
}

// flowStats are the data-path counters, guarded by the index lock.
// routeBatch counts a message and what its deliveries came to under one
// hold of the lock, and Stats reads under the same lock: a snapshot never
// shows a message without its deliveries.
type flowStats struct {
	msgsIn, bytesIn uint64
	out             runResult
}

// gauges are the counters of rare events, each on its own: none takes part
// in an identity with another.
type gauges struct {
	connections       atomic.Uint64
	subscriptions     atomic.Uint64
	admissionWaits    atomic.Uint64
	admissionTimeouts atomic.Uint64
	routes            atomic.Uint64
	remoteSubs        atomic.Uint64
	dupsSuppressed    atomic.Uint64
	controlEvictions  atomic.Uint64
}

// Stats returns a snapshot of the broker counters, the data-path fields
// read under the index lock (see ServerStats).
func (s *Server) Stats() ServerStats {
	g := &s.stats
	s.sl.mu.Lock()
	f := s.sl.flow
	s.sl.mu.Unlock()
	return ServerStats{
		Connections:             g.connections.Load(),
		Subscriptions:           g.subscriptions.Load(),
		AdmissionWaits:          g.admissionWaits.Load(),
		AdmissionTimeouts:       g.admissionTimeouts.Load(),
		Routes:                  g.routes.Load(),
		RemoteSubs:              g.remoteSubs.Load(),
		DupsSuppressed:          g.dupsSuppressed.Load(),
		ControlEvictions:        g.controlEvictions.Load(),
		MsgsIn:                  f.msgsIn,
		BytesIn:                 f.bytesIn,
		MsgsOut:                 f.out.msgs,
		BytesOut:                f.out.msgBytes,
		RoutedMsgs:              f.out.rmsgs,
		SlowConsumerDrops:       f.out.drops,
		SlowConsumerDisconnects: f.out.disconnects,
	}
}
