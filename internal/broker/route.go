package broker

// Inter-broker federation: routes, interest propagation, and membership.
//
// A route is a broker↔broker connection built on the same link substrate
// as a client connection (link.go). The mesh keeps a full-mesh, one-hop
// topology with three cooperating mechanisms:
//
//   - Interest propagation. Every local (pattern, queue) subscription is
//     refcounted in Server.localInterest; the 0→1 and 1→0 transitions
//     broadcast RS+/RS- to every route, and a newly registered route
//     receives the full dump. A peer's interest is installed in the
//     routing trie as ordinary serverSub entries with rt set, so
//     routeBatch sees local clients and remote brokers through one match
//     — a broker forwards a publish only to peers that proved interest.
//     Inbound RMSGs are batched and routed by the same routeBatch.
//
//   - Origin-tagged forwarding with one-hop dedup. A forwarded message
//     (RMSG) carries the origin broker's server ID. The receiver delivers
//     it to local clients only — remote interests matched on the
//     receiving side are skipped — so a publish traverses at most one
//     inter-broker hop and reaches each subscriber exactly once in a
//     full mesh. An RMSG that echoes back carrying our own ID (a loop a
//     misconfigured topology would create) is dropped and counted in
//     DupsSuppressed. Queue groups stay exactly-once mesh-wide: the
//     origin broker picks one member treating each interested peer as a
//     candidate, and at most one peer receives the group's name in the
//     RMSG; that peer picks one local member.
//
//   - Gossip membership and failure detection. Route registration
//     exchanges RINFO <id> <addr> lines describing the rest of the mesh,
//     and a broker dials every advertised peer it has no route to — one
//     seed route is enough to join a full mesh. A monitor goroutine
//     PINGs every route each heartbeat interval and tears down routes
//     silent past the suspect bound; teardown withdraws the peer's
//     interest from the trie, so publishes stop being routed to a dead
//     broker within the detection bound. Dialed routes redial with
//     backoff, so a restarted broker rejoins by itself.
//
// Simultaneous dials (A dials B while B dials A) resolve without flapping:
// the connection dialed by the lexicographically higher server ID wins,
// evaluated identically on both sides.

import (
	"net"
	"strconv"
	"sync/atomic"
	"time"
)

const (
	defaultRouteHeartbeat = 500 * time.Millisecond
	defaultRouteSuspect   = 2 * time.Second

	routeDialTimeout = 2 * time.Second
	routeRedialMin   = 50 * time.Millisecond
	routeRedialMax   = 2 * time.Second
)

// route is the route-role state of one broker↔broker connection. The
// connection's core (serverClient.feed) owns every non-atomic field after
// registration; lastRecv, on the server clock, is shared with the
// heartbeat monitor.
type route struct {
	ln         *link
	id         string // peer server ID (ROUTE handshake)
	addr       string // peer's advertised cluster address, "-" if none
	dialed     bool   // we initiated this connection
	registered bool
	dupLost    bool // lost the duplicate-route tie-break (or self-connect)
	lastRecv   atomic.Int64

	// The peer's propagated interest, installed in our routing trie.
	subs map[interestKey]*serverSub
}

// newRoute returns the route state for a connection over l, last heard
// from at now, and marks the link as a route's (see link.sendLine).
func (s *Server) newRoute(l *link, dialed bool, now int64) *route {
	l.evicted = &s.stats.controlEvictions
	r := &route{ln: l, dialed: dialed, addr: "-", subs: make(map[interestKey]*serverSub)}
	r.lastRecv.Store(now)
	return r
}

// dialedByHigher reports whether this connection was initiated by the
// mesh-wide tie-break winner for the (selfID, r.id) pair. Both sides of
// a duplicate compute the same answer, so exactly one connection
// survives a simultaneous dial.
func (r *route) dialedByHigher(selfID string) bool {
	if r.dialed {
		return selfID > r.id
	}
	return r.id > selfID
}

// encodeRMsgHeader appends "RMSG <subject> <origin> <n> [queue...]\r\n"
// to a pooled buffer. Queue names trail the fixed fields so the parser
// takes everything after the size as group names.
func encodeRMsgHeader(subject []byte, origin string, n int, queues []string) *headerBuf {
	h := getHeaderBuf()
	b := h.b
	b = append(b, "RMSG "...)
	b = append(b, subject...)
	b = append(b, ' ')
	b = append(b, origin...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(n), 10)
	for _, q := range queues {
		b = append(b, ' ')
		b = append(b, q...)
	}
	b = append(b, '\r', '\n')
	h.b = b
	return h
}

// AddRoute asks the broker to establish and maintain a route to the
// broker listening at addr (its client or cluster listener — both speak
// the ROUTE handshake). The dial retries with backoff until the server
// shuts down, so routes given before peers are up, and routes to peers
// that restart, converge on their own. Idempotent per address.
func (s *Server) AddRoute(addr string) {
	select {
	case <-s.quit:
		return
	default:
	}
	s.fedMu.Lock()
	if s.dialing[addr] {
		s.fedMu.Unlock()
		return
	}
	s.dialing[addr] = true
	s.fedMu.Unlock()
	go s.dialRoute(addr)
}

// dialRoute is the persistent dialer for one route target, a driver: it
// dials when its schedule (redial) is due and runs the route it gets.
func (s *Server) dialRoute(addr string) {
	defer func() {
		s.fedMu.Lock()
		delete(s.dialing, addr)
		s.fedMu.Unlock()
	}()
	var d redial
	for {
		if now := s.now(); !d.due(now) {
			select {
			case <-s.quit:
				return
			case <-time.After(time.Duration(d.at - now)):
			}
			continue
		}
		var r *route
		if conn, err := net.DialTimeout("tcp", addr, routeDialTimeout); err == nil {
			// In the connection table like an accepted connection, so
			// Shutdown closes it and DrainShutdown flushes what is queued on
			// it; the peer's ROUTE reply completes registration (routeHello).
			c := s.register(conn)
			if c == nil {
				return
			}
			r = s.newRoute(&c.link, true, s.now())
			c.rt = r
			go writeLoop(conn, &c.out)
			c.sendLine("ROUTE " + s.id + " " + s.opts.clusterAddr)
			c.run() // returns when the route dies
		}
		d.ended(s.now(), r)
	}
}

// redial is a route dialer's schedule on the server clock: the next dial is
// due backoff after the last attempt ended. Failed attempts double the
// backoff from routeRedialMin to routeRedialMax; a route that registered
// resets it (a real route died: redial promptly); a lost tie-break parks it
// at the cap, so a later failure of the winning route is still repaired.
type redial struct {
	backoff time.Duration // the wait after the next attempt
	at      int64         // when the next dial is due
}

// ended schedules the next dial after an attempt that ended at now; r is
// the route the attempt made, nil if the dial failed.
func (d *redial) ended(now int64, r *route) {
	switch {
	case r != nil && r.dupLost:
		d.backoff = routeRedialMax
	case d.backoff == 0 || r != nil && r.registered:
		d.backoff = routeRedialMin
	}
	d.at = now + int64(d.backoff)
	d.backoff = min(2*d.backoff, routeRedialMax)
}

// due reports whether the next dial is due at now.
func (d *redial) due(now int64) bool { return now >= d.at }

// registerRoute installs r in the route table, resolving duplicate
// routes to the same peer by the dialed-by-higher-ID rule. On success
// the new peer receives our full local-interest dump and the mesh
// gossips the new member (RINFO) in both directions.
func (s *Server) registerRoute(r *route) bool {
	s.fedMu.Lock()
	if r.id == s.id || r.id == "" {
		s.fedMu.Unlock()
		r.dupLost = true
		return false
	}
	if ex, ok := s.routes[r.id]; ok {
		if ex.dialedByHigher(s.id) || !r.dialedByHigher(s.id) {
			s.fedMu.Unlock()
			r.dupLost = true
			return false
		}
		// The new connection wins the tie-break: evict the old one. Its
		// teardown skips the table delete because the entry now points
		// at r.
		ex.ln.conn.Close()
	}
	s.routes[r.id] = r
	r.registered = true
	s.stats.routes.Store(uint64(len(s.routes)))
	for k, n := range s.localInterest {
		if n > 0 {
			r.ln.sendLine(rsLine("RS+", k))
		}
	}
	for id, other := range s.routes {
		if other == r {
			continue
		}
		if routableAddr(other.addr) {
			r.ln.sendLine("RINFO " + id + " " + other.addr)
		}
		if routableAddr(r.addr) {
			other.ln.sendLine("RINFO " + r.id + " " + r.addr)
		}
	}
	s.fedMu.Unlock()
	return true
}

func routableAddr(addr string) bool { return addr != "" && addr != "-" }

// teardownRoute deregisters r and withdraws the peer's interest from
// the routing trie, so publishes stop being forwarded to a dead peer
// the moment its failure is detected.
func (s *Server) teardownRoute(r *route) {
	s.fedMu.Lock()
	if r.registered && s.routes[r.id] == r {
		delete(s.routes, r.id)
		s.stats.routes.Store(uint64(len(s.routes)))
	}
	s.fedMu.Unlock()
	for _, sub := range r.subs {
		s.sl.remove(sub)
	}
	s.stats.remoteSubs.Add(-uint64(len(r.subs))) // unsigned: subtracts
	r.subs = nil
}

// interestAdd refcounts one local (pattern, queue) interest; the 0→1
// transition broadcasts RS+ to every route.
func (s *Server) interestAdd(pattern, queue string) {
	k := interestKey{pattern: pattern, queue: queue}
	s.fedMu.Lock()
	n := s.localInterest[k] + 1
	s.localInterest[k] = n
	if n == 1 {
		for _, r := range s.routes {
			r.ln.sendLine(rsLine("RS+", k))
		}
	}
	s.fedMu.Unlock()
}

// interestDrop undoes interestAdd; the 1→0 transition broadcasts RS-.
func (s *Server) interestDrop(pattern, queue string) {
	k := interestKey{pattern: pattern, queue: queue}
	s.fedMu.Lock()
	n := s.localInterest[k] - 1
	if n <= 0 {
		delete(s.localInterest, k)
		if n == 0 {
			for _, r := range s.routes {
				r.ln.sendLine(rsLine("RS-", k))
			}
		}
	} else {
		s.localInterest[k] = n
	}
	s.fedMu.Unlock()
}

func rsLine(verb string, k interestKey) string {
	if k.queue == "" {
		return verb + " " + k.pattern
	}
	return verb + " " + k.pattern + " " + k.queue
}

// routeMonitor is the heartbeat driver: each interval it checks the
// routes at the server clock's reading.
func (s *Server) routeMonitor() {
	t := time.NewTicker(s.opts.hbInterval)
	defer t.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-t.C:
			s.checkRoutes(s.now())
		}
	}
}

// checkRoutes is the failure detector, one heartbeat at now: it closes
// every route silent past the suspect bound and PINGs the others. Closing
// the conn unblocks the route's reader, whose teardown withdraws the
// peer's interest — so the time from silent peer to "no longer routed to"
// is bounded by suspect + one heartbeat interval.
func (s *Server) checkRoutes(now int64) {
	cutoff := now - int64(s.opts.hbSuspect)
	s.fedMu.Lock()
	defer s.fedMu.Unlock()
	for _, r := range s.routes {
		if r.lastRecv.Load() < cutoff {
			r.ln.conn.Close()
		} else {
			r.ln.sendLine("PING")
		}
	}
}
