package broker

import (
	"sync"
	"time"
)

// serverClient is one connection of the broker, in either role: a link, the
// reader goroutine's loop over it, and the role's state. A connection the
// broker accepted starts as a client (rt == nil) and becomes a route when
// the peer's ROUTE line registers; one the broker dialed (dialRoute) is a
// route from its first byte. The role decides the message verb the loop
// batches (PUB or RMSG) and the command set every other line goes to —
// nothing else: reading, batching, the flush points and teardown are the
// same code for both.
type serverClient struct {
	link
	srv *Server
	id  uint64

	// rt is the route state, nil in the client role. Reader goroutine only.
	rt *route

	smu  sync.Mutex
	subs map[string][]*serverSub // sid -> subs (duplicate sids allowed)
}

// run is the reader goroutine's loop, left when the connection dies or is
// dropped. Consecutive message lines collect in the link's ingest batch,
// which is routed when the next read would block, before any other line is
// handled (strict command order), at the batch bounds, and on the way out.
func (c *serverClient) run() {
	defer c.teardown()
	var fields [16][]byte
	for {
		// The next read would block (or the buffer holds only a partial
		// line): route what we have instead of sitting on it.
		blocking := !c.completeLineBuffered()
		if blocking {
			c.flushIngest()
		}
		line, err := c.readLine()
		if err != nil {
			return
		}
		if blocking && c.rt != nil {
			// Once per socket read, not per line: lines parsed out of the
			// buffer arrived with the read that was stamped.
			c.rt.lastRecv.Store(time.Now().UnixNano())
		}
		nf := splitFields(line, fields[:0])
		if len(nf) == 0 {
			continue
		}
		verb := "PUB"
		if c.rt != nil {
			verb = "RMSG"
		}
		var keep bool
		switch {
		case asciiFold(nf[0], verb):
			keep = c.ingestMsg(nf)
		case c.rt != nil:
			c.flushIngest() // strict command order: prior messages route first
			keep = c.routeCommand(nf)
		default:
			c.flushIngest()
			keep = c.clientCommand(nf)
		}
		if !keep {
			return
		}
	}
}

// flushIngest routes the connection's pending batch.
func (c *serverClient) flushIngest() { c.srv.flushIngest(&c.in, c.rt) }

// teardown ends the connection from the reader's side.
func (c *serverClient) teardown() {
	// Fully received messages are routed even if the peer is gone: a
	// pipelined publisher that disconnects right after writing must not
	// lose its tail.
	c.flushIngest()
	if c.rt != nil {
		c.srv.teardownRoute(c.rt)
	}
	c.srv.dropClient(c)
	// The writer drains queued replies (-ERR, PONG, trailing MSGs),
	// flushes, and closes the connection.
	c.out.close()
}

// ingestMsg parses the role's message line — PUB <subject> <nbytes> from a
// client, RMSG <subject> <origin> <nbytes> [queue...] from a route — and
// its payload into the ingest batch. It reports whether the connection is
// kept: false means the stream is unframeable from here.
func (c *serverClient) ingestMsg(f [][]byte) bool {
	r, in := c.rt, &c.in
	sizeAt, usage := 2, "PUB requires <subject> <nbytes>"
	if r != nil {
		sizeAt, usage = 3, "RMSG requires <subject> <origin> <nbytes>"
	}
	// A PUB has exactly its three fields; an RMSG's queue names trail them.
	if len(f) <= sizeAt || (r == nil && len(f) > 3) {
		c.flushIngest() // error replies keep command order, like any other line
		c.sendErr(usage)
		return r == nil // no size was read: a client goes on, a route is dropped
	}
	n, ok := parseSize(f[sizeAt])
	if !ok {
		c.flushIngest()
		c.sendErr("bad payload size")
		return false
	}
	blocking := c.r.Buffered() < n+2
	if blocking {
		// The payload read will block on the socket: route what we have
		// first so batching never delays delivery.
		c.flushIngest()
	}
	// The header fields borrow the reader's buffer, which the payload read
	// refills — take what routing needs of them first.
	var m pendingPub
	qoff := len(in.qnames)
	if r != nil {
		m.selfOrigin = string(f[2]) == c.srv.id
		for i, q := range f[4:] {
			if i > 0 {
				in.qnames = append(in.qnames, ' ')
			}
			in.qnames = append(in.qnames, q...)
		}
	}
	pb, err := c.readPayload(f[1], n)
	if err != nil {
		return false
	}
	if blocking && r != nil {
		r.lastRecv.Store(time.Now().UnixNano())
	}
	if !validSubjectBytes(pb.subj) {
		msg := "invalid subject"
		if err := ValidateSubject(string(pb.subj)); err != nil {
			msg = err.Error()
		}
		pb.release(1)
		in.qnames = in.qnames[:qoff]
		c.flushIngest()
		c.sendErr(msg)
		return true
	}
	m.pb, m.queues = pb, in.qnames[qoff:]
	in.pending = append(in.pending, m)
	in.pendingBytes += n
	if in.full() {
		c.flushIngest()
	}
	return true
}

// validSubjectBytes is the allocation-free publish-subject check:
// non-empty dot tokens, no wildcards. (Whitespace cannot appear — the
// field splitter already consumed it.)
func validSubjectBytes(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	prev := byte('.')
	for _, ch := range b {
		switch ch {
		case '.':
			if prev == '.' {
				return false
			}
		case '*', '>':
			return false
		}
		prev = ch
	}
	return prev != '.'
}

// clientCommand handles one line of the client role other than PUB and
// reports whether the connection is kept.
func (c *serverClient) clientCommand(f [][]byte) bool {
	switch cmd := f[0]; {
	case asciiFold(cmd, "SUB"):
		c.handleSub(f)
	case asciiFold(cmd, "UNSUB"):
		if len(f) != 2 {
			c.sendErr("UNSUB requires <sid>")
			break
		}
		c.srv.removeSub(c, string(f[1]))
	case asciiFold(cmd, "PING"):
		// PONG is the client's flush barrier: everything sent before the
		// PING was routed by the flush that precedes every command.
		c.sendLine("PONG")
	case asciiFold(cmd, "CONNECT"):
		// Name is informational only.
	case asciiFold(cmd, "ROUTE"):
		return c.routeHello(f)
	default:
		c.sendErr("unknown command " + string(cmd))
	}
	return true
}

func (c *serverClient) handleSub(fields [][]byte) {
	var pattern, queue, sid string
	switch len(fields) {
	case 3:
		pattern, sid = string(fields[1]), string(fields[2])
	case 4:
		pattern, queue, sid = string(fields[1]), string(fields[2]), string(fields[3])
	default:
		c.sendErr("SUB requires <subject> [queue] <sid>")
		return
	}
	if err := ValidatePattern(pattern); err != nil {
		c.sendErr(err.Error())
		return
	}
	c.srv.addSub(&serverSub{client: c, pattern: pattern, queue: queue, sid: sid})
}

// routeCommand handles one line of the route role other than RMSG and
// reports whether the connection is kept.
func (c *serverClient) routeCommand(f [][]byte) bool {
	r := c.rt
	switch cmd := f[0]; {
	case asciiFold(cmd, "RS+"):
		c.handleRSub(f, true)
	case asciiFold(cmd, "RS-"):
		c.handleRSub(f, false)
	case asciiFold(cmd, "PING"):
		c.sendLine("PONG")
	case asciiFold(cmd, "PONG"):
		// the lastRecv stamp in run is the whole point
	case asciiFold(cmd, "RINFO"):
		c.srv.handleRInfo(f)
	case asciiFold(cmd, "ROUTE"):
		if r.registered {
			break // duplicate handshake line: ignore
		}
		return c.routeHello(f)
	case asciiFold(cmd, "-ERR"):
		if !r.registered {
			// Handshake rejected (duplicate route): park the redial.
			r.dupLost = true
			return false
		}
	default:
		c.sendErr("unknown route command " + string(cmd))
	}
	return true
}

// routeHello handles the peer's ROUTE <id> [addr] line. On an accepted
// connection it is the upgrade: the connection gives up its client
// subscriptions and becomes a route — the link, with its reader position,
// outbound queue and writer goroutine, carries over — and is answered with
// our half of the handshake. On a connection this broker dialed it is the
// reply that completes registration. It reports whether the connection is
// kept.
func (c *serverClient) routeHello(f [][]byte) bool {
	s := c.srv
	if len(f) < 2 || len(f) > 3 || len(f[1]) == 0 {
		c.sendErr("ROUTE requires <serverID> [clusterAddr]")
		return false
	}
	r := c.rt
	if r == nil {
		s.clearSubs(c) // a route holds no client subscriptions
		r = newRoute(&c.link, false)
	}
	r.id = string(f[1])
	if len(f) == 3 && len(f[2]) > 0 {
		r.addr = string(f[2])
	}
	if !s.registerRoute(r) {
		if !r.dialed {
			c.sendErr("duplicate route")
		}
		return false
	}
	if !r.dialed {
		c.rt = r
		c.sendLine("ROUTE " + s.id + " " + s.opts.clusterAddr)
	}
	return true
}

// handleRSub applies one RS+ (add=true) or RS- interest line from the
// peer. Interest entries are idempotent per (pattern, queue): the peer
// refcounts on its side and only sends edge transitions.
func (c *serverClient) handleRSub(fields [][]byte, add bool) {
	s, r := c.srv, c.rt
	var pattern, queue string
	switch len(fields) {
	case 2:
		pattern = string(fields[1])
	case 3:
		pattern, queue = string(fields[1]), string(fields[2])
	default:
		c.sendErr("RS requires <pattern> [queue]")
		return
	}
	if err := ValidatePattern(pattern); err != nil {
		c.sendErr(err.Error())
		return
	}
	k := interestKey{pattern: pattern, queue: queue}
	sub, have := r.subs[k]
	if add == have {
		return
	}
	if add {
		sub = &serverSub{rt: r, pattern: pattern, queue: queue}
		r.subs[k] = sub
		s.eachPatternShard(pattern, func(sh *shard) { sh.insert(sub) })
		s.stats.remoteSubs.Add(1)
		return
	}
	delete(r.subs, k)
	s.eachPatternShard(pattern, func(sh *shard) { sh.remove(sub) })
	s.stats.remoteSubs.Add(^uint64(0))
}

// handleRInfo reacts to gossip about a mesh member: dial any advertised
// peer we have no route to. Duplicate dials resolve via the tie-break.
func (s *Server) handleRInfo(fields [][]byte) {
	if len(fields) != 3 {
		return
	}
	id, addr := string(fields[1]), string(fields[2])
	if id == "" || id == s.id || !routableAddr(addr) {
		return
	}
	s.fedMu.Lock()
	_, have := s.routes[id]
	s.fedMu.Unlock()
	if !have {
		s.AddRoute(addr)
	}
}

func (s *Server) addSub(sub *serverSub) {
	c := sub.client
	c.smu.Lock()
	c.subs[sub.sid] = append(c.subs[sub.sid], sub)
	c.smu.Unlock()
	s.eachPatternShard(sub.pattern, func(sh *shard) { sh.insert(sub) })
	s.stats.subscriptions.Add(1)
	s.numSubs.Add(1)
	s.interestAdd(sub.pattern, sub.queue)
}

func (s *Server) removeSub(c *serverClient, sid string) {
	c.smu.Lock()
	subs := c.subs[sid]
	delete(c.subs, sid)
	c.smu.Unlock()
	s.withdrawSubs(subs)
}

// clearSubs removes every subscription c holds (used on teardown and
// when a connection upgrades to a route, which keeps no client subs).
func (s *Server) clearSubs(c *serverClient) {
	c.smu.Lock()
	all := c.subs
	c.subs = make(map[string][]*serverSub)
	c.smu.Unlock()
	for _, subs := range all {
		s.withdrawSubs(subs)
	}
}

// withdrawSubs takes client subscriptions out of the routing trie and out
// of the interest propagated to peers.
func (s *Server) withdrawSubs(subs []*serverSub) {
	for _, sub := range subs {
		s.eachPatternShard(sub.pattern, func(sh *shard) { sh.remove(sub) })
		s.numSubs.Add(-1)
		s.interestDrop(sub.pattern, sub.queue)
	}
}

// eachPatternShard runs fn under the lock of every shard the pattern
// routes through: one for a literal first token, all for a wildcard.
func (s *Server) eachPatternShard(pattern string, fn func(*shard)) {
	if idx := shardIndex(pattern, len(s.shards)); idx >= 0 {
		sh := s.shards[idx]
		sh.mu.Lock()
		fn(sh)
		sh.mu.Unlock()
		return
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		fn(sh)
		sh.mu.Unlock()
	}
}

// dropClient takes c out of the connection table and removes its
// subscriptions.
func (s *Server) dropClient(c *serverClient) {
	s.mu.Lock()
	delete(s.clients, c)
	s.mu.Unlock()
	s.clearSubs(c)
}
