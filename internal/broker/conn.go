package broker

import (
	"bytes"
	"sync"
)

// serverClient is one connection of the broker, in either role: a link,
// the protocol core that consumes what arrives on it (feed), and the role's
// state. A connection the broker accepted starts as a client (rt == nil)
// and becomes a route when the peer's ROUTE line registers; one the broker
// dialed (dialRoute) is a route from its first byte. The role decides the
// message verb the core batches (PUB or RMSG) and the command set every
// other line goes to — nothing else: framing, batching, the flush points
// and teardown are the same code for both.
type serverClient struct {
	link
	srv *Server
	id  uint64

	// rt is the route state, nil in the client role. Core only.
	rt *route

	// What a feed ends inside of carries over to the next (core only): a
	// control line still without its terminator (part), or the message
	// whose payload is still arriving (msg, with got bytes of its payload
	// and terminator in and the queue names of its RMSG line in qbuf).
	part, qbuf []byte
	msg        pendingPub
	got        int

	// dials are the peers RINFO lines advertised, for the driver to dial.
	dials []string

	smu  sync.Mutex
	subs map[string][]*serverSub // sid -> subs (duplicate sids allowed)
}

// feed is the connection's protocol core: it consumes b, bytes the peer
// sent that arrived at now on the server clock, and reports whether the
// connection is kept. Consecutive message lines collect in the link's
// ingest batch, which is routed before any other line is handled (strict
// command order), at the batch bounds, and at the end of b: batching
// amortizes work that is already waiting and never holds a message for
// bytes still to come. A line or payload that b ends inside carries over,
// bounded by maxControlLine and MaxPayload. The core reads no clock,
// touches no socket and starts no goroutine: replies and routed runs go
// onto outbound queues, interest deltas through interestAdd/interestDrop,
// and the peers to dial into dials.
func (c *serverClient) feed(now int64, b []byte) bool {
	if c.rt != nil {
		c.rt.lastRecv.Store(now)
	}
	var fields [16][]byte
	for len(b) > 0 {
		if pb := c.msg.pb; pb != nil {
			// The payload, copied once into its arena buffer, then CRLF or LF.
			if c.got < len(pb.data) {
				n := copy(pb.data[c.got:], b)
				c.got, b = c.got+n, b[n:]
				continue
			}
			switch ch := b[0]; {
			case ch == '\r' && c.got == len(pb.data):
				c.got++
			case ch == '\n':
				c.endMsg()
			default:
				return false // unframeable from here
			}
			b = b[1:]
			continue
		}
		i := bytes.IndexByte(b, '\n')
		end := i // of the line, within b
		if i < 0 {
			end = len(b)
		}
		if len(c.part)+end >= maxControlLine {
			// A peer that sends maxControlLine bytes without a terminator is
			// told so, after what it sent before is routed, and dropped.
			c.flushIngest()
			c.sendErr("control line too long")
			return false
		}
		if i < 0 {
			c.part = append(c.part, b...)
			break
		}
		line := b[:i]
		if len(c.part) > 0 {
			c.part = append(c.part, line...)
			line, c.part = c.part, c.part[:0]
		}
		b = b[i+1:]
		if len(line) > 0 && line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
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
			keep = c.routeCommand(now, nf)
		default:
			c.flushIngest()
			keep = c.clientCommand(now, nf)
		}
		if !keep {
			return false
		}
	}
	c.flushIngest() // the end of the bytes handed in
	return true
}

// flushIngest routes the connection's pending batch.
func (c *serverClient) flushIngest() { c.srv.flushIngest(&c.in, c.rt) }

// teardown ends the connection from the core's side.
func (c *serverClient) teardown() {
	// Fully received messages are routed even if the peer is gone: a
	// pipelined publisher that disconnects right after writing must not
	// lose its tail. One cut off inside its payload is not.
	c.flushIngest()
	if c.msg.pb != nil {
		c.msg.pb.release(1)
	}
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
// opens the message, whose payload the following bytes fill (feed,
// endMsg). It reports whether the connection is kept: false means the
// stream is unframeable from here.
func (c *serverClient) ingestMsg(f [][]byte) bool {
	r := c.rt
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
	// The header fields borrow the bytes being fed: take what routing needs
	// of them now.
	c.qbuf = c.qbuf[:0]
	if r != nil {
		c.msg.selfOrigin = string(f[2]) == c.srv.id
		for i, q := range f[4:] {
			if i > 0 {
				c.qbuf = append(c.qbuf, ' ')
			}
			c.qbuf = append(c.qbuf, q...)
		}
	}
	c.msg.pb, c.got = arenaGet(n), 0
	c.msg.pb.subj = append(c.msg.pb.subj, f[1]...)
	return true
}

// endMsg takes the message whose payload has just ended into the batch.
func (c *serverClient) endMsg() {
	in, m := &c.in, c.msg
	c.msg = pendingPub{}
	if !validSubjectBytes(m.pb.subj) {
		err := ValidateSubject(string(m.pb.subj)) // the same verdict, worded
		m.pb.release(1)
		c.flushIngest()
		c.sendErr(err.Error())
		return
	}
	qoff := len(in.qnames)
	in.qnames = append(in.qnames, c.qbuf...)
	m.queues = in.qnames[qoff:]
	in.pending = append(in.pending, m)
	in.pendingBytes += len(m.pb.data)
	if in.full() {
		c.flushIngest()
	}
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
func (c *serverClient) clientCommand(now int64, f [][]byte) bool {
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
		return c.routeHello(now, f)
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
func (c *serverClient) routeCommand(now int64, f [][]byte) bool {
	r := c.rt
	switch cmd := f[0]; {
	case asciiFold(cmd, "RS+"):
		c.handleRSub(f, true)
	case asciiFold(cmd, "RS-"):
		c.handleRSub(f, false)
	case asciiFold(cmd, "PING"):
		c.sendLine("PONG")
	case asciiFold(cmd, "PONG"):
		// the lastRecv stamp in feed is the whole point
	case asciiFold(cmd, "RINFO"):
		c.handleRInfo(f)
	case asciiFold(cmd, "ROUTE"):
		if r.registered {
			break // duplicate handshake line: ignore
		}
		return c.routeHello(now, f)
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
// subscriptions and becomes a route — the link, with its stream position,
// outbound queue and writer goroutine, carries over — and is answered with
// our half of the handshake. On a connection this broker dialed it is the
// reply that completes registration. It reports whether the connection is
// kept.
func (c *serverClient) routeHello(now int64, f [][]byte) bool {
	s := c.srv
	if len(f) < 2 || len(f) > 3 || len(f[1]) == 0 {
		c.sendErr("ROUTE requires <serverID> [clusterAddr]")
		return false
	}
	r := c.rt
	if r == nil {
		s.clearSubs(c) // a route holds no client subscriptions
		r = s.newRoute(&c.link, false, now)
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
		s.sl.insert(sub)
		s.stats.remoteSubs.Add(1)
		return
	}
	delete(r.subs, k)
	s.sl.remove(sub)
	s.stats.remoteSubs.Add(^uint64(0))
}

// handleRInfo reacts to gossip about a mesh member: the driver is to dial
// any advertised peer we have no route to (dials). Duplicate dials resolve
// via the tie-break.
func (c *serverClient) handleRInfo(fields [][]byte) {
	s := c.srv
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
		c.dials = append(c.dials, addr)
	}
}

func (s *Server) addSub(sub *serverSub) {
	c := sub.client
	c.smu.Lock()
	c.subs[sub.sid] = append(c.subs[sub.sid], sub)
	c.smu.Unlock()
	s.sl.insert(sub)
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
		s.sl.remove(sub)
		s.numSubs.Add(-1)
		s.interestDrop(sub.pattern, sub.queue)
	}
}

// dropClient takes c out of the connection table and removes its
// subscriptions. The last connection to leave a server that is shutting
// down signals DrainShutdown.
func (s *Server) dropClient(c *serverClient) {
	s.mu.Lock()
	delete(s.clients, c)
	if s.shutdown && len(s.clients) == 0 {
		close(s.drained)
	}
	s.mu.Unlock()
	s.clearSubs(c)
}
