package broker

import (
	"errors"
	"sync"
	"time"
)

func (s *Server) addSub(sub *serverSub) {
	c := sub.client
	c.smu.Lock()
	c.subs[sub.sid] = append(c.subs[sub.sid], sub)
	c.smu.Unlock()
	s.eachPatternShard(sub.pattern, func(sh *shard) {
		sh.insert(sub)
	})
	st := &s.stats
	st.write(func() { st.subscriptions.Add(1) })
	s.numSubs.Add(1)
	s.interestAdd(sub.pattern, sub.queue)
}

func (s *Server) removeSub(c *serverClient, sid string) {
	c.smu.Lock()
	subs := c.subs[sid]
	delete(c.subs, sid)
	c.smu.Unlock()
	for _, sub := range subs {
		s.eachPatternShard(sub.pattern, func(sh *shard) {
			sh.remove(sub)
		})
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

// dropClient deregisters c and removes its subscriptions.
func (s *Server) dropClient(c *serverClient) {
	s.mu.Lock()
	delete(s.clients, c)
	s.mu.Unlock()
	s.clearSubs(c)
}

// clearSubs removes every subscription c holds (used on teardown and
// when a connection upgrades to a route, which keeps no client subs).
func (s *Server) clearSubs(c *serverClient) {
	c.smu.Lock()
	all := c.subs
	c.subs = make(map[string][]*serverSub)
	c.smu.Unlock()
	for _, subs := range all {
		for _, sub := range subs {
			s.eachPatternShard(sub.pattern, func(sh *shard) {
				sh.remove(sub)
			})
			s.numSubs.Add(-1)
			s.interestDrop(sub.pattern, sub.queue)
		}
	}
}

type serverClient struct {
	link
	srv *Server
	id  uint64

	smu  sync.Mutex
	subs map[string][]*serverSub // sid -> subs (duplicate sids allowed)
}

func (c *serverClient) run() {
	defer func() {
		// Route fully received publishes before teardown — a pipelined
		// publisher that disconnects right after writing must not lose its
		// tail (same semantics as the PR 7 route-per-publish path).
		c.flushPubs()
		c.srv.dropClient(c)
		// The writer drains queued replies (-ERR, PONG, trailing MSGs),
		// flushes, and closes the connection.
		c.out.close()
	}()
	var fields [8][]byte
	for {
		if len(c.in.pending) > 0 && !c.completeLineBuffered() {
			// The next read would block (or the buffer holds only a partial
			// line): route what we have instead of sitting on it.
			c.flushPubs()
		}
		line, err := c.readLine()
		if err != nil {
			return
		}
		nf := splitFields(line, fields[:0])
		if len(nf) == 0 {
			continue
		}
		cmd := nf[0]
		switch {
		case asciiFold(cmd, "PUB"):
			if err := c.handlePub(nf); err != nil {
				return
			}
		case asciiFold(cmd, "SUB"):
			c.flushPubs() // strict command order: prior PUBs route first
			c.handleSub(nf)
		case asciiFold(cmd, "UNSUB"):
			c.flushPubs()
			if len(nf) != 2 {
				c.sendErr("UNSUB requires <sid>")
				continue
			}
			c.srv.removeSub(c, string(nf[1]))
		case asciiFold(cmd, "PING"):
			// PONG is the client's flush barrier: everything sent before the
			// PING must be fully processed, so route pending publishes first.
			c.flushPubs()
			c.sendLine("PONG")
		case asciiFold(cmd, "CONNECT"):
			// Name is informational only.
		case asciiFold(cmd, "ROUTE"):
			// The peer is another broker: upgrade this connection to a
			// route (route.go). The link — reader position, outbound
			// queue, writer goroutine — carries over; only the command
			// loop changes. acceptRoute returns when the route dies and
			// the deferred client teardown completes the cleanup.
			c.flushPubs()
			c.srv.acceptRoute(c, nf)
			return
		default:
			c.flushPubs()
			c.sendErr("unknown command " + string(cmd))
		}
	}
}

// flushPubs routes the client's pending ingest batch.
func (c *serverClient) flushPubs() { c.srv.flushIngest(&c.in, nil) }

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

// handlePub parses one publish into the client's ingest batch. The batch
// is routed when it hits its size bounds, when the socket has nothing
// more buffered (see run), or — to preserve command order — before any
// non-PUB command. A returned error tears the connection down (the
// stream is unframeable).
func (c *serverClient) handlePub(fields [][]byte) error {
	if len(fields) != 3 {
		c.flushPubs() // error replies keep command order, like any non-PUB
		c.sendErr("PUB requires <subject> <nbytes>")
		return nil
	}
	n, ok := parseSize(fields[2])
	if !ok {
		c.flushPubs()
		c.sendErr("bad payload size")
		return errors.New("broker: bad payload size")
	}
	if len(c.in.pending) > 0 && c.r.Buffered() < n+2 {
		// The payload read below will block on the socket; route what we
		// already have first so batching never delays delivery.
		c.flushPubs()
	}
	pb, err := c.readPayload(fields[1], n)
	if err != nil {
		return err
	}
	if !validSubjectBytes(pb.subj) {
		bad := string(pb.subj)
		pb.release(1)
		c.flushPubs()
		if err := ValidateSubject(bad); err != nil {
			c.sendErr(err.Error())
		} else {
			c.sendErr("invalid subject")
		}
		return nil
	}
	c.in.pending = append(c.in.pending, pendingPub{pb: pb})
	c.in.pendingBytes += n
	if c.in.full() {
		c.flushPubs()
	}
	return nil
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

// acceptRoute upgrades an accepted connection into a route after its
// ROUTE <id> [addr] line (fields). It returns when the route dies; the
// caller's deferred client teardown closes the shared link.
func (s *Server) acceptRoute(c *serverClient, fields [][]byte) {
	if len(fields) < 2 || len(fields) > 3 || len(fields[1]) == 0 {
		c.sendErr("ROUTE requires <serverID> [clusterAddr]")
		return
	}
	s.clearSubs(c) // a route holds no client subscriptions
	r := &route{ln: &c.link, addr: "-", subs: make(map[interestKey]*serverSub)}
	r.id = string(fields[1])
	if len(fields) == 3 && len(fields[2]) > 0 {
		r.addr = string(fields[2])
	}
	r.lastRecv.Store(time.Now().UnixNano())
	if !s.registerRoute(r) {
		c.sendErr("duplicate route")
		return
	}
	r.ln.sendLine("ROUTE " + s.id + " " + s.opts.clusterAddr) // our half of the handshake
	s.routeLoop(r)
}

// routeLoop is the route's command loop; the reader goroutine stays in
// it until the connection dies, then teardown withdraws the peer's
// interest. For dialed routes the peer's ROUTE reply arrives here as the
// first line and completes registration.
//
// Consecutive RMSGs collect in the link's ingest batch exactly as a
// client's PUBs do: the batch is routed before any other line is handled,
// when the next read would block, and at the batch bounds. lastRecv is
// stamped once per socket read, not per line: lines parsed out of the
// buffer arrived with the read that was stamped.
func (s *Server) routeLoop(r *route) {
	defer s.teardownRoute(r)
	// Fully received messages are routed even if the peer is gone.
	defer s.flushIngest(&r.ln.in, r)
	var fields [16][]byte
	for {
		blocking := !r.ln.completeLineBuffered()
		if blocking {
			s.flushIngest(&r.ln.in, r)
		}
		line, err := r.ln.readLine()
		if err != nil {
			return
		}
		if blocking {
			r.lastRecv.Store(time.Now().UnixNano())
		}
		nf := splitFields(line, fields[:0])
		if len(nf) == 0 {
			continue
		}
		cmd := nf[0]
		if asciiFold(cmd, "RMSG") {
			if err := s.handleRMsg(r, nf); err != nil {
				return
			}
			continue
		}
		s.flushIngest(&r.ln.in, r) // strict line order: prior RMSGs route first
		switch {
		case asciiFold(cmd, "RS+"):
			s.handleRSub(r, nf, true)
		case asciiFold(cmd, "RS-"):
			s.handleRSub(r, nf, false)
		case asciiFold(cmd, "PING"):
			r.ln.sendLine("PONG")
		case asciiFold(cmd, "PONG"):
			// lastRecv refresh above is the whole point
		case asciiFold(cmd, "RINFO"):
			s.handleRInfo(nf)
		case asciiFold(cmd, "ROUTE"):
			if r.registered {
				continue // duplicate handshake line: ignore
			}
			if len(nf) < 2 || len(nf) > 3 || len(nf[1]) == 0 {
				r.ln.sendErr("ROUTE requires <serverID> [clusterAddr]")
				return
			}
			r.id = string(nf[1])
			if len(nf) == 3 && len(nf[2]) > 0 {
				r.addr = string(nf[2])
			}
			if !s.registerRoute(r) {
				return
			}
		case asciiFold(cmd, "-ERR"):
			if !r.registered {
				// Handshake rejected (duplicate route): park the redial.
				r.dupLost = true
				return
			}
		default:
			r.ln.sendErr("unknown route command " + string(cmd))
		}
	}
}

// handleRSub applies one RS+ (add=true) or RS- interest line from the
// peer. Interest entries are idempotent per (pattern, queue): the peer
// refcounts on its side and only sends edge transitions.
func (s *Server) handleRSub(r *route, fields [][]byte, add bool) {
	var pattern, queue string
	switch len(fields) {
	case 2:
		pattern = string(fields[1])
	case 3:
		pattern, queue = string(fields[1]), string(fields[2])
	default:
		r.ln.sendErr("RS requires <pattern> [queue]")
		return
	}
	if err := ValidatePattern(pattern); err != nil {
		r.ln.sendErr(err.Error())
		return
	}
	k := interestKey{pattern: pattern, queue: queue}
	st := &s.stats
	if add {
		if _, ok := r.subs[k]; ok {
			return
		}
		sub := &serverSub{rt: r, pattern: pattern, queue: queue}
		r.subs[k] = sub
		s.eachPatternShard(pattern, func(sh *shard) {
			sh.insert(sub)
		})
		st.write(func() { st.remoteSubs.Add(1) })
		return
	}
	sub, ok := r.subs[k]
	if !ok {
		return
	}
	delete(r.subs, k)
	s.eachPatternShard(pattern, func(sh *shard) {
		sh.remove(sub)
	})
	st.write(func() { st.remoteSubs.Add(^uint64(0)) })
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

// handleRMsg parses one forwarded message into the route's ingest batch.
// A returned error means the stream is unframeable and tears the route
// down.
func (s *Server) handleRMsg(r *route, fields [][]byte) error {
	l, in := r.ln, &r.ln.in
	if len(fields) < 4 {
		s.flushIngest(in, r) // error replies keep line order
		l.sendErr("RMSG requires <subject> <origin> <nbytes>")
		return errors.New("broker: malformed RMSG")
	}
	n, ok := parseSize(fields[3])
	if !ok {
		s.flushIngest(in, r)
		l.sendErr("bad payload size")
		return errors.New("broker: bad payload size")
	}
	blocking := l.r.Buffered() < n+2
	if blocking {
		// The payload read will block on the socket: route what we have
		// first so batching never delays delivery.
		s.flushIngest(in, r)
	}
	// The header fields borrow the reader's buffer, which the payload
	// read refills — take what routing needs of them first.
	selfOrigin := string(fields[2]) == s.id
	qoff := len(in.qnames)
	for i, q := range fields[4:] {
		if i > 0 {
			in.qnames = append(in.qnames, ' ')
		}
		in.qnames = append(in.qnames, q...)
	}
	pb, err := l.readPayload(fields[1], n)
	if err != nil {
		return err
	}
	if blocking {
		r.lastRecv.Store(time.Now().UnixNano())
	}
	if !validSubjectBytes(pb.subj) {
		pb.release(1)
		in.qnames = in.qnames[:qoff]
		s.flushIngest(in, r)
		l.sendErr("invalid subject")
		return nil
	}
	in.pending = append(in.pending, pendingPub{pb: pb, queues: in.qnames[qoff:], selfOrigin: selfOrigin})
	in.pendingBytes += n
	if in.full() {
		s.flushIngest(in, r)
	}
	return nil
}
