package broker

import (
	"net"
	"sync/atomic"
)

// link is the connection substrate every broker connection role is built
// on: the socket, the ingest batch of the protocol core that consumes what
// arrives on it, and the bounded outbound queue drained by a vectored
// writer goroutine (outbound.go). A client connection and a route are both
// "a link plus a command set" under one protocol core (conn.go): the
// framing, the arena-backed payloads, the queue/slow-consumer machinery,
// and the writer are identical, so the wire guarantees — per-connection
// FIFO in enqueue order, frames byte-identical to the protocol — hold for
// both roles by construction.
//
// A serverClient can even *become* a route mid-stream (the ROUTE
// handshake upgrades an accepted connection, see conn.go): the link is
// the part that survives the upgrade unchanged — same stream position,
// same outbound queue, same writer goroutine.
type link struct {
	conn net.Conn
	in   ingest // the core's only
	out  outQueue

	// evicted is set, before the route can be reached through the route
	// table, on a link that carries a route (newRoute). sendLine reads it:
	// a route's control lines go under the disconnect policy, and each one
	// that tears the route down is counted there.
	evicted *atomic.Uint64
}

// init wires the link to conn with the server's queue bounds and
// admission gauge. The driver starts the writer goroutine (writeLoop,
// which owns the final conn.Close) so tests can drive a link synchronously.
func (l *link) init(conn net.Conn, queueFrames int, queueBytes int64, adm *admission) {
	l.conn = conn
	l.out.init(queueFrames, queueBytes, adm)
}

// enqueueRun offers a run of frames to the link's queue and consumes it:
// accepted frames now belong to the queue, the others are freed, and run
// holds nothing afterwards. The arena references are taken before
// the enqueue, one Add per stretch of frames on the same arena buffer (the
// writer may drain and release a frame the instant the queue lock drops),
// and given back for the frames the queue rejects. An overflow under
// SlowConsumerDisconnect tears the connection down.
func (l *link) enqueueRun(run []outFrame, policy SlowConsumerPolicy) runResult {
	for i := 0; i < len(run); {
		pb := run[i].pb
		j := i + 1
		for j < len(run) && run[j].pb == pb {
			j++
		}
		if pb != nil {
			pb.retain(j - i)
		}
		i = j
	}
	res, rejected := l.out.enqueueRun(run, policy)
	freeFrames(run[:rejected])
	clear(run[rejected:])
	if res.disconnects > 0 {
		l.out.discard()
		l.conn.Close()
	}
	return res
}

// sendLine enqueues a CRLF-terminated control line. A client's full queue
// drops it. A route's full queue ends the route, as it does for an RMSG: an
// RS+ or RS- dropped silently would leave the peer's interest table wrong
// for as long as the route lives, while a disconnect is detected, repaired
// by the redial/gossip machinery, and counted (ServerStats.ControlEvictions).
func (l *link) sendLine(line string) {
	policy := SlowConsumerDrop
	if l.evicted != nil {
		policy = SlowConsumerDisconnect
	}
	f := [1]outFrame{{hdr: encodeLine(line)}}
	if l.enqueueRun(f[:], policy).disconnects > 0 {
		l.evicted.Add(1)
	}
}

func (l *link) sendErr(msg string) { l.sendLine("-ERR " + msg) }

// maxControlLine bounds a control line, terminator included, on both
// sides of the protocol.
const maxControlLine = 64 * 1024

// splitFields splits on runs of spaces and tabs without allocating.
func splitFields(line []byte, out [][]byte) [][]byte {
	i := 0
	for i < len(line) {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		if i >= len(line) {
			break
		}
		j := i
		for j < len(line) && line[j] != ' ' && line[j] != '\t' {
			j++
		}
		out = append(out, line[i:j])
		i = j
	}
	return out
}

// asciiFold reports whether b equals upper (an upper-case ASCII literal)
// ignoring case.
func asciiFold(b []byte, upper string) bool {
	if len(b) != len(upper) {
		return false
	}
	for i := 0; i < len(b); i++ {
		ch := b[i]
		if 'a' <= ch && ch <= 'z' {
			ch -= 'a' - 'A'
		}
		if ch != upper[i] {
			return false
		}
	}
	return true
}

// parseSize parses a payload size in [0, MaxPayload].
func parseSize(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 8 {
		return 0, false
	}
	n := 0
	for _, ch := range b {
		if ch < '0' || ch > '9' {
			return 0, false
		}
		n = n*10 + int(ch-'0')
	}
	if n > MaxPayload {
		return 0, false
	}
	return n, true
}
