package broker

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
)

// link is the connection substrate every broker connection role is built
// on: the socket, a framed line reader with the reader goroutine's ingest
// batch, and the bounded outbound queue drained by a vectored writer
// goroutine (outbound.go). A client connection and a route are both "a
// link plus a command set" under one reader loop (conn.go): the framing,
// the arena-backed payload reads, the queue/slow-consumer machinery, and
// the writer are identical, so the wire guarantees — per-connection FIFO in
// enqueue order, frames byte-identical to the protocol — hold for both
// roles by construction.
//
// A serverClient can even *become* a route mid-stream (the ROUTE
// handshake upgrades an accepted connection, see conn.go): the link is
// the part that survives the upgrade unchanged — same reader position,
// same outbound queue, same writer goroutine.
type link struct {
	conn net.Conn
	r    *bufio.Reader
	in   ingest // reader goroutine only
	out  outQueue

	// isRoute is set, before the route can be reached through the route
	// table, on a link that carries a route (newRoute): sendLine reads it.
	isRoute bool
}

// init wires the link to conn with the server's queue bounds and
// admission gauge. The writer goroutine is started separately
// (startWriter) so tests can drive a link synchronously.
func (l *link) init(conn net.Conn, queueFrames int, queueBytes int64, adm *admission) {
	l.conn = conn
	l.r = bufio.NewReaderSize(conn, maxControlLine)
	l.out.init(queueFrames, queueBytes, adm)
}

// startWriter spawns the writer goroutine. The writer owns the final
// conn.Close, so queued replies reach the peer before teardown.
func (l *link) startWriter() { go writeLoop(l.conn, &l.out) }

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
// for as long as the route lives, while a disconnect is detected and
// repaired by the redial/gossip machinery.
func (l *link) sendLine(line string) {
	policy := SlowConsumerDrop
	if l.isRoute {
		policy = SlowConsumerDisconnect
	}
	f := [1]outFrame{{hdr: encodeLine(line)}}
	l.enqueueRun(f[:], policy)
}

func (l *link) sendErr(msg string) { l.sendLine("-ERR " + msg) }

// readPayload reads an n-byte payload plus its CRLF terminator into a
// fresh arena buffer, which also takes a copy of subject (a slice of the
// reader's buffer, which the payload read may refill), and returns it with
// the one publisher reference. On error the reference is dropped and the
// stream is unframeable.
func (l *link) readPayload(subject []byte, n int) (*payloadRef, error) {
	pb := arenaGet(n)
	pb.subj = append(pb.subj, subject...)
	if _, err := io.ReadFull(l.r, pb.data); err != nil {
		pb.release(1)
		return nil, err
	}
	if err := consumeCRLF(l.r); err != nil {
		pb.release(1)
		return nil, err
	}
	return pb, nil
}

// completeLineBuffered reports whether the link's reader already holds a
// full CRLF-terminated line, i.e. whether another command can be parsed
// without blocking. The scan typically ends at the next command's
// terminator a few dozen bytes in.
func (l *link) completeLineBuffered() bool {
	n := l.r.Buffered()
	if n == 0 {
		return false
	}
	buf, err := l.r.Peek(n)
	if err != nil {
		return false
	}
	return bytes.IndexByte(buf, '\n') >= 0
}

// maxControlLine bounds a control line, terminator included, on both
// sides of the protocol. It is the size of the server's reader buffer, so
// a line within the bound is always parsed in place.
const maxControlLine = 64 * 1024

var errLineTooLong = errors.New("broker: control line too long")

// readLine returns the link's next control line. A peer that sends
// maxControlLine bytes without a terminator is told so before the caller
// drops the connection.
func (l *link) readLine() ([]byte, error) {
	line, err := readLineSlice(l.r)
	if err == errLineTooLong {
		l.sendErr("control line too long")
	}
	return line, err
}

// readLineSlice returns the next CRLF- (or LF-) terminated line without
// the terminator. The slice borrows the reader's buffer and is only
// valid until the next read. A line that does not fit the reader's buffer
// is errLineTooLong.
func readLineSlice(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		return nil, errLineTooLong
	}
	if err != nil {
		return nil, err
	}
	line = line[:len(line)-1]
	if len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	return line, nil
}

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

var errBadPayload = errors.New("broker: payload not terminated by CRLF")

func consumeCRLF(r *bufio.Reader) error {
	b, err := r.ReadByte()
	if err != nil {
		return err
	}
	if b == '\r' {
		if b, err = r.ReadByte(); err != nil {
			return err
		}
	}
	if b != '\n' {
		return errBadPayload
	}
	return nil
}
