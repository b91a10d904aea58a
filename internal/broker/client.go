package broker

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"
)

// Msg is one message delivered to a subscription handler.
type Msg struct {
	Subject string
	// Data is the payload. A handler may keep it: the client never writes
	// to those bytes again. It is a window into a receive slab shared with
	// the messages that arrived around it, so a kept Data pins the whole
	// slab (slabSize bytes); copy it to hold it long. Its capacity equals
	// its length, so appending to it reallocates.
	Data []byte
}

// Handler receives messages for a subscription. Handlers run on the
// client's reader goroutine; slow handlers delay subsequent messages.
type Handler func(Msg)

const (
	// outHighWater is how many outbound bytes may wait for the flusher
	// before Publish and the control commands block, so that a stalled
	// broker pushes back on the caller.
	outHighWater = 1 << 20
	// slabSize is the size of a receive slab: large enough that its
	// allocation, and the part of a frame stranded at its end, are spread
	// over many messages.
	slabSize = 256 << 10
	// closeDrainTimeout bounds the writes that deliver already accepted
	// frames once the client is closing.
	closeDrainTimeout = 2 * time.Second
)

// Client is a broker client. All methods are safe for concurrent use.
type Client struct {
	conn net.Conn

	// Send side. Callers append encoded frames to out; the flusher
	// goroutine swaps it for the buffer it wrote last and hands it to one
	// conn.Write, so frames appended during a write leave together.
	wmu      sync.Mutex
	wake     sync.Cond // flusher waits here: out non-empty or wclosed
	room     sync.Cond // senders wait here: out at most outHighWater
	out      []byte
	wclosed  bool          // no frame is accepted any more
	flushed  chan struct{} // closed once the flusher has closed conn
	closeErr error         // conn.Close's result; read after flushed

	mu      sync.Mutex
	subs    map[string]*Subscription
	nextSID uint64
	pongs   []chan struct{}
	closed  bool  // Close was called or the connection failed
	cause   error // why the connection failed; nil after a plain Close
	done    chan struct{}
}

// Dial connects to a broker at addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("broker: dial %s: %w", addr, err)
	}
	return NewClient(conn)
}

// NewClient wraps an established connection (useful with net.Pipe in
// tests).
func NewClient(conn net.Conn) (*Client, error) {
	c := &Client{
		conn:    conn,
		subs:    make(map[string]*Subscription),
		flushed: make(chan struct{}),
		done:    make(chan struct{}),
	}
	c.wake.L = &c.wmu
	c.room.L = &c.wmu
	go c.flushLoop()
	go c.readLoop()
	_ = c.sendLine("CONNECT", "client") // a send fails only once the client has closed
	return c, nil
}

// Subscription is a live subscription.
type Subscription struct {
	client  *Client
	sid     string
	Pattern string
	Queue   string
	handler Handler
}

// Subscribe registers handler for every message matching pattern.
func (c *Client) Subscribe(pattern string, handler Handler) (*Subscription, error) {
	return c.subscribe(pattern, "", handler)
}

// QueueSubscribe registers handler as a member of the named queue group:
// each message is delivered to exactly one member of the group.
func (c *Client) QueueSubscribe(pattern, queue string, handler Handler) (*Subscription, error) {
	if queue == "" {
		return nil, errors.New("broker: empty queue group")
	}
	return c.subscribe(pattern, queue, handler)
}

func (c *Client) subscribe(pattern, queue string, handler Handler) (*Subscription, error) {
	if handler == nil {
		return nil, errors.New("broker: nil handler")
	}
	if err := ValidatePattern(pattern); err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, c.err()
	}
	c.nextSID++
	sid := strconv.FormatUint(c.nextSID, 10)
	sub := &Subscription{client: c, sid: sid, Pattern: pattern, Queue: queue, handler: handler}
	c.subs[sid] = sub
	c.mu.Unlock()

	var err error
	if queue == "" {
		err = c.sendLine("SUB", pattern, sid)
	} else {
		err = c.sendLine("SUB", pattern, queue, sid)
	}
	if err != nil {
		c.mu.Lock()
		delete(c.subs, sid)
		c.mu.Unlock()
		return nil, err
	}
	return sub, nil
}

// Unsubscribe removes the subscription.
func (s *Subscription) Unsubscribe() error {
	c := s.client
	c.mu.Lock()
	delete(c.subs, s.sid)
	c.mu.Unlock()
	return c.sendLine("UNSUB", s.sid)
}

// Publish sends data on subject. It returns once the frame is buffered
// (data may be reused at once); a flusher goroutine writes the buffer,
// so publishes made in a burst share socket writes. Commands reach the
// broker in the order their calls returned. Publish blocks while more than
// outHighWater bytes are waiting for the socket. A write that fails ends
// the connection, and this and every later call report that error.
func (c *Client) Publish(subject string, data []byte) error {
	if err := ValidateSubject(subject); err != nil {
		return err
	}
	if len(data) > MaxPayload {
		return fmt.Errorf("broker: payload %d exceeds max %d", len(data), MaxPayload)
	}
	if err := c.lockOut(); err != nil {
		return err
	}
	b := append(c.out, "PUB "...)
	b = append(b, subject...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(len(data)), 10)
	b = append(b, '\r', '\n')
	b = append(b, data...)
	b = append(b, '\r', '\n')
	c.unlockOut(b)
	return nil
}

// Flush round-trips a PING/PONG, guaranteeing the broker has processed
// everything sent before the call: the PING queues behind those frames in
// the same buffer.
func (c *Client) Flush(timeout time.Duration) error {
	ch := make(chan struct{}, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return c.err()
	}
	c.pongs = append(c.pongs, ch)
	c.mu.Unlock()
	if err := c.sendLine("PING"); err != nil {
		return err
	}
	// Reuse pooled timers instead of time.After: a fleet doing a flush
	// barrier per publish batch would otherwise allocate a timer (and
	// leave it live until it fires) on every call.
	t := flushTimers.Get().(*time.Timer)
	t.Reset(timeout)
	defer func() {
		if !t.Stop() {
			select {
			case <-t.C:
			default:
			}
		}
		flushTimers.Put(t)
	}()
	select {
	case <-ch:
		return nil
	case <-t.C:
		return errors.New("broker: flush timeout")
	case <-c.done:
		return c.err()
	}
}

// flushTimers pools stopped, drained timers for Flush. A pool (rather
// than one timer per client) keeps concurrent Flush calls on the same
// client correct.
var flushTimers = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	if !t.Stop() {
		<-t.C
	}
	return t
}}

// ErrClientClosed is returned by operations on a closed client.
var ErrClientClosed = errors.New("broker: client closed")

// Close writes the frames Publish has already accepted (after any write in
// flight, and for at most closeDrainTimeout against a broker that has
// stopped reading), then tears the connection down. It does not wait for
// the broker to process them; Flush does.
func (c *Client) Close() error {
	c.fail(nil)
	c.stopWriter()
	<-c.flushed
	<-c.done
	return c.closeErr
}

// fail marks the client closed, recording err as the reason unless Close or
// an earlier failure got there first.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		c.cause = err
	}
	c.mu.Unlock()
}

// err is what operations on a closed client return.
func (c *Client) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cause != nil {
		return c.cause
	}
	return ErrClientClosed
}

// lockOut takes wmu for appending one frame to out, first waiting for the
// buffer to come back under the high-water mark. On error wmu is not held.
func (c *Client) lockOut() error {
	c.wmu.Lock()
	for len(c.out) > outHighWater && !c.wclosed {
		c.room.Wait()
	}
	if c.wclosed {
		c.wmu.Unlock()
		return c.err()
	}
	return nil
}

// unlockOut publishes b, c.out with one frame appended, to the flusher,
// which needs a kick only if it may be asleep on an empty buffer.
func (c *Client) unlockOut(b []byte) {
	if len(c.out) == 0 {
		c.wake.Signal()
	}
	c.out = b
	c.wmu.Unlock()
}

// sendLine buffers a space-joined, CRLF-terminated control line.
func (c *Client) sendLine(words ...string) error {
	if err := c.lockOut(); err != nil {
		return err
	}
	b := c.out
	for i, w := range words {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, w...)
	}
	b = append(b, '\r', '\n')
	c.unlockOut(b)
	return nil
}

// stopWriter stops the send side taking frames and makes the flusher
// write what it holds, under a deadline, and close the connection.
func (c *Client) stopWriter() {
	c.wmu.Lock()
	if !c.wclosed {
		c.wclosed = true
		_ = c.conn.SetWriteDeadline(time.Now().Add(closeDrainTimeout)) // a conn without deadlines drains unbounded
		c.wake.Signal()
		c.room.Broadcast()
	}
	c.wmu.Unlock()
}

// flushLoop is the client's only writer. Each turn takes everything
// buffered since the last one, so the number of socket writes follows the
// number of bursts, not the number of publishes. It owns the final
// conn.Close, which therefore comes after every accepted frame.
func (c *Client) flushLoop() {
	var buf []byte // written last turn
	for {
		c.wmu.Lock()
		for len(c.out) == 0 && !c.wclosed {
			c.wake.Wait()
		}
		if len(c.out) == 0 {
			c.wmu.Unlock()
			break
		}
		buf, c.out = c.out, buf[:0]
		c.room.Broadcast()
		c.wmu.Unlock()
		if _, err := c.conn.Write(buf); err != nil {
			c.fail(fmt.Errorf("broker: write: %w", err))
			c.stopWriter()
			break
		}
	}
	c.closeErr = c.conn.Close()
	close(c.flushed)
}

// readLoop dispatches inbound frames until the connection ends, then
// takes the send side down with it.
func (c *Client) readLoop() {
	c.fail(c.dispatch())
	c.stopWriter()
	close(c.done)
}

var (
	errBadMsgHeader = errors.New("broker: malformed MSG header")
	errLineTooLong  = errors.New("broker: control line too long")
	errBadPayload   = errors.New("broker: payload not terminated by CRLF")
)

func (c *Client) dispatch() error {
	r := slabReader{conn: c.conn}
	var fields [8][]byte
	for {
		line, err := r.line()
		if err != nil {
			return err
		}
		f := splitFields(line, fields[:0])
		if len(f) == 0 {
			continue
		}
		switch string(f[0]) {
		case "PONG":
			c.mu.Lock()
			if len(c.pongs) > 0 {
				ch := c.pongs[0]
				c.pongs = c.pongs[1:]
				c.mu.Unlock()
				ch <- struct{}{}
			} else {
				c.mu.Unlock()
			}
		case "MSG":
			// A header that does not frame its payload leaves no way to
			// find the next command: the connection has failed.
			if len(f) != 4 {
				return errBadMsgHeader
			}
			n, ok := parseSize(f[3])
			if !ok {
				return errBadMsgHeader
			}
			// Bytes already in a slab never move, so f stays valid across
			// the payload read.
			data, err := r.payload(n)
			if err != nil {
				return err
			}
			c.mu.Lock()
			sub := c.subs[string(f[2])]
			c.mu.Unlock()
			if sub != nil {
				sub.handler(Msg{Subject: string(f[1]), Data: data})
			}
		case "-ERR":
			// The broker keeps the connection open after a command error.
		}
	}
}

// slabReader frames the inbound stream in place. It reads from the
// connection straight into a slab and hands out lines and payloads as
// sub-slices of it. Bytes once read are never moved or overwritten: when
// the frame being parsed cannot complete in the current slab, its received
// part is copied to a fresh slab and the old one is left to whoever still
// holds a payload in it.
type slabReader struct {
	conn io.Reader
	buf  []byte
	r, w int // buf[r:w] is received and not yet parsed
}

// fill reads more bytes after buf[:w], first moving to a fresh slab if
// buf[r:r+need] would not fit in this one.
func (s *slabReader) fill(need int) error {
	if s.r+need > len(s.buf) {
		slab := make([]byte, max(need, slabSize))
		s.w = copy(slab, s.buf[s.r:s.w])
		s.r = 0
		s.buf = slab
	}
	for i := 0; i < 100; i++ {
		n, err := s.conn.Read(s.buf[s.w:])
		s.w += n
		if n > 0 {
			return nil
		}
		if err != nil {
			return fmt.Errorf("broker: read: %w", err)
		}
	}
	return fmt.Errorf("broker: read: %w", io.ErrNoProgress)
}

// line returns the next CRLF- or LF-terminated line without its
// terminator. A line longer than maxControlLine, terminator included, is
// errLineTooLong: the bound the server's reader has.
func (s *slabReader) line() ([]byte, error) {
	scanned := 0
	for {
		avail := min(s.w-s.r, maxControlLine)
		if i := bytes.IndexByte(s.buf[s.r+scanned:s.r+avail], '\n'); i >= 0 {
			line := s.buf[s.r : s.r+scanned+i]
			s.r += scanned + i + 1
			if len(line) > 0 && line[len(line)-1] == '\r' {
				line = line[:len(line)-1]
			}
			return line, nil
		}
		if avail == maxControlLine {
			return nil, errLineTooLong
		}
		scanned = avail
		if err := s.fill(scanned + 1); err != nil {
			return nil, err
		}
	}
}

// payload returns the next n bytes, which must be followed by CRLF or LF,
// as a slice whose capacity ends with it.
func (s *slabReader) payload(n int) ([]byte, error) {
	end := n // where the LF belongs: one later after a CR
	for {
		for s.w-s.r <= end {
			if err := s.fill(n + 2); err != nil {
				return nil, err
			}
		}
		switch ch := s.buf[s.r+end]; {
		case ch == '\r' && end == n:
			end++
		case ch == '\n':
			data := s.buf[s.r : s.r+n : s.r+n]
			s.r += end + 1
			return data, nil
		default:
			return nil, errBadPayload
		}
	}
}
