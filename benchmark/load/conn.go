package load

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync/atomic"
	"time"
)

// probe is one outstanding PING. PONGs come back in order, so a FIFO of
// probes matches each to its request.
type probe struct {
	kind int
	sent int64
	done chan struct{} // closed on PONG when non-nil (barriers)
}

// Conn is one raw-protocol connection to a broker. One goroutine at a time
// may write to it; its own goroutine reads, verifies every MSG against the
// Reader, and answers probes.
type Conn struct {
	nc     net.Conn
	W      *bufio.Writer
	R      *Reader
	probes chan probe // more outstanding PINGs than this and the writer blocks
	closed atomic.Bool
	done   chan struct{}
	err    error // read-loop exit reason; valid after done
}

// Dial connects to addr and starts the read loop.
func Dial(addr string, r *Reader) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	c := &Conn{
		nc:     nc,
		W:      bufio.NewWriterSize(nc, 256<<10),
		R:      r,
		probes: make(chan probe, 4096),
		done:   make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

// Close closes the socket and waits for the read loop to end.
func (c *Conn) Close() {
	c.closed.Store(true)
	c.nc.Close()
	<-c.done
}

// Err reports why the read loop ended, if it ended before Close.
func (c *Conn) Err() error {
	select {
	case <-c.done:
		if !c.closed.Load() {
			return c.err
		}
	default:
	}
	return nil
}

// Ping queues a PING of the given kind behind whatever is buffered; the
// round trip lands in the current phase's probe histogram.
func (c *Conn) Ping(kind int) {
	c.probes <- probe{kind: kind, sent: Now()}
	c.W.WriteString("PING\r\n")
}

// Barrier flushes and waits until the broker has answered a PING, so that
// everything written before it has been processed.
func (c *Conn) Barrier(timeout time.Duration) error {
	done := make(chan struct{})
	c.probes <- probe{kind: -1, sent: Now(), done: done}
	c.W.WriteString("PING\r\n")
	if err := c.W.Flush(); err != nil {
		return err
	}
	select {
	case <-done:
		return nil
	case <-c.done:
		return fmt.Errorf("load: connection closed before PONG: %w", c.err)
	case <-time.After(timeout):
		return errors.New("load: no PONG before the barrier timeout")
	}
}

var errFrame = errors.New("load: malformed frame from broker")

// readLoop stamps each socket read once and attributes that time to every
// frame the read completed: "read by the subscriber" means returned by the
// kernel, and a clock call per delivery would cost more than the parse.
func (c *Conn) readLoop() {
	defer close(c.done)
	buf := make([]byte, 1<<20) // > any frame: MaxPayload is refused below
	r, w := 0, 0
	for {
		if r == w {
			r, w = 0, 0
		} else if len(buf)-w < len(buf)/4 {
			w = copy(buf, buf[r:w])
			r = 0
		}
		n, err := c.nc.Read(buf[w:])
		if n == 0 && err != nil {
			c.err = err
			return
		}
		now := Now()
		w += n
		ps := c.R.cur.Load()
		var msgs uint64
		for {
			eol := bytes.IndexByte(buf[r:w], '\n')
			if eol < 0 {
				break
			}
			line := buf[r : r+eol+1]
			if line[0] == 'M' { // MSG <subject> <sid> <n>\r\n<payload>\r\n
				sid, size, ok := parseMsgLine(line)
				if !ok || size > len(buf)/2 {
					c.err = errFrame
					c.R.batchDone(msgs)
					return
				}
				end := r + eol + 1 + size + 2
				if end > w {
					break // payload still in flight
				}
				if c.R.OnMsg(sid, buf[end-2-size:end-2], now, ps) {
					msgs++
				}
				r = end
				continue
			}
			r += eol + 1
			switch line[0] {
			case 'P': // PONG
				select {
				case p := <-c.probes:
					if p.done != nil {
						close(p.done)
					} else if ps != nil {
						ps.Probes[p.kind].Record(now - p.sent)
					}
				default:
					c.R.ProtocolErrs++ // a PONG nobody asked for
				}
			case '-': // -ERR
				c.R.ProtocolErrs++
			}
		}
		c.R.batchDone(msgs)
	}
}

// parseMsgLine reads the sid and payload size off the end of a MSG line.
func parseMsgLine(line []byte) (sid, size int, ok bool) {
	end := len(line) - 2 // before \r\n
	if end < 0 || line[end] != '\r' {
		return 0, 0, false
	}
	sp := bytes.LastIndexByte(line[:end], ' ')
	if sp < 0 {
		return 0, 0, false
	}
	size, ok = atoi(line[sp+1 : end])
	if !ok {
		return 0, 0, false
	}
	sp2 := bytes.LastIndexByte(line[:sp], ' ')
	if sp2 < 0 {
		return 0, 0, false
	}
	sid, ok = atoi(line[sp2+1 : sp])
	return sid, size, ok
}

func atoi(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 9 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// Sub buffers a SUB line: sid is its index in the Verifier, sent as decimal.
func (c *Conn) Sub(pattern, queue string, sid int) {
	c.W.WriteString("SUB ")
	c.W.WriteString(pattern)
	if queue != "" {
		c.W.WriteByte(' ')
		c.W.WriteString(queue)
	}
	c.W.WriteByte(' ')
	c.W.WriteString(strconv.Itoa(sid))
	c.W.WriteString("\r\n")
}

// Unsub buffers an UNSUB line.
func (c *Conn) Unsub(sid int) {
	c.W.WriteString("UNSUB ")
	c.W.WriteString(strconv.Itoa(sid))
	c.W.WriteString("\r\n")
}

// Pub buffers one PUB frame.
func (c *Conn) Pub(subject string, payload []byte) {
	c.W.WriteString("PUB ")
	c.W.WriteString(subject)
	c.W.WriteByte(' ')
	var num [12]byte
	c.W.Write(strconv.AppendInt(num[:0], int64(len(payload)), 10))
	c.W.WriteString("\r\n")
	c.W.Write(payload)
	c.W.WriteString("\r\n")
}
