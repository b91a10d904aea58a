package transport

import (
	"time"

	"adamant/internal/env"
	"adamant/internal/wire"
)

// SenderCore is the writer-side state every protocol shares: the config,
// the sequence counter, the payload arena, the closed flag and an optional
// periodic heartbeat. Protocols embed it and add their own recovery state;
// one that only multicasts (bemcast, ricochet) is the core alone.
//
// The core makes the same env calls, in the same order, as the per-protocol
// code it replaced, so seeded runs replay byte for byte.
type SenderCore struct {
	Cfg Config
	// BeforeEOS, when set, is a protocol's last step: Close runs it once,
	// after the heartbeat stops and before the end-of-stream heartbeat.
	BeforeEOS func()

	seq     uint64
	arena   Arena
	closed  bool
	hbEvery time.Duration
	hbTmr   env.Timer
}

// NewSenderCore validates cfg and starts the sequence space at BaseSeq.
func NewSenderCore(cfg Config) (SenderCore, error) {
	if err := cfg.ValidateSender(); err != nil {
		return SenderCore{}, err
	}
	return SenderCore{Cfg: cfg, seq: cfg.BaseSeq}, nil
}

// Seq implements Sender.
func (c *SenderCore) Seq() uint64 { return c.seq }

// Closed reports whether Close has run.
func (c *SenderCore) Closed() bool { return c.closed }

// Next numbers the next sample and returns its payload copied into the
// arena, for a sender that sends it later (ackcast's flow-control backlog).
func (c *SenderCore) Next(payload []byte) []byte {
	c.seq++
	return c.arena.Copy(payload)
}

// Stamp numbers the next sample and returns its data packet, or ErrClosed
// after Close.
func (c *SenderCore) Stamp(payload []byte) (*wire.Packet, error) {
	if c.closed {
		return nil, ErrClosed
	}
	cp := c.Next(payload)
	return c.Cfg.Packet(wire.TypeData, c.seq, cp), nil
}

// Publish implements Sender: stamp the sample and multicast it.
func (c *SenderCore) Publish(payload []byte) error {
	pkt, err := c.Stamp(payload)
	if err != nil {
		return err
	}
	return c.Cfg.Endpoint.Multicast(pkt)
}

// StartHeartbeat multicasts the high seq every period until Close, which
// then sends it once more flagged end of stream, so receivers detect tail
// gaps.
func (c *SenderCore) StartHeartbeat(every time.Duration) {
	c.hbEvery = every
	c.hbTmr = c.Cfg.Env.After(every, c.heartbeat)
}

func (c *SenderCore) heartbeat() {
	if c.closed {
		return
	}
	c.sendHeartbeat(0)
	c.hbTmr = c.Cfg.Env.After(c.hbEvery, c.heartbeat)
}

func (c *SenderCore) sendHeartbeat(flags uint8) {
	body, err := (&wire.HeartbeatBody{HighSeq: c.seq}).Encode(nil)
	if err != nil {
		return
	}
	pkt := c.Cfg.Packet(wire.TypeHeartbeat, c.seq, body)
	pkt.Flags = flags
	// Heartbeat delivery failures surface as slower tail recovery, not
	// correctness loss; nothing useful to do with an error here.
	_ = c.Cfg.Endpoint.Multicast(pkt)
}

// Close implements Sender: publishing stops. Protocols with recovery
// duties keep serving them after Close. It is idempotent: BeforeEOS and
// the EOS run on the first call only.
func (c *SenderCore) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.hbTmr != nil {
		c.hbTmr.Stop()
	}
	if c.BeforeEOS != nil {
		c.BeforeEOS()
	}
	if c.hbEvery > 0 {
		c.sendHeartbeat(wire.FlagEOS)
	}
	return nil
}

// History is a sender's retransmission ring: the latest samples, each in
// slot seq % length until a later seq evicts it.
type History struct {
	ring   []histEntry
	src    wire.NodeID
	stream wire.StreamID
}

type histEntry struct {
	seq     uint64
	sentAt  time.Time
	payload []byte
}

// NewHistory returns a ring of n samples.
func NewHistory(n int) History { return History{ring: make([]histEntry, n)} }

// Len returns the ring's length in samples.
func (h *History) Len() uint64 { return uint64(len(h.ring)) }

// Put records a data packet.
func (h *History) Put(pkt *wire.Packet) {
	h.src, h.stream = pkt.Src, pkt.Stream
	h.ring[pkt.Seq%h.Len()] = histEntry{seq: pkt.Seq, sentAt: pkt.SentAt, payload: pkt.Payload}
}

// Has reports whether seq is held: recorded and not yet evicted. Seq 0 is
// never held.
func (h *History) Has(seq uint64) bool { return seq != 0 && h.ring[seq%h.Len()].seq == seq }

// Retrans returns the retransmission of seq, carrying its original send
// time so latency stays end to end, or nil if seq is not held.
func (h *History) Retrans(seq uint64) *wire.Packet {
	if !h.Has(seq) {
		return nil
	}
	e := h.ring[seq%h.Len()]
	return &wire.Packet{
		Type:    wire.TypeRetrans,
		Src:     h.src,
		Stream:  h.stream,
		Seq:     seq,
		SentAt:  e.sentAt,
		Payload: e.payload,
	}
}
