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

// Stamp numbers the next sample and returns its data packet, or ErrClosed
// after Close.
func (c *SenderCore) Stamp(payload []byte) (*wire.Packet, error) {
	if c.closed {
		return nil, ErrClosed
	}
	c.seq++
	return c.Cfg.Packet(wire.TypeData, c.seq, c.arena.Copy(payload)), nil
}

// Publish implements Sender: stamp the sample and multicast it.
func (c *SenderCore) Publish(payload []byte) error {
	pkt, err := c.Stamp(payload)
	if err != nil {
		return err
	}
	return c.Cfg.Endpoint.Multicast(pkt)
}

// StartHeartbeat multicasts the high seq every period until Close, so
// receivers detect gaps before the stream ends.
func (c *SenderCore) StartHeartbeat(every time.Duration) {
	c.hbEvery = every
	c.hbTmr = c.Cfg.Env.After(every, c.heartbeat)
}

func (c *SenderCore) heartbeat() {
	if c.closed {
		return
	}
	c.Cfg.multicastHeartbeat(c.seq, 0)
	c.hbTmr = c.Cfg.Env.After(c.hbEvery, c.heartbeat)
}

// multicastHeartbeat sends high in a heartbeat with flags on c's endpoint.
func (c *Config) multicastHeartbeat(high uint64, flags uint8) {
	body, err := (&wire.HeartbeatBody{HighSeq: high}).Encode(nil)
	if err != nil {
		return
	}
	pkt := c.Packet(wire.TypeHeartbeat, high, body)
	pkt.Flags = flags
	// Heartbeat delivery failures surface as slower tail recovery, not
	// correctness loss; nothing useful to do with an error here.
	_ = c.Endpoint.Multicast(pkt)
}

// Close implements Sender: publishing stops, and the high seq goes out once
// more in a heartbeat flagged end of stream, on which receivers close their
// tail. Protocols with recovery duties keep serving them after Close. It is
// idempotent: BeforeEOS and the EOS run on the first call only.
func (c *SenderCore) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.hbTmr.Stop()
	if c.BeforeEOS != nil {
		c.BeforeEOS()
	}
	c.Cfg.multicastHeartbeat(c.seq, wire.FlagEOS)
	return nil
}

// History is a sender's retransmission ring: the latest samples, each in
// slot seq % n until a later seq evicts it, n being the length NewHistory
// was given. Slots are allocated a page at a time on the page's first
// write, so building a sender (as every rebind does) costs no ring.
type History struct {
	n      uint64
	pages  [][]histEntry
	src    wire.NodeID
	stream wire.StreamID
	epoch  uint16
}

const histPage = 1024 // slots per page

type histEntry struct {
	seq     uint64
	sentAt  time.Time
	payload []byte
}

// NewHistory returns a ring of n samples.
func NewHistory(n int) History {
	return History{n: uint64(n), pages: make([][]histEntry, (n+histPage-1)/histPage)}
}

// Put records a data packet.
func (h *History) Put(pkt *wire.Packet) {
	h.src, h.stream, h.epoch = pkt.Src, pkt.Stream, pkt.Epoch
	i := pkt.Seq % h.n
	page := &h.pages[i/histPage]
	if *page == nil {
		*page = make([]histEntry, min(histPage, h.n-i/histPage*histPage))
	}
	(*page)[i%histPage] = histEntry{seq: pkt.Seq, sentAt: pkt.SentAt, payload: pkt.Payload}
}

// held returns seq's entry, or nil if seq is 0 or not held.
func (h *History) held(seq uint64) *histEntry {
	i := seq % h.n
	if page := h.pages[i/histPage]; seq != 0 && page != nil && page[i%histPage].seq == seq {
		return &page[i%histPage]
	}
	return nil
}

// Has reports whether seq is held: recorded and not yet evicted. Seq 0 is
// never held.
func (h *History) Has(seq uint64) bool { return h.held(seq) != nil }

// Retrans returns the retransmission of seq, carrying its original send
// time so latency stays end to end, or nil if seq is not held.
func (h *History) Retrans(seq uint64) *wire.Packet {
	e := h.held(seq)
	if e == nil {
		return nil
	}
	return &wire.Packet{
		Type:    wire.TypeRetrans,
		Src:     h.src,
		Stream:  h.stream,
		Seq:     seq,
		Epoch:   h.epoch,
		SentAt:  e.sentAt,
		Payload: e.payload,
	}
}
