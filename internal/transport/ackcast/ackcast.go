// Package ackcast implements an ACK-based reliable multicast with sender
// flow control — the positive-acknowledgment counterpart to NAKcast in the
// ANT property matrix (ACK-based reliability + flow control).
//
// The sender multicasts data and keeps every packet until all known
// receivers have cumulatively acknowledged it; a sliding window bounds the
// packets in flight, with excess publishes queued in a backlog (flow
// control). A retransmission timer re-sends, per lagging receiver, the
// packets just above its cumulative ACK. Receivers deliver in order and
// acknowledge every arrival.
//
// ACK-based reliability scales poorly with receiver count (ACK implosion:
// every data packet triggers one ACK per receiver), which is why the paper's
// DRE workloads prefer NAK- or FEC-based protocols; ackcast exists as the
// baseline that demonstrates that trade-off in the ablation benchmarks.
package ackcast

import (
	"fmt"
	"time"

	"adamant/internal/env"
	"adamant/internal/transport"
	"adamant/internal/wire"
)

// Name is the protocol's registry/spec name.
const Name = "ackcast"

// Props advertises ackcast's transport properties.
const Props = transport.PropMulticast | transport.PropACKReliability |
	transport.PropOrdered | transport.PropFlowControl

// DefaultRTO is the retransmission timeout when the spec leaves rto out.
const DefaultRTO = 50 * time.Millisecond

const (
	// window bounds unacknowledged packets in flight (flow control).
	window = 64
	// historySize is the resync ring size in packets: how far behind a
	// re-admitted receiver may be and still catch up from the sender
	// rather than staying expelled (see onAck). It is at least the window,
	// since the ring is also the retransmission buffer.
	historySize       = 1 << 14
	retransBurst      = 32
	ackWork           = 2 * time.Microsecond
	defaultBacklogCap = 1 << 16
	holdbackCap       = 1 << 15
	// maxStallRounds bounds consecutive no-progress RTO rounds before a
	// receiver is declared dead and dropped from the window accounting.
	maxStallRounds = 40
)

// Options are ackcast's tunables.
type Options struct {
	// RTO is the retransmission timeout.
	RTO time.Duration
}

// Spec returns the canonical transport.Spec for the protocol.
func Spec(rto time.Duration) transport.Spec {
	return transport.Spec{Name: Name, Params: transport.Params{"rto": rto.String()}}
}

// ParseOptions extracts Options from spec params.
func ParseOptions(p transport.Params) (Options, error) {
	var o Options
	if err := p.Read(transport.DurationParam("rto", &o.RTO, DefaultRTO)); err != nil {
		return o, err
	}
	if o.RTO <= 0 {
		return o, fmt.Errorf("ackcast: rto must be positive, got %v", o.RTO)
	}
	return o, nil
}

// Factory returns the registry factory for ackcast.
func Factory() *transport.Factory {
	return transport.NewFactory(Name, ParseOptions, func(Options) transport.Properties { return Props },
		func(Options) uint64 { return holdbackCap }, NewSender, NewReceiver)
}

// Sender is the writer-side ackcast instance. Its core's seq is the
// highest seq assigned; sent trails it by the backlog. Close (the core's)
// stops publishing immediately; retransmission service continues until
// every receiver has acknowledged the in-flight window (or the stall bound
// gives up on it), so closing the writer does not strand recoveries.
type Sender struct {
	transport.SenderCore
	opts Options

	sent        uint64            // highest seq actually sent
	hist        transport.History // retransmission and resync ring
	backlog     [][]byte
	cums        map[wire.NodeID]uint64 // per-receiver cumulative ACK
	ids         []wire.NodeID          // cums keys in admission order: retransmits must not follow randomized map order, or replays diverge
	rto         env.Timer
	lastMin     uint64
	stallRounds int
}

// NewSender builds an ackcast sender. cfg.Receivers must enumerate the
// receiver set so the sender knows whose ACKs gate the window.
func NewSender(cfg transport.Config, opts Options) (*Sender, error) {
	core, err := transport.NewSenderCore(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Receivers == nil {
		return nil, fmt.Errorf("ackcast: sender config missing Receivers")
	}
	s := &Sender{
		SenderCore: core,
		opts:       opts,
		sent:       cfg.BaseSeq,
		lastMin:    cfg.BaseSeq,
		hist:       transport.NewHistory(historySize),
		cums:       make(map[wire.NodeID]uint64),
	}
	for _, id := range cfg.Receivers() {
		if id != cfg.Endpoint.Local() {
			// Receivers start acknowledged up to the base, or the window
			// arithmetic would count the previous epochs' sequence space as
			// in flight and wedge the flow control.
			s.cums[id] = cfg.BaseSeq
			s.ids = append(s.ids, id)
		}
	}
	cfg.Endpoint.SetHandler(s.onAck)
	return s, nil
}

// Publish implements transport.Sender. When the flow-control window is
// full the sample is queued and sent as ACKs open the window.
func (s *Sender) Publish(payload []byte) error {
	if s.Closed() {
		return transport.ErrClosed
	}
	if len(s.backlog) >= defaultBacklogCap {
		return fmt.Errorf("ackcast: backlog full (%d samples)", len(s.backlog))
	}
	s.backlog = append(s.backlog, s.Next(payload))
	s.pump()
	return nil
}

// InFlight returns the number of sent-but-not-fully-acked packets.
func (s *Sender) InFlight() int { return int(s.sent - s.minCum()) }

// Backlog returns the number of samples queued behind the window.
func (s *Sender) Backlog() int { return len(s.backlog) }

func (s *Sender) minCum() uint64 {
	first := true
	var m uint64
	for _, c := range s.cums {
		if first || c < m {
			m, first = c, false
		}
	}
	if first {
		return s.sent // no receivers: everything is trivially acked
	}
	return m
}

// pump sends backlog samples while the window has room.
func (s *Sender) pump() {
	for len(s.backlog) > 0 && int(s.sent-s.minCum()) < window {
		payload := s.backlog[0]
		s.backlog = s.backlog[1:]
		s.sent++
		pkt := s.Cfg.Packet(wire.TypeData, s.sent, payload)
		s.hist.Put(pkt)
		if err := s.Cfg.Endpoint.Multicast(pkt); err != nil {
			return
		}
	}
	s.armRTO()
}

// armRTO arms the retransmission timer if there is unacknowledged data and
// no timer is already pending. It deliberately does NOT reset a pending
// timer: re-arming on every publish would starve retransmission whenever
// the publish interval is shorter than the RTO.
func (s *Sender) armRTO() {
	if s.rto != nil {
		return
	}
	if s.sent > s.minCum() {
		s.rto = s.Cfg.Env.After(s.opts.RTO, s.fireRTO)
	}
}

func (s *Sender) fireRTO() {
	s.rto = nil
	// Give up on receivers that make no progress across many RTO rounds
	// (crashed or partitioned); otherwise the timer would spin forever.
	if min := s.minCum(); min > s.lastMin {
		s.lastMin = min
		s.stallRounds = 0
	} else {
		s.stallRounds++
		if s.stallRounds > maxStallRounds {
			kept := s.ids[:0]
			for _, id := range s.ids {
				if s.cums[id] < s.sent {
					delete(s.cums, id)
				} else {
					kept = append(kept, id)
				}
			}
			s.ids = kept
			s.stallRounds = 0
			s.pump()
			return
		}
	}
	for _, id := range s.ids {
		cum := s.cums[id]
		n := 0
		for seq := cum + 1; seq <= s.sent && n < retransBurst; seq++ {
			// Every known receiver is at most the ring's length behind sent
			// (pump stops at the window, re-admission at the ring's
			// length), so the ring holds all it can be owed.
			retrans := s.hist.Retrans(seq)
			if retrans == nil {
				continue
			}
			if err := s.Cfg.Endpoint.Unicast(id, retrans); err != nil {
				break
			}
			n++
		}
	}
	s.armRTO()
}

// onAck keeps working after Close so the final window drains.
func (s *Sender) onAck(src wire.NodeID, pkt *wire.Packet) {
	if pkt.Type != wire.TypeAck || pkt.Stream != s.Cfg.Stream {
		return
	}
	body, err := wire.DecodeAck(pkt.Payload)
	if err != nil {
		return
	}
	prev, known := s.cums[src]
	if !known {
		// Unknown source: a late-learned receiver (dynamic membership) or
		// one previously declared dead whose partition healed. Re-admit it
		// only if the resync ring still holds everything it is missing —
		// re-admitting an unservable receiver would wedge the window: its
		// cum could never advance, so the stall detector would just expel
		// it again.
		if body.Cumulative > s.sent || body.Cumulative < s.Cfg.BaseSeq {
			return // bogus: acknowledges the future or another epoch's space
		}
		if s.sent-body.Cumulative > s.hist.Len() {
			return // too far behind the resync ring to ever catch up
		}
		s.cums[src] = body.Cumulative
		s.ids = append(s.ids, src)
		// Rebase the stall detector: the window minimum just dropped to
		// the rejoiner's cum, and its catch-up progress (not the old
		// group's) is what must now count as progress.
		s.lastMin = s.minCum()
		s.stallRounds = 0
		s.armRTO() // the rejoiner is behind: start serving backfill
		return
	}
	if body.Cumulative <= prev {
		return
	}
	s.cums[src] = body.Cumulative
	s.pump()
}

// Receiver is the reader-side ackcast instance: in-order delivery with a
// cumulative ACK per arrival.
type Receiver struct {
	transport.ReceiverCore

	// buf holds out-of-order arrivals; its low end is the next seq to
	// deliver.
	buf transport.Window[bufEntry]
}

type bufEntry struct {
	sentAt    time.Time
	payload   []byte
	recovered bool
}

// NewReceiver builds an ackcast receiver on cfg.Endpoint.
func NewReceiver(cfg transport.Config, opts Options) (*Receiver, error) {
	core, err := transport.NewReceiverCore(cfg)
	if err != nil {
		return nil, err
	}
	r := &Receiver{ReceiverCore: core, buf: transport.NewWindow[bufEntry](cfg.BaseSeq+1, holdbackCap)}
	r.Handle(wire.TypeData, r.onData)
	r.Handle(wire.TypeRetrans, r.onData)
	r.Handle(wire.TypeHeartbeat, r.onHeartbeat)
	return r, nil
}

// onHeartbeat answers any sender heartbeat with a fresh cumulative ACK.
// ackcast senders emit no heartbeats of their own; this path exists for the
// hot-swap binding, which injects a synthetic end-of-stream heartbeat so a
// receiver that was partitioned across a swap re-ACKs, gets re-admitted by
// the (closed but still draining) old sender, and receives its backfill.
func (r *Receiver) onHeartbeat(src wire.NodeID, _ *wire.Packet) { r.sendAck(src) }

func (r *Receiver) onData(src wire.NodeID, pkt *wire.Packet) {
	if pkt.Seq <= r.Cfg.BaseSeq {
		return
	}
	if pkt.Seq < r.buf.Low() {
		r.Counts.Duplicates++
		r.sendAck(src) // re-ACK: the sender may have missed an earlier ACK
		return
	}
	if r.buf.State(pkt.Seq) == transport.SlotHeld {
		r.Counts.Duplicates++
		return
	}
	if !r.buf.Fits(pkt.Seq) {
		r.Counts.OutOfWindow++
		return
	}
	*r.buf.Set(pkt.Seq, transport.SlotHeld) = bufEntry{
		sentAt:    pkt.SentAt,
		payload:   r.Arena.Copy(pkt.Payload),
		recovered: pkt.Type == wire.TypeRetrans,
	}
	r.Counts.NoteBuffered(r.buf.Count(transport.SlotHeld))
	r.buf.Drain(r.deliver)
	r.sendAck(src)
}

func (r *Receiver) deliver(seq uint64, e *bufEntry) {
	r.Deliver(0, seq, e.payload, e.sentAt, e.recovered)
}

func (r *Receiver) sendAck(to wire.NodeID) {
	r.Cfg.Endpoint.Work(ackWork)
	body, err := (&wire.AckBody{Cumulative: r.buf.Low() - 1}).Encode(nil)
	if err != nil {
		return
	}
	// ACK loss is recovered by the RTO path; nothing to do on error.
	_ = r.Cfg.Endpoint.Unicast(to, r.Cfg.Packet(wire.TypeAck, 0, body))
}
