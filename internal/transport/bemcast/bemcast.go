// Package bemcast implements best-effort multicast: the simplest ANT
// transport. The sender multicasts data packets; receivers deliver them on
// arrival with duplicate suppression and no recovery of any kind. It is the
// latency floor and reliability baseline the recovery protocols (Ricochet,
// NAKcast, ackcast) are compared against.
package bemcast

import (
	"adamant/internal/transport"
	"adamant/internal/wire"
)

// Name is the protocol's registry/spec name.
const Name = "bemcast"

// Props advertises best-effort multicast's transport properties.
const Props = transport.PropMulticast

// DefaultWindow is the duplicate-suppression window size in packets.
const DefaultWindow = 4096

// spanCap bounds the window's span: it forgets by count, so its span grows
// with the losses in it, and a packet further past its low end than this
// slides the low end up to it instead.
const spanCap = 4 * DefaultWindow

// Spec returns the canonical transport.Spec for the protocol.
func Spec() transport.Spec { return transport.Spec{Name: Name} }

// Factory returns the registry factory for best-effort multicast.
func Factory() *transport.Factory {
	return &transport.Factory{
		Name:  Name,
		Props: Props,
		NewSender: func(cfg transport.Config, _ transport.Params) (transport.Sender, error) {
			return NewSender(cfg)
		},
		NewReceiver: func(cfg transport.Config, _ transport.Params) (transport.Receiver, error) {
			return NewReceiver(cfg)
		},
	}
}

// Sender is the writer-side instance.
type Sender struct {
	cfg    transport.Config
	seq    uint64
	arena  transport.Arena
	closed bool
}

var _ transport.Sender = (*Sender)(nil)

// NewSender builds a best-effort sender on cfg.Endpoint.
func NewSender(cfg transport.Config) (*Sender, error) {
	if err := cfg.ValidateSender(); err != nil {
		return nil, err
	}
	return &Sender{cfg: cfg, seq: cfg.BaseSeq}, nil
}

// Publish implements transport.Sender.
func (s *Sender) Publish(payload []byte) error {
	if s.closed {
		return transport.ErrClosed
	}
	s.seq++
	return s.cfg.Endpoint.Multicast(&wire.Packet{
		Type:    wire.TypeData,
		Src:     s.cfg.Endpoint.Local(),
		Stream:  s.cfg.Stream,
		Seq:     s.seq,
		SentAt:  s.cfg.Env.Now(),
		Payload: s.arena.Copy(payload),
	})
}

// Seq implements transport.Sender.
func (s *Sender) Seq() uint64 { return s.seq }

// Close implements transport.Sender.
func (s *Sender) Close() error {
	s.closed = true
	return nil
}

// Receiver is the reader-side instance.
type Receiver struct {
	cfg    transport.Config
	mux    *transport.Mux
	seen   transport.Window[struct{}] // delivered seqs; those below its low end are forgotten
	arena  transport.Arena
	stats  transport.ReceiverStats
	closed bool
}

var _ transport.Receiver = (*Receiver)(nil)

// NewReceiver builds a best-effort receiver on cfg.Endpoint.
func NewReceiver(cfg transport.Config) (*Receiver, error) {
	if err := cfg.ValidateReceiver(); err != nil {
		return nil, err
	}
	r := &Receiver{cfg: cfg, mux: transport.NewMux(cfg.Endpoint), seen: transport.NewWindow[struct{}](cfg.BaseSeq+1, spanCap)}
	r.mux.Handle(wire.TypeData, r.onData)
	return r, nil
}

// Stats implements transport.Receiver.
func (r *Receiver) Stats() transport.ReceiverStats { return r.stats }

// Close implements transport.Receiver.
func (r *Receiver) Close() error {
	r.closed = true
	return nil
}

func (r *Receiver) onData(_ wire.NodeID, pkt *wire.Packet) {
	if r.closed || pkt.Stream != r.cfg.Stream || pkt.Seq == 0 {
		return
	}
	if pkt.Seq < r.seen.Low() {
		r.stats.OutOfWindow++
		return
	}
	if r.seen.State(pkt.Seq) == transport.SlotDelivered {
		r.stats.Duplicates++
		return
	}
	r.seen.Set(pkt.Seq, transport.SlotDelivered)
	n := r.seen.Count(transport.SlotDelivered)
	r.stats.NoteBuffered(n)
	if n > DefaultWindow && pkt.Seq > DefaultWindow {
		// Over the window: forget everything a window or more behind
		// this packet.
		r.seen.SlideTo(pkt.Seq - DefaultWindow + 1)
	}
	r.stats.Delivered++
	r.cfg.Deliver(transport.Delivery{
		Stream:      r.cfg.Stream,
		Seq:         pkt.Seq,
		Payload:     r.arena.Copy(pkt.Payload),
		SentAt:      pkt.SentAt,
		DeliveredAt: r.cfg.Env.Now(),
	})
}
