// Package bemcast implements best-effort multicast: the simplest ANT
// transport. The sender multicasts data packets; receivers deliver them on
// arrival with duplicate suppression and no recovery of any kind. It is the
// latency floor and reliability baseline the recovery protocols (Ricochet,
// NAKcast, Fountcast) are compared against.
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

// Factory returns the registry factory for best-effort multicast, which
// takes no parameters.
func Factory() *transport.Factory {
	return transport.NewFactory(Name, transport.NoOptions, Props,
		func(struct{}) uint64 { return spanCap },
		func(cfg transport.Config, _ struct{}) (*Sender, error) { return NewSender(cfg) },
		func(cfg transport.Config, _ struct{}) (*Receiver, error) { return NewReceiver(cfg) })
}

// Sender is the writer-side instance: the shared core's numbering and
// multicast, nothing more.
type Sender struct{ transport.SenderCore }

// NewSender builds a best-effort sender on cfg.Endpoint.
func NewSender(cfg transport.Config) (*Sender, error) {
	core, err := transport.NewSenderCore(cfg)
	if err != nil {
		return nil, err
	}
	return &Sender{core}, nil
}

// Receiver is the reader-side instance.
type Receiver struct {
	transport.ReceiverCore
	seen transport.Window[struct{}] // delivered seqs; those below its low end are forgotten
}

// NewReceiver builds a best-effort receiver on cfg.Endpoint.
func NewReceiver(cfg transport.Config) (*Receiver, error) {
	core, err := transport.NewReceiverCore(cfg)
	if err != nil {
		return nil, err
	}
	r := &Receiver{ReceiverCore: core, seen: transport.NewWindow[struct{}](cfg.BaseSeq+1, spanCap)}
	r.Handle(wire.TypeData, r.onData)
	return r, nil
}

func (r *Receiver) onData(_ wire.NodeID, pkt *wire.Packet) {
	if pkt.Seq == 0 {
		return
	}
	if pkt.Seq < r.seen.Low() {
		r.Counts.OutOfWindow++
		return
	}
	if r.seen.State(pkt.Seq) == transport.SlotDelivered {
		r.Counts.Duplicates++
		return
	}
	r.seen.Set(pkt.Seq, transport.SlotDelivered)
	n := r.seen.Count(transport.SlotDelivered)
	r.Counts.NoteBuffered(n)
	if n > DefaultWindow && pkt.Seq > DefaultWindow {
		// Over the window: forget everything a window or more behind
		// this packet.
		r.seen.SlideTo(pkt.Seq - DefaultWindow + 1)
	}
	r.Deliver(0, pkt.Seq, pkt.Payload, pkt.SentAt, false)
}
