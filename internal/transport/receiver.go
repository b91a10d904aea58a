package transport

import (
	"time"

	"adamant/internal/env"
	"adamant/internal/wire"
)

// ReceiverCore is the reader-side state every protocol shares: the config,
// the counters, the closed flag, dispatch by packet type, deferred delivery
// and one optional timer. Protocols embed it and add their own recovery
// state.
//
// The core makes the same env and Endpoint calls, in the same order, as the
// per-protocol code it replaced, so seeded runs replay byte for byte.
type ReceiverCore struct {
	Cfg Config
	// Counts are the counters Stats returns.
	Counts ReceiverStats

	closed bool
	routes []route
	fire   func() // the timer's callback, bound once so arming allocates no closure
	tmr    env.Timer
	free   []*pendingDelivery
}

type route struct {
	t wire.Type
	h func(src wire.NodeID, pkt *wire.Packet)
}

// maxFreeDeliveries bounds the deferred-delivery pool; a recovery burst can
// briefly queue many deliveries behind a slow CPU, but they drain in the
// same virtual instant.
const maxFreeDeliveries = 1024

type pendingDelivery struct {
	c *ReceiverCore
	d Delivery
}

// NewReceiverCore validates cfg.
func NewReceiverCore(cfg Config) (ReceiverCore, error) {
	if err := cfg.ValidateReceiver(); err != nil {
		return ReceiverCore{}, err
	}
	return ReceiverCore{Cfg: cfg}, nil
}

// Handle routes packets of type t to h; the first call installs the core as
// the endpoint's handler. Every packet after Close and every packet of
// another stream is dropped before any handler runs.
func (c *ReceiverCore) Handle(t wire.Type, h func(src wire.NodeID, pkt *wire.Packet)) {
	if c.routes == nil {
		c.Cfg.Endpoint.SetHandler(c.dispatch)
	}
	c.routes = append(c.routes, route{t, h})
}

func (c *ReceiverCore) dispatch(src wire.NodeID, pkt *wire.Packet) {
	if c.closed || pkt.Stream != c.Cfg.Stream {
		return
	}
	for _, r := range c.routes {
		if r.t == pkt.Type {
			r.h(src, pkt)
			return
		}
	}
}

// Stats implements Receiver.
func (c *ReceiverCore) Stats() ReceiverStats { return c.Counts }

// Close implements Receiver: dispatch, delivery and the timer stop. It is
// idempotent.
func (c *ReceiverCore) Close() error {
	c.closed = true
	c.StopTimer()
	return nil
}

// Deliver counts a sample delivered and hands it up after delay, the CPU
// time Endpoint.Work reports for its processing, or at once when delay is
// not positive. Deferred records are handed to env.ScheduleArg from a pool
// instead of capturing closures, so delivery is allocation-free once the
// receiver is warm. DeliveredAt is stamped when the sample is handed up, and
// nothing is handed up after Close.
func (c *ReceiverCore) Deliver(delay time.Duration, seq uint64, payload []byte, sentAt time.Time, recovered bool) {
	c.Counts.Delivered++
	if recovered {
		c.Counts.Recovered++
	}
	d := Delivery{Stream: c.Cfg.Stream, Seq: seq, Payload: payload, SentAt: sentAt, Recovered: recovered}
	if delay <= 0 {
		c.handUp(d)
		return
	}
	var p *pendingDelivery
	if n := len(c.free); n > 0 {
		p, c.free = c.free[n-1], c.free[:n-1]
	} else {
		p = new(pendingDelivery)
	}
	p.c, p.d = c, d
	c.Cfg.Env.ScheduleArg(delay, deliverPending, p)
}

// deliverPending is the static ScheduleArg callback: recycle first, then
// hand up, so a delivery that triggers further protocol work can reuse the
// record immediately.
func deliverPending(a any) {
	p := a.(*pendingDelivery)
	c, d := p.c, p.d
	*p = pendingDelivery{}
	if len(c.free) < maxFreeDeliveries {
		c.free = append(c.free, p)
	}
	c.handUp(d)
}

func (c *ReceiverCore) handUp(d Delivery) {
	if !c.closed {
		d.DeliveredAt = c.Cfg.Env.Now()
		c.Cfg.Deliver(d)
	}
}

// Lost counts seq abandoned and reports it through OnLost; nothing is
// reported after Close.
func (c *ReceiverCore) Lost(seq uint64) {
	c.Counts.Abandoned++
	if c.Cfg.OnLost != nil && !c.closed {
		c.Cfg.OnLost(seq)
	}
}

// OnTimer sets what the core's one timer runs. A fire that races Close does
// not run it.
func (c *ReceiverCore) OnTimer(fire func()) {
	c.fire = func() {
		if !c.closed {
			fire()
		}
	}
}

// ArmAt (re)schedules the timer for t, at once if t has passed; a zero t
// only stops it.
func (c *ReceiverCore) ArmAt(t time.Time) {
	c.StopTimer()
	if !t.IsZero() {
		c.tmr = c.Cfg.Env.After(max(t.Sub(c.Cfg.Env.Now()), 0), c.fire)
	}
}

// StopTimer cancels the pending timer, if any.
func (c *ReceiverCore) StopTimer() { c.tmr.Stop() }
