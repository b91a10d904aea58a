// Package transporttest provides an in-memory network fabric for precise,
// deterministic protocol unit tests: fixed delivery delay, no CPU model,
// and a drop hook that lets a test lose exactly the packets it wants
// (e.g. "drop DATA seq 5 to node 2 once").
package transporttest

import (
	"fmt"
	"slices"
	"time"

	"adamant/internal/env"
	"adamant/internal/transport"
	"adamant/internal/wire"
)

// Fabric is a perfect mesh connecting test endpoints.
type Fabric struct {
	env   env.Env
	delay time.Duration
	eps   map[wire.NodeID]*Endpoint
	ids   []wire.NodeID // eps keys ascending: multicast order, so runs replay

	// Drop, when non-nil, is consulted for every (hop, packet) pair;
	// returning true loses the packet on that hop.
	Drop func(from, to wire.NodeID, pkt *wire.Packet) bool
}

// New builds a fabric delivering packets after the given fixed delay.
func New(e env.Env, delay time.Duration) *Fabric {
	return &Fabric{env: e, delay: delay, eps: make(map[wire.NodeID]*Endpoint)}
}

// Endpoint returns (creating if needed) the endpoint with the given ID.
func (f *Fabric) Endpoint(id wire.NodeID) *Endpoint {
	if ep, ok := f.eps[id]; ok {
		return ep
	}
	ep := &Endpoint{fabric: f, id: id}
	f.eps[id] = ep
	i, _ := slices.BinarySearch(f.ids, id)
	f.ids = slices.Insert(f.ids, i, id)
	return ep
}

func (f *Fabric) send(from, to wire.NodeID, pkt *wire.Packet) error {
	dst, ok := f.eps[to]
	if !ok {
		return fmt.Errorf("transporttest: unknown node %d", to)
	}
	if f.Drop != nil && f.Drop(from, to, pkt) {
		return nil
	}
	// Every destination gets the sender's packet itself (transport.Endpoint).
	f.env.After(f.delay, func() {
		if dst.handler != nil {
			dst.handler(from, pkt)
		}
	})
	return nil
}

// Endpoint is a fabric attachment implementing transport.Endpoint.
type Endpoint struct {
	fabric  *Fabric
	id      wire.NodeID
	handler func(src wire.NodeID, pkt *wire.Packet)

	// WorkCharged accumulates Work() costs for assertions.
	WorkCharged time.Duration
}

var _ transport.Endpoint = (*Endpoint)(nil)

// Local implements transport.Endpoint.
func (e *Endpoint) Local() wire.NodeID { return e.id }

// MTU implements transport.Endpoint.
func (e *Endpoint) MTU() int { return 64 * 1024 }

// Unicast implements transport.Endpoint.
func (e *Endpoint) Unicast(dst wire.NodeID, pkt *wire.Packet) error {
	if dst == e.id {
		return fmt.Errorf("transporttest: unicast to self")
	}
	return e.fabric.send(e.id, dst, pkt)
}

// Multicast implements transport.Endpoint, sending in ascending node ID
// order.
func (e *Endpoint) Multicast(pkt *wire.Packet) error {
	for _, id := range e.fabric.ids {
		if id == e.id {
			continue
		}
		if err := e.fabric.send(e.id, id, pkt); err != nil {
			return err
		}
	}
	return nil
}

// Work implements transport.Endpoint by recording the charge; the fabric
// models no CPU, so the reported delay is always zero.
func (e *Endpoint) Work(cost time.Duration) time.Duration {
	if cost > 0 {
		e.WorkCharged += cost
	}
	return 0
}

// ScaleCPU implements transport.Endpoint as the identity (the fabric has
// no CPU model).
func (e *Endpoint) ScaleCPU(d time.Duration) time.Duration { return d }

// SetHandler implements transport.Endpoint.
func (e *Endpoint) SetHandler(h func(src wire.NodeID, pkt *wire.Packet)) { e.handler = h }
