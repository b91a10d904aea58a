package transport

import (
	"fmt"

	"adamant/internal/wire"
)

// Splitter multiplexes one physical endpoint among several stream-scoped
// consumers. Each DDS data writer/reader owns one stream, so giving every
// protocol instance a Route(stream) virtual endpoint lets many instances
// share a node's endpoint without fighting over SetHandler.
//
// Packets whose stream has no route are dropped.
type Splitter struct {
	ep     Endpoint
	routes map[wire.StreamID]*streamEndpoint
}

// NewSplitter wraps ep and installs itself as its handler.
func NewSplitter(ep Endpoint) *Splitter {
	s := &Splitter{ep: ep, routes: make(map[wire.StreamID]*streamEndpoint)}
	ep.SetHandler(s.dispatch)
	return s
}

// Route returns the virtual endpoint for the given stream, creating it on
// first use.
func (s *Splitter) Route(stream wire.StreamID) Endpoint {
	if r, ok := s.routes[stream]; ok {
		return r
	}
	r := &streamEndpoint{Endpoint: s.ep, stream: stream}
	s.routes[stream] = r
	return r
}

func (s *Splitter) dispatch(src wire.NodeID, pkt *wire.Packet) {
	if r, ok := s.routes[pkt.Stream]; ok && r.handler != nil {
		r.handler(src, pkt)
	}
}

// streamEndpoint is a stream-scoped view of the physical endpoint.
type streamEndpoint struct {
	Endpoint
	stream  wire.StreamID
	handler func(src wire.NodeID, pkt *wire.Packet)
}

func (r *streamEndpoint) Unicast(dst wire.NodeID, pkt *wire.Packet) error {
	if pkt.Stream != r.stream {
		return fmt.Errorf("transport: stream endpoint %d cannot send stream %d", r.stream, pkt.Stream)
	}
	return r.Endpoint.Unicast(dst, pkt)
}

func (r *streamEndpoint) Multicast(pkt *wire.Packet) error {
	if pkt.Stream != r.stream {
		return fmt.Errorf("transport: stream endpoint %d cannot send stream %d", r.stream, pkt.Stream)
	}
	return r.Endpoint.Multicast(pkt)
}

func (r *streamEndpoint) SetHandler(h func(src wire.NodeID, pkt *wire.Packet)) { r.handler = h }
