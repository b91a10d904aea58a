package transport_test

import (
	"testing"
	"time"

	"adamant/internal/env"
	"adamant/internal/sim"
	"adamant/internal/transport"
	"adamant/internal/transport/transporttest"
	"adamant/internal/wire"
)

func TestSplitterRoutesByStream(t *testing.T) {
	k := sim.New(1)
	e := env.NewSim(k)
	fab := transporttest.New(e, time.Millisecond)
	a, b := fab.Endpoint(0), fab.Endpoint(1)
	split := transport.NewSplitter(b)

	var s1, s2 int
	split.Route(1).SetHandler(func(wire.NodeID, *wire.Packet) { s1++ })
	split.Route(2).SetHandler(func(wire.NodeID, *wire.Packet) { s2++ })

	send := func(stream wire.StreamID) {
		pkt := &wire.Packet{Type: wire.TypeData, Src: 0, Stream: stream, Seq: 1, SentAt: k.Now()}
		if err := a.Unicast(1, pkt); err != nil {
			t.Fatal(err)
		}
	}
	send(1)
	send(1)
	send(2)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if s1 != 2 || s2 != 1 {
		t.Errorf("routes saw s1=%d s2=%d, want 2/1", s1, s2)
	}
}

func TestSplitterUnroutedDroppedWithoutControl(t *testing.T) {
	k := sim.New(1)
	e := env.NewSim(k)
	fab := transporttest.New(e, time.Millisecond)
	a, b := fab.Endpoint(0), fab.Endpoint(1)
	split := transport.NewSplitter(b)
	got := 0
	split.Route(1).SetHandler(func(wire.NodeID, *wire.Packet) { got++ })
	pkt := &wire.Packet{Type: wire.TypeData, Src: 0, Stream: 9, Seq: 1, SentAt: k.Now()}
	if err := a.Unicast(1, pkt); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Error("unrouted packet leaked to a stream route")
	}
}

func TestSplitterSendGuards(t *testing.T) {
	k := sim.New(1)
	e := env.NewSim(k)
	fab := transporttest.New(e, time.Millisecond)
	fab.Endpoint(1)
	split := transport.NewSplitter(fab.Endpoint(0))
	route := split.Route(1)
	wrong := &wire.Packet{Type: wire.TypeData, Stream: 2, Seq: 1, SentAt: k.Now()}
	if err := route.Unicast(1, wrong); err == nil {
		t.Error("cross-stream unicast should error")
	}
	if err := route.Multicast(wrong); err == nil {
		t.Error("cross-stream multicast should error")
	}
	right := &wire.Packet{Type: wire.TypeData, Stream: 1, Seq: 1, SentAt: k.Now()}
	if err := route.Multicast(right); err != nil {
		t.Errorf("same-stream multicast: %v", err)
	}
	if route.Local() != 0 || route.MTU() <= 0 {
		t.Error("identity passthrough wrong")
	}
	route.Work(time.Microsecond) // must not panic
	if split.Route(1) != route {
		t.Error("Route should return the same instance for the same stream")
	}
}
