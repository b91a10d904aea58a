package dds_test

import (
	"testing"
	"time"

	"adamant/internal/dds"
	"adamant/internal/env"
	"adamant/internal/sim"
	"adamant/internal/transport"
	"adamant/internal/transport/protocols"
	"adamant/internal/wire"
)

// loopEndpoint hands every multicast straight to its peer's handler and
// drops unicasts: no network and no CPU model, so what a run allocates is
// the publish and delivery paths' own work.
type loopEndpoint struct {
	id      wire.NodeID
	peer    *loopEndpoint
	handler func(src wire.NodeID, pkt *wire.Packet)
}

func (e *loopEndpoint) Local() wire.NodeID                           { return e.id }
func (e *loopEndpoint) MTU() int                                     { return 64 * 1024 }
func (e *loopEndpoint) Unicast(wire.NodeID, *wire.Packet) error      { return nil }
func (e *loopEndpoint) Work(time.Duration) time.Duration             { return 0 }
func (e *loopEndpoint) ScaleCPU(d time.Duration) time.Duration       { return d }
func (e *loopEndpoint) SetHandler(h func(wire.NodeID, *wire.Packet)) { e.handler = h }
func (e *loopEndpoint) Multicast(pkt *wire.Packet) error {
	e.peer.handler(e.id, pkt)
	return nil
}

// newLoop returns a writer endpoint (node 1) whose multicasts reach the
// reader endpoint (node 2) synchronously.
func newLoop() (writer, reader *loopEndpoint) {
	reader = &loopEndpoint{id: 2, handler: func(wire.NodeID, *wire.Packet) {}}
	return &loopEndpoint{id: 1, peer: reader}, reader
}

// TestDeliveryAllocs pins what the dds layer adds to the transport's
// allocations: 100 samples a DataWriter publishes and a KEEP_LAST depth-1
// DataReader receives over a synchronous loop (nakcast, no loss), against
// the same 100 samples through the bare sender and receiver bindings the
// layer wraps, over the same loop. A Sample is a value and the depth-1
// cache reuses its array, so the layer adds no allocation.
func TestDeliveryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the measured path")
	}
	const topic = "allocs"
	reg := protocols.MustRegistry()
	spec := transport.Spec{Name: "nakcast"}
	receivers := transport.StaticReceivers(2)
	payload := []byte("sample-00000")
	// measure publishes 100 samples per step and checks each was delivered.
	measure := func(publish func([]byte) error, delivered *int) float64 {
		steps := 0
		step := func() {
			for i := 0; i < 100; i++ {
				if err := publish(payload); err != nil {
					t.Fatal(err)
				}
			}
			steps++
		}
		for i := 0; i < 50; i++ { // warm: arenas cut, sender history paged in
			step()
		}
		got := testing.AllocsPerRun(500, step)
		if *delivered != 100*steps {
			t.Fatalf("delivered %d of %d", *delivered, 100*steps)
		}
		return got
	}

	bareDelivered := 0
	bareW, bareR := newLoop()
	stream := dds.StreamIDForTopic(topic)
	bareEnv := env.NewSim(sim.New(1))
	bindingConfig := func(ep transport.Endpoint) transport.BindingConfig {
		return transport.BindingConfig{Registry: reg, Spec: spec, Config: transport.Config{
			Env: bareEnv, Endpoint: transport.NewSplitter(ep).Route(stream), Stream: stream,
			SenderID: 1, Receivers: receivers,
		}}
	}
	rc := bindingConfig(bareR)
	rc.Deliver = func(transport.Delivery) { bareDelivered++ }
	if _, err := transport.NewReceiverBinding(rc); err != nil {
		t.Fatal(err)
	}
	sender, err := transport.NewSenderBinding(bindingConfig(bareW))
	if err != nil {
		t.Fatal(err)
	}
	bare := measure(sender.Publish, &bareDelivered)

	ddsDelivered := 0
	ddsW, ddsR := newLoop()
	e := env.NewSim(sim.New(1))
	participant := func(ep transport.Endpoint) *dds.DomainParticipant {
		p, err := dds.NewParticipant(dds.ParticipantConfig{
			Env: e, Endpoint: ep, Registry: reg, Transport: spec,
			Impl: dds.ImplB, SenderID: 1, Receivers: receivers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	wp, rp := participant(ddsW), participant(ddsR)
	wt, _ := wp.CreateTopic(topic, dds.TopicQoS{Reliability: dds.Reliable})
	rt, _ := rp.CreateTopic(topic, dds.TopicQoS{Reliability: dds.Reliable})
	writer, err := wp.CreateDataWriter(wt, dds.WriterQoS{Reliability: dds.Reliable})
	if err != nil {
		t.Fatal(err)
	}
	reader, err := rp.CreateDataReader(rt, dds.ReaderQoS{Reliability: dds.Reliable, History: dds.KeepLast, Depth: 1},
		dds.ListenerFuncs{Data: func(dds.Sample) { ddsDelivered++ }})
	if err != nil {
		t.Fatal(err)
	}
	withDDS := measure(writer.Write, &ddsDelivered)
	if reader.CacheLen() != 1 {
		t.Fatalf("CacheLen = %d, want 1", reader.CacheLen())
	}

	t.Logf("allocs per 100 samples: bindings %.0f, dds %.0f", bare, withDDS)
	if withDDS > bare {
		t.Errorf("dds layer adds %.0f allocs per 100 samples to the transport's %.0f, want 0", withDDS-bare, bare)
	}
}
