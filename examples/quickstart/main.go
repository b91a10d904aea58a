// Quickstart: the smallest end-to-end ADAMANT program.
//
// It builds a three-node simulated cloud (one publisher, two subscribers),
// lets ADAMANT pick the transport protocol for the environment, publishes a
// handful of samples through the DDS-style API, and prints what arrived.
//
//	go run ./examples/quickstart    # from the repository root
package main

import (
	"fmt"
	"log"
	"time"

	"adamant/internal/core"
	"adamant/internal/dds"
	"adamant/internal/env"
	"adamant/internal/netem"
	"adamant/internal/sim"
	"adamant/internal/transport"
	"adamant/internal/transport/protocols"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. A simulated cloud environment: fast machines on a gigabit LAN,
	//    with 2% end-host loss at the subscribers.
	kernel := sim.New(42)
	e := env.NewSim(kernel)
	network, err := netem.New(e, netem.Config{Bandwidth: netem.Gbps1})
	if err != nil {
		return err
	}
	pub := network.AddNode(netem.PC3000)
	subA := network.AddNode(netem.PC3000)
	subB := network.AddNode(netem.PC3000)
	subA.SetLoss(2)
	subB.SetLoss(2)

	// 2. ADAMANT decides the transport: the shipped knowledge base (the
	//    trained neural network) answers for the environment we built; the
	//    autoconfig example probes a real host instead.
	selector, err := core.LoadANNSelector("data/adamant.ann")
	if err != nil {
		return err
	}
	features := core.FeaturesFor(netem.PC3000, netem.Gbps1, dds.ImplB,
		2 /*loss%*/, 2 /*receivers*/, 50 /*Hz*/, core.MetricReLate2)
	spec, err := selector.Select(features)
	if err != nil {
		return err
	}
	fmt.Printf("ADAMANT selected transport: %s\n\n", spec)

	// 3. DDS-style pub/sub on top of the chosen transport.
	reg := protocols.MustRegistry()
	receivers := transport.StaticReceivers(subA.Local(), subB.Local())
	mkParticipant := func(node *netem.Node) (*dds.DomainParticipant, error) {
		return dds.NewParticipant(dds.ParticipantConfig{
			Env: e, Endpoint: node, Registry: reg, Transport: spec,
			Impl: dds.ImplB, SenderID: pub.Local(), Receivers: receivers,
		})
	}
	pubP, err := mkParticipant(pub)
	if err != nil {
		return err
	}
	topic, err := pubP.CreateTopic("sensors/temperature", dds.TopicQoS{Reliability: dds.Reliable})
	if err != nil {
		return err
	}
	writer, err := pubP.CreateDataWriter(topic, dds.WriterQoS{Reliability: dds.Reliable})
	if err != nil {
		return err
	}
	for i, node := range []*netem.Node{subA, subB} {
		name := string(rune('A' + i))
		p, err := mkParticipant(node)
		if err != nil {
			return err
		}
		rt, err := p.CreateTopic("sensors/temperature", dds.TopicQoS{Reliability: dds.Reliable})
		if err != nil {
			return err
		}
		if _, err := p.CreateDataReader(rt, dds.ReaderQoS{Reliability: dds.Reliable},
			dds.ListenerFuncs{Data: func(s dds.Sample) {
				fmt.Printf("subscriber %s: %-12q seq=%d latency=%v recovered=%v\n",
					name, s.Data, s.Info.Seq, s.Info.Latency().Round(time.Microsecond),
					s.Info.Recovered)
			}}); err != nil {
			return err
		}
	}

	// 4. Publish ten samples at 50 Hz and run the virtual clock.
	for i := 0; i < 10; i++ {
		i := i
		e.After(time.Duration(i)*20*time.Millisecond, func() {
			if err := writer.Write([]byte(fmt.Sprintf("%.1fC", 20+float64(i)/2))); err != nil {
				log.Println("write:", err)
			}
		})
	}
	if err := kernel.RunFor(5 * time.Second); err != nil {
		return err
	}
	fmt.Printf("\npublished %d samples; simulation processed %d events in virtual time\n",
		writer.Seq(), kernel.Fired())
	return nil
}
