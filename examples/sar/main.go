// Search-and-rescue (SAR): the paper's motivating scenario (Section 2).
//
// An ad-hoc datacenter stood up after a regional disaster fuses two
// correlated event streams — UAV infrared scans and infrastructure-camera
// video frames — to detect survivors. Fusion only works when matching
// infrared and video samples arrive within a tight correlation window;
// late or missing samples cause false negatives (missed survivors).
//
// The cloud provisions whatever hardware it has. This example runs the SAME
// SAR workload on two provisioned environments — fast (pc3000 + 1 Gb) and
// degraded (pc850 + 100 Mb) — and, for each, compares the fusion hit rate
// when the middleware transport is chosen by ADAMANT versus a fixed
// one-size-fits-all configuration. It is Figure 1/2 of the paper turned
// into runnable code.
//
//	go run ./examples/sar    # from the repository root
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
	"adamant/internal/wire"
)

const (
	rateHz        = 25
	samples       = 500
	lossPct       = 5
	fusionWindow  = 30 * time.Millisecond // IR and video must match this closely
	fusionReaders = 3                     // survivor detection, fire detection, damage survey
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	selector, err := core.LoadANNSelector("data/adamant.ann")
	if err != nil {
		return err
	}
	platforms := []struct {
		name    string
		machine netem.Machine
		bw      netem.Bandwidth
	}{
		{"fast cloud (pc3000, 1Gb)", netem.PC3000, netem.Gbps1},
		{"degraded cloud (pc850, 100Mb)", netem.PC850, netem.Mbps100},
	}
	fixed := core.Candidates()[4] // ricochet(c=3,r=4): great on fast hardware...

	for _, plat := range platforms {
		fmt.Printf("=== %s ===\n", plat.name)

		// ADAMANT's recommendation for this environment, from the shipped
		// knowledge base (examples/autoconfig shows the full probe -> ANN
		// flow).
		adamantChoice, err := selector.Select(core.FeaturesFor(plat.machine, plat.bw, dds.ImplB,
			lossPct, fusionReaders, rateHz, core.MetricReLate2))
		if err != nil {
			return err
		}

		for _, cfg := range []struct {
			label string
			spec  transport.Spec
		}{
			{"fixed    " + fixed.String(), fixed},
			{"ADAMANT  " + adamantChoice.String(), adamantChoice},
		} {
			hits, misses, avgSkew, err := runSAR(plat.machine, plat.bw, cfg.spec)
			if err != nil {
				return err
			}
			if hits == 0 {
				return fmt.Errorf("%s on %s: no fusion hits, a stream never arrived", cfg.spec, plat.name)
			}
			rate := 100 * float64(hits) / float64(hits+misses)
			fmt.Printf("  %-32s fusion hits %4d/%4d (%.1f%%)  mean stream skew %v\n",
				cfg.label, hits, hits+misses, rate, avgSkew.Round(time.Microsecond))
		}
		fmt.Println()
	}
	fmt.Println("ADAMANT matches the transport to the provisioned resources; a fixed")
	fmt.Println("configuration is only right on the hardware it was tuned for.")
	return nil
}

// runSAR publishes correlated IR and video streams through the DDS stack on
// the given platform and fuses them at the survivor-detection application.
func runSAR(machine netem.Machine, bw netem.Bandwidth, spec transport.Spec) (hits, misses int, avgSkew time.Duration, err error) {
	kernel := sim.New(7)
	e := env.NewSim(kernel)
	network, err := netem.New(e, netem.Config{Bandwidth: bw})
	if err != nil {
		return 0, 0, 0, err
	}
	uav := network.AddNode(machine)    // publishes infrared scans
	camera := network.AddNode(machine) // publishes video frames
	var fusionNodes []*netem.Node
	var fusionIDs []wire.NodeID
	for i := 0; i < fusionReaders; i++ {
		n := network.AddNode(machine)
		n.SetLoss(lossPct)
		fusionNodes = append(fusionNodes, n)
		fusionIDs = append(fusionIDs, n.Local())
	}
	reg := protocols.MustRegistry()
	receivers := transport.StaticReceivers(fusionIDs...)

	// Each stream has its own writer node, and a reader takes a stream
	// only from its writer.
	writers := map[string]wire.NodeID{"sar/infrared": uav.Local(), "sar/video": camera.Local()}
	participant := func(node *netem.Node) (*dds.DomainParticipant, error) {
		return dds.NewParticipant(dds.ParticipantConfig{
			Env: e, Endpoint: node, Registry: reg, Transport: spec,
			Impl: dds.ImplB, Writers: writers, Receivers: receivers,
		})
	}

	// Publishers.
	uavP, err := participant(uav)
	if err != nil {
		return 0, 0, 0, err
	}
	irTopic, err := uavP.CreateTopic("sar/infrared", dds.TopicQoS{Reliability: dds.Reliable})
	if err != nil {
		return 0, 0, 0, err
	}
	irWriter, err := uavP.CreateDataWriter(irTopic, dds.WriterQoS{Reliability: dds.Reliable})
	if err != nil {
		return 0, 0, 0, err
	}
	camP, err := participant(camera)
	if err != nil {
		return 0, 0, 0, err
	}
	vidTopic, err := camP.CreateTopic("sar/video", dds.TopicQoS{Reliability: dds.Reliable})
	if err != nil {
		return 0, 0, 0, err
	}
	vidWriter, err := camP.CreateDataWriter(vidTopic, dds.WriterQoS{Reliability: dds.Reliable})
	if err != nil {
		return 0, 0, 0, err
	}

	// Every fusion node subscribes to both streams (one participant per
	// node; NAKs target each topic's writer, and Ricochet's lateral
	// repairs flow among all subscribing datacenter nodes). The
	// primary survivor-detection application on fusionNodes[0] correlates
	// IR scan k with video frame k.
	irArrival := make(map[uint64]time.Time)
	vidArrival := make(map[uint64]time.Time)
	for i, node := range fusionNodes {
		primary := i == 0
		p, err := participant(node)
		if err != nil {
			return 0, 0, 0, err
		}
		fuseIR, err := p.CreateTopic("sar/infrared", dds.TopicQoS{Reliability: dds.Reliable})
		if err != nil {
			return 0, 0, 0, err
		}
		if _, err := p.CreateDataReader(fuseIR, dds.ReaderQoS{Reliability: dds.Reliable},
			dds.ListenerFuncs{Data: func(s dds.Sample) {
				if primary {
					irArrival[s.Info.Seq] = s.Info.ReceivedAt
				}
			}}); err != nil {
			return 0, 0, 0, err
		}
		fuseVid, err := p.CreateTopic("sar/video", dds.TopicQoS{Reliability: dds.Reliable})
		if err != nil {
			return 0, 0, 0, err
		}
		if _, err := p.CreateDataReader(fuseVid, dds.ReaderQoS{Reliability: dds.Reliable},
			dds.ListenerFuncs{Data: func(s dds.Sample) {
				if primary {
					vidArrival[s.Info.Seq] = s.Info.ReceivedAt
				}
			}}); err != nil {
			return 0, 0, 0, err
		}
	}

	// Drive both streams at rateHz.
	period := time.Second / rateHz
	for i := 0; i < samples; i++ {
		i := i
		e.After(time.Duration(i)*period, func() {
			if err := irWriter.Write([]byte(fmt.Sprintf("ir-scan-%04d", i))); err != nil {
				log.Println("ir write:", err)
			}
			if err := vidWriter.Write([]byte(fmt.Sprintf("vid-frame-%04d", i))); err != nil {
				log.Println("vid write:", err)
			}
		})
	}
	if err := kernel.RunFor(time.Duration(samples)*period + 30*time.Second); err != nil {
		return 0, 0, 0, err
	}

	// Fuse: a "hit" is a pair whose arrivals are both present and within
	// the correlation window.
	var skewTotal time.Duration
	for k := uint64(1); k <= samples; k++ {
		ir, okIR := irArrival[k]
		vid, okVid := vidArrival[k]
		if !okIR || !okVid {
			misses++
			continue
		}
		skew := ir.Sub(vid)
		if skew < 0 {
			skew = -skew
		}
		if skew <= fusionWindow {
			hits++
			skewTotal += skew
		} else {
			misses++
		}
	}
	if hits > 0 {
		avgSkew = skewTotal / time.Duration(hits)
	}
	return hits, misses, avgSkew, nil
}
