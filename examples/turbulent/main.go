// Turbulent: runtime autonomic adaptation — the paper's future-work section
// made concrete ("When the system detects environmental changes (e.g.,
// increase in number of receivers or increase in sending rate), supervised
// machine learning can provide guidance to support QoS for the new
// configuration").
//
// A datacenter starts small: 3 subscribers on a clean pc3000/1Gb cloud at
// 50 Hz, and the shipped knowledge base (data/adamant.ann) configures
// NAKcast. Mid-mission the disaster-recovery operation scales out — 12 more
// fusion applications subscribe, the sending rate drops to 25 Hz for
// wide-area scanning and the network starts losing 2% of packets. The
// adaptation manager notices the drift, re-queries the (constant-time) ANN,
// and swaps the transport to Ricochet for the next mission phase without
// operator action.
//
//	go run ./examples/turbulent    # from the repository root
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
	kernel := sim.New(99)
	e := env.NewSim(kernel)

	phase := 1
	obs := core.Observation{Receivers: 3, RateHz: 50, LossPct: 0}
	initial := core.Decision{
		Features: core.FeaturesFor(netem.PC3000, netem.Gbps1, dds.ImplB,
			obs.LossPct, obs.Receivers, obs.RateHz, core.MetricReLate2),
	}
	if initial.Spec, err = selector.Select(initial.Features); err != nil {
		return err
	}
	fmt.Printf("[t=%6s] phase %d: %d receivers @ %gHz, %g%% loss -> boot transport %s\n",
		dur(kernel), phase, obs.Receivers, obs.RateHz, obs.LossPct, initial.Spec)

	adaptor, err := core.NewAdaptor(e, selector, initial,
		func() core.Observation { return obs },
		func(d core.Decision) {
			fmt.Printf("[t=%6s] ADAPT: environment drifted to %d receivers @ %gHz, %g%% loss "+
				"-> switching transport to %s\n",
				dur(kernel), d.Features.Receivers, d.Features.RateHz, d.Features.LossPct, d.Spec)
		},
		core.AdaptorOptions{
			Interval: 500 * time.Millisecond,
			Cooldown: 2 * time.Second,
		})
	if err != nil {
		return err
	}
	defer adaptor.Close()

	// Mission timeline.
	e.After(5*time.Second, func() {
		phase = 2
		obs = core.Observation{Receivers: 15, RateHz: 25, LossPct: 2}
		fmt.Printf("[t=%6s] phase %d: scale-out — 12 more fusion apps subscribe, "+
			"rate drops to %gHz for wide-area scanning, loss rises to %g%%\n",
			dur(kernel), phase, obs.RateHz, obs.LossPct)
	})

	if err := kernel.RunFor(12 * time.Second); err != nil {
		return err
	}
	st := adaptor.Stats()
	fmt.Printf("\nadaptation manager: %d checks, %d drift triggers, %d reconfigurations, %d suppressed by cooldown\n",
		st.Checks, st.Triggers, st.Reconfigures, st.Suppressed)
	fmt.Printf("final configuration: for %s\n", adaptor.Current())

	// The adaptation decision latency is the same bounded ANN query
	// measured in Figures 20/21 — which is why the paper argues this style
	// of in-mission adaptation is viable for DRE systems.
	return nil
}

func dur(k *sim.Kernel) time.Duration { return k.Now().Sub(sim.Epoch).Round(100 * time.Millisecond) }
