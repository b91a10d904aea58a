// Command adamant-probe runs the ADAMANT startup flow on the local host:
// probe computing and networking resources and (given a trained network
// from adamant-train) recommend the transport protocol configuration and
// print the trained point it answered for, when that is not the probed one.
//
//	adamant-probe                                  # probe only
//	adamant-probe -ann adamant.ann -receivers 9 -rate 25 -loss 3
package main

import (
	"flag"
	"fmt"
	"os"

	"adamant/internal/core"
	"adamant/internal/dds"
	"adamant/internal/probe"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "adamant-probe:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		annPath   = flag.String("ann", "", "trained network from adamant-train (optional)")
		receivers = flag.Int("receivers", 3, "expected data readers")
		rate      = flag.Float64("rate", 25, "data sending rate, Hz")
		loss      = flag.Float64("loss", 2, "expected end-host loss, percent")
		implName  = flag.String("impl", "opensplice", "middleware profile: opendds|opensplice")
		metric    = flag.String("metric", "ReLate2", "metric of interest: ReLate2|ReLate2Jit")
	)
	flag.Parse()

	src := probe.RealSource{}
	info, err := src.Probe()
	if err != nil {
		return err
	}
	fmt.Printf("probed: %s\n", info)

	if *annPath == "" {
		fmt.Println("no -ann network given; probe only")
		return nil
	}
	selector, err := core.LoadANNSelector(*annPath)
	if err != nil {
		return err
	}
	impl, err := dds.ImplByName(*implName)
	if err != nil {
		return err
	}
	m := core.MetricReLate2
	if *metric == core.MetricReLate2Jit.String() {
		m = core.MetricReLate2Jit
	}
	ctl, err := core.NewController(src, selector, core.AppParams{
		Receivers: *receivers, RateHz: *rate, LossPct: *loss, Impl: impl, Metric: m,
	})
	if err != nil {
		return err
	}
	d, err := ctl.Decide()
	if err != nil {
		return err
	}
	fmt.Printf("features: %s\n", d.Features)
	if at := d.Features.Snapped(); at != d.Features {
		fmt.Printf("answered at the nearest trained point: %s\n", at)
	}
	fmt.Printf("recommended transport: %s\n", d.Spec)
	fmt.Printf("decision time: probe=%v select=%v\n", d.ProbeTime, d.SelectTime)
	return nil
}
