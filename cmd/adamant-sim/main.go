// Command adamant-sim runs one experiment configuration on the
// deterministic cloud emulator and prints the full QoS scorecard —
// the quickest way to poke at a "what if" without editing the harness.
//
//	adamant-sim -machine pc850 -bw 100Mb -loss 5 -receivers 3 -rate 10 \
//	            -proto 'ricochet(r=4,c=3)' -samples 2000
//	adamant-sim -sweep    # all seven candidate protocols on one environment
//	adamant-sim -storm -shards 8   # 1000-receiver multicast storm, sharded engine
//	adamant-sim -receivers 500 -shards 4 -proto bemcast   # any config, sharded
package main

import (
	"flag"
	"fmt"
	"os"

	"adamant/internal/core"
	"adamant/internal/dds"
	"adamant/internal/experiment"
	"adamant/internal/metrics"
	"adamant/internal/netem"
	"adamant/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "adamant-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		machine   = flag.String("machine", "pc3000", "machine type: pc850|pc3000")
		bw        = flag.String("bw", "1Gb", "LAN bandwidth: 10Mb|100Mb|1Gb")
		implName  = flag.String("impl", "opensplice", "middleware profile: opendds|opensplice")
		loss      = flag.Float64("loss", 5, "end-host loss percent")
		receivers = flag.Int("receivers", 3, "data readers")
		rate      = flag.Float64("rate", 25, "sending rate, Hz")
		samples   = flag.Int("samples", 2000, "samples to publish")
		protoStr  = flag.String("proto", "nakcast(timeout=1ms)", "transport spec")
		seed      = flag.Int64("seed", 1, "simulation seed")
		runs      = flag.Int("runs", 1, "runs per protocol, at seeds seed..seed+runs-1, one summary each")
		sweep     = flag.Bool("sweep", false, "run all seven ADAMANT candidates instead of -proto")
		shards    = flag.Int("shards", 0, "run on the sharded engine with this many workers (0 = serial kernel)")
		storm     = flag.Bool("storm", false, "multicast-storm preset: 1000 bemcast receivers at 100Hz (override with -receivers etc.)")
	)
	flag.Parse()
	if *storm {
		preset := experiment.Storm(1000, *shards, *seed)
		setIfDefault := func(name string, f func()) {
			if fl := flag.Lookup(name); fl != nil && fl.Value.String() == fl.DefValue {
				f()
			}
		}
		setIfDefault("bw", func() { *bw = preset.Bandwidth.String() })
		setIfDefault("loss", func() { *loss = preset.LossPct })
		setIfDefault("receivers", func() { *receivers = preset.Receivers })
		setIfDefault("rate", func() { *rate = preset.RateHz })
		setIfDefault("samples", func() { *samples = preset.Samples })
		setIfDefault("proto", func() { *protoStr = preset.Protocol.String() })
		setIfDefault("shards", func() { *shards = 8 })
	}

	m, err := netem.MachineByName(*machine)
	if err != nil {
		return err
	}
	b, err := netem.BandwidthByName(*bw)
	if err != nil {
		return err
	}
	impl, err := dds.ImplByName(*implName)
	if err != nil {
		return err
	}
	cfg := experiment.Config{
		Machine: m, Bandwidth: b, Impl: impl, LossPct: *loss,
		Receivers: *receivers, RateHz: *rate, Samples: *samples, Seed: *seed,
		Shards: *shards,
	}

	specs := []transport.Spec{}
	if *sweep {
		specs = core.Candidates()
	} else {
		spec, err := transport.ParseSpec(*protoStr)
		if err != nil {
			return err
		}
		specs = append(specs, spec)
	}

	engine := "serial kernel"
	if *shards > 0 {
		engine = fmt.Sprintf("sharded x%d", *shards)
	}
	fmt.Printf("environment: %s/%s/%s loss=%g%% receivers=%d rate=%gHz samples=%d seed=%d engine=%s\n\n",
		m.Name, b, impl, *loss, *receivers, *rate, *samples, *seed, engine)
	for _, spec := range specs {
		cfg.Protocol = spec
		fmt.Printf("%s\n", spec)
		for i := 0; i < *runs; i++ {
			runCfg := cfg
			if *runs > 1 {
				runCfg.Seed = cfg.Seed + int64(i)
			}
			s, report, err := experiment.RunDetailed(runCfg)
			if err != nil {
				return err
			}
			printSummary(s, report)
		}
		fmt.Println()
	}
	return nil
}

func printSummary(s metrics.Summary, r experiment.NetReport) {
	fmt.Printf("  reliability %7.3f%%   delivered %d/%d (recovered %d, lost-reported %d)\n",
		s.Reliability(), s.Delivered, s.Sent, s.Recovered, s.Sent-s.Delivered)
	fmt.Printf("  latency avg %8.0fus  p50 %8.0fus  p95 %8.0fus  p99 %8.0fus  max %8.0fus\n",
		s.AvgLatencyUs, s.P50LatencyUs, s.P95LatencyUs, s.P99LatencyUs, s.MaxLatencyUs)
	fmt.Printf("  jitter      %8.0fus  burstiness %.0f B/s  avg bw %.0f B/s\n",
		s.JitterUs, s.BurstinessBps, s.AvgBps)
	fmt.Printf("  ReLate2 %12.0f   ReLate2Jit %12.4g\n", s.ReLate2, s.ReLate2Jit)
	fmt.Printf("  traffic: writer tx %d pkts; total tx %d pkts (%.2f pkts/sample)\n",
		r.Writer.TxPackets, r.TotalTx(), float64(r.TotalTx())/float64(s.Sent)*float64(len(r.Readers)))
}
