package experiment

import (
	"fmt"
	"strconv"

	"adamant/internal/dds"
	"adamant/internal/metrics"
	"adamant/internal/netem"
	"adamant/internal/transport"
	"adamant/internal/transport/fountcast"
	"adamant/internal/transport/ricochet"
)

// Ablations isolate a design choice DESIGN.md calls out: the fountain code
// against Ricochet under burst loss, rendered as a Table in the same format
// as the paper figures. Its ID stays A6, so results and docs keep citing it
// by the same name; A1-A5 studied modes and tunables the transports no
// longer have (EXPERIMENTS.md, "Beyond the paper").

// AblationOptions parameterize the ablation studies.
type AblationOptions struct {
	Samples int   // default 1500
	Seed    int64 // default 1
	Jobs    int   // worker-pool width; <= 0 means GOMAXPROCS
}

func (o *AblationOptions) fillDefaults() {
	if o.Samples <= 0 {
		o.Samples = 1500
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Ablations runs every ablation study.
func Ablations(opts AblationOptions) ([]Table, error) {
	burst, err := burstAblation(opts)
	if err != nil {
		return nil, err
	}
	return []Table{burst}, nil
}

// burstAblation is Ablation A6: fountcast against ricochet under
// Gilbert-Elliott burst loss at matched bandwidth overhead. Correlated
// multi-packet bursts defeat ricochet's one-XOR-per-panel repair, while the
// fountain code spends the same repair bandwidth as freely combinable
// symbols. Matched overhead is measured in two passes: bemcast (no repair
// traffic) is the zero-overhead byte baseline and ricochet's byte overhead
// over it the budget; a probe run at oh=100 measures fountcast's bytes per
// overhead point (repair framing differs from data framing, so the
// configured rate and the byte ratio are not identical), and the rate is
// rescaled to land on ricochet's byte total. The 100 Hz rate keeps the
// fountain's block-fill delay (K x period) small against the loss penalty.
func burstAblation(opts AblationOptions) (Table, error) {
	opts.fillDefaults()
	const probeOh = 100
	fountSpec := func(oh int) transport.Spec {
		spec := fountcast.Spec(4, oh)
		spec.Params["hold"] = "15ms"
		return spec
	}
	labels := []string{"baseline", "ricochet", "fountcast probe", "fountcast matched"}
	cfgs := make([]Config, len(labels))
	for i, spec := range []transport.Spec{{Name: "bemcast"}, ricochet.Spec(4, 3), fountSpec(probeOh)} {
		cfgs[i] = Config{Machine: netem.PC3000, Bandwidth: netem.Gbps1, Impl: dds.ImplB,
			BurstPGB: 0.013, BurstPBG: 0.25, BurstDropBad: 1, Receivers: 3, RateHz: 100,
			Samples: opts.Samples, Seed: opts.Seed, Protocol: spec}
	}
	sums, err := (&Runner{Jobs: opts.Jobs}).RunMany(cfgs[:3])
	if err != nil {
		return Table{}, err
	}
	overhead := func(s metrics.Summary) float64 {
		return 100 * (float64(s.Bytes) - float64(sums[0].Bytes)) / float64(sums[0].Bytes)
	}
	oh := probeOh
	if p := overhead(sums[2]); p > 0 {
		oh = int(probeOh*overhead(sums[1])/p + 0.5)
	}
	cfgs[3] = cfgs[2]
	cfgs[3].Protocol = fountSpec(min(max(oh, 1), fountcast.MaxOverheadPct))
	matched, err := Run(cfgs[3])
	if err != nil {
		return Table{}, err
	}
	sums = append(sums, matched)
	tab := Table{
		ID:     "Ablation A6",
		Title:  "Fountcast vs Ricochet under burst loss at matched byte overhead (pc3000/1Gb, 3 rcv, Gilbert-Elliott pGB=0.013 pBG=0.25, 100Hz)",
		Note:   "overhead is bytes over the bemcast baseline; the probe's slope rescales fountcast's oh to ricochet's byte total",
		Header: []string{"variant", "protocol", "reliability %", "latency (us)", "ReLate2", "bytes", "overhead %"},
	}
	for i, s := range sums {
		tab.Rows = append(tab.Rows, []string{
			labels[i],
			cfgs[i].Protocol.String(),
			fmt.Sprintf("%.2f", s.Reliability()),
			fmt.Sprintf("%.0f", s.AvgLatencyUs),
			fmt.Sprintf("%.0f", s.ReLate2),
			strconv.FormatUint(s.Bytes, 10),
			fmt.Sprintf("%.1f", overhead(s)),
		})
	}
	return tab, nil
}
