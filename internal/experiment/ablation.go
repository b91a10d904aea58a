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

// Ablations isolate the design choices DESIGN.md calls out: in-order
// delivery (head-of-line blocking), the Ricochet flush timer and group
// stagger, the R/C trade-off, ACK- versus NAK-based reliability, and the
// fountain code against Ricochet under burst loss. Each study renders a
// Table in the same format as the paper figures.

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

// ablationStudy is one ablation table: its labelled variants and the row
// each variant's run renders to.
type ablationStudy struct {
	id, title, note string
	header          []string
	variants        []ablationVariant
	row             func(v ablationVariant, cfg Config, s metrics.Summary, rep NetReport) []string
}

// ablationVariant is one labelled configuration of a study. Its config sets
// Receivers, RateHz and Protocol; every study shares the rest (pc3000/1Gb,
// 5% loss, the options' samples and seed).
type ablationVariant struct {
	label string
	cfg   Config
}

func ablationRow(v ablationVariant, _ Config, s metrics.Summary, _ NetReport) []string {
	return []string{
		v.label,
		fmt.Sprintf("%.2f", s.Reliability()),
		fmt.Sprintf("%.0f", s.AvgLatencyUs),
		fmt.Sprintf("%.0f", s.JitterUs),
		fmt.Sprintf("%.0f", s.ReLate2),
	}
}

var ablationHeader = []string{"variant", "reliability %", "latency (us)", "jitter (us)", "ReLate2"}

func nakSpec(p transport.Params) transport.Spec { return transport.Spec{Name: "nakcast", Params: p} }
func ricSpec(p transport.Params) transport.Spec { return transport.Spec{Name: "ricochet", Params: p} }

// ablationStudies are the studies Ablations runs, in table order.
var ablationStudies = []ablationStudy{
	{
		// NAKcast's in-order delivery (head-of-line blocking) against an
		// unordered variant that recovers identically but delivers on arrival.
		id:     "Ablation A1",
		title:  "NAKcast in-order vs unordered delivery (pc3000/1Gb, 3 rcv, 5% loss, 25Hz)",
		note:   "head-of-line blocking is most of NAKcast's latency/jitter cost; reliability is unchanged",
		header: ablationHeader,
		variants: []ablationVariant{
			{"ordered (DDS RELIABLE semantics)", Config{Receivers: 3, RateHz: 25,
				Protocol: nakSpec(transport.Params{"timeout": "1ms"})}},
			{"unordered (deliver on arrival)", Config{Receivers: 3, RateHz: 25,
				Protocol: nakSpec(transport.Params{"timeout": "1ms", "unordered": "1"})}},
		},
		row: ablationRow,
	},
	{
		// Ricochet with and without the partial-group flush timer at a low
		// data rate, where fixed-R grouping leaves losses waiting for R packets.
		id:     "Ablation A2",
		title:  "Ricochet flush timer at low rate (pc3000/1Gb, 3 rcv, 5% loss, 10Hz)",
		note:   "without the flush, recovery waits for R=4 packets (~400ms at 10Hz)",
		header: ablationHeader,
		variants: []ablationVariant{
			{"flush 8ms (default)", Config{Receivers: 3, RateHz: 10,
				Protocol: ricSpec(transport.Params{"r": "4", "c": "3", "flush": "8ms"})}},
			{"flush disabled (fixed R groups)", Config{Receivers: 3, RateHz: 10,
				Protocol: ricSpec(transport.Params{"r": "4", "c": "3", "flush": "-1ms"})}},
		},
		row: ablationRow,
	},
	{
		// Ricochet with and without per-receiver group stagger, with the
		// flush disabled so XOR groups matter (high rate).
		id:     "Ablation A3",
		title:  "Ricochet group stagger (pc3000/1Gb, 5 rcv, 5% loss, 100Hz, flush off)",
		note:   "shifted boundaries enable double-loss cascades but dilute per-repair coverage; the net reliability effect is second-order",
		header: ablationHeader,
		variants: []ablationVariant{
			{"staggered groups (default)", Config{Receivers: 5, RateHz: 100,
				Protocol: ricSpec(transport.Params{"r": "4", "c": "3", "flush": "-1ms", "stagger": "0"})}},
			{"aligned groups", Config{Receivers: 5, RateHz: 100,
				Protocol: ricSpec(transport.Params{"r": "4", "c": "3", "flush": "-1ms", "stagger": "-1"})}},
		},
		row: ablationRow,
	},
	{
		// Ricochet's R and C tunables, with the repair traffic beside the
		// QoS outcome.
		id:       "Ablation A4",
		title:    "Ricochet R/C sweep (pc3000/1Gb, 5 rcv, 5% loss, 100Hz, flush off)",
		note:     "higher R: less repair traffic, weaker recovery; higher C: more fan-out, stronger recovery",
		header:   append(append([]string{}, ablationHeader...), "total pkts tx"),
		variants: rcSweep([][2]int{{2, 3}, {4, 1}, {4, 3}, {8, 3}}),
		row: func(v ablationVariant, cfg Config, s metrics.Summary, rep NetReport) []string {
			return append(ablationRow(v, cfg, s, rep), fmt.Sprintf("%d", rep.TotalTx()))
		},
	},
	{
		// Positive- against negative-acknowledgment reliability as the
		// receiver set grows: the ACK-implosion argument for NAK/FEC
		// protocols in DRE pub/sub.
		id:       "Ablation A5",
		title:    "ACK- vs NAK-based reliability as receivers scale (pc3000/1Gb, 5% loss, 50Hz)",
		note:     "ackcast's transmit count grows ~linearly with receivers (one ACK per sample per receiver)",
		header:   []string{"protocol", "receivers", "reliability %", "latency (us)", "control+data pkts tx", "pkts/sample"},
		variants: ackVsNak([]int{3, 9, 15}),
		row: func(_ ablationVariant, cfg Config, s metrics.Summary, rep NetReport) []string {
			return []string{
				cfg.Protocol.Name,
				fmt.Sprintf("%d", cfg.Receivers),
				fmt.Sprintf("%.2f", s.Reliability()),
				fmt.Sprintf("%.0f", s.AvgLatencyUs),
				fmt.Sprintf("%d", rep.TotalTx()),
				fmt.Sprintf("%.2f", float64(rep.TotalTx())/float64(cfg.Samples)),
			}
		},
	},
}

func rcSweep(rcs [][2]int) []ablationVariant {
	var vs []ablationVariant
	for _, rc := range rcs {
		vs = append(vs, ablationVariant{fmt.Sprintf("R=%d C=%d", rc[0], rc[1]), Config{Receivers: 5, RateHz: 100,
			Protocol: ricSpec(transport.Params{"r": fmt.Sprintf("%d", rc[0]), "c": fmt.Sprintf("%d", rc[1]), "flush": "-1ms"})}})
	}
	return vs
}

func ackVsNak(receivers []int) []ablationVariant {
	var vs []ablationVariant
	for _, n := range receivers {
		for _, spec := range []transport.Spec{
			nakSpec(transport.Params{"timeout": "1ms"}),
			{Name: "ackcast", Params: transport.Params{"rto": "50ms"}},
		} {
			vs = append(vs, ablationVariant{spec.Name, Config{Receivers: n, RateHz: 50, Protocol: spec}})
		}
	}
	return vs
}

// Ablations runs every ablation study.
func Ablations(opts AblationOptions) ([]Table, error) {
	tables, err := runAblations(opts, ablationStudies...)
	if err != nil {
		return nil, err
	}
	burst, err := burstAblation(opts)
	if err != nil {
		return nil, err
	}
	return append(tables, burst), nil
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

// runAblations runs every variant of the given studies through one Runner
// batch (each config carries its own seed, so the batch's composition does
// not move any run) and renders one table per study.
func runAblations(opts AblationOptions, studies ...ablationStudy) ([]Table, error) {
	opts.fillDefaults()
	var cfgs []Config
	for _, st := range studies {
		for _, v := range st.variants {
			cfg := v.cfg
			cfg.Machine, cfg.Bandwidth, cfg.LossPct = netem.PC3000, netem.Gbps1, 5
			cfg.Samples, cfg.Seed = opts.Samples, opts.Seed
			cfgs = append(cfgs, cfg)
		}
	}
	sums, reports, err := (&Runner{Jobs: opts.Jobs}).RunManyDetailed(cfgs)
	if err != nil {
		return nil, err
	}
	tables := make([]Table, len(studies))
	i := 0
	for k, st := range studies {
		tables[k] = Table{ID: st.id, Title: st.title, Header: st.header, Note: st.note}
		for _, v := range st.variants {
			tables[k].Rows = append(tables[k].Rows, st.row(v, cfgs[i], sums[i], reports[i]))
			i++
		}
	}
	return tables, nil
}
