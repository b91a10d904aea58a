package experiment

import (
	"fmt"

	"adamant/internal/core"
	"adamant/internal/dds"
	"adamant/internal/metrics"
	"adamant/internal/netem"
	"adamant/internal/transport"
)

// QoSOptions parameterize the QoS figure reproduction (Figures 4-17).
type QoSOptions struct {
	// Samples per run. The paper publishes 20000 samples per run; smaller
	// values preserve the metric shape proportionally faster. Default 2000.
	Samples int
	// Runs per configuration (paper: 5). Default 5.
	Runs int
	// Seed drives the run seeds. Default 1.
	Seed int64
	// Jobs is the worker-pool width for the cell x run product; <= 0
	// means GOMAXPROCS. Output is identical at any width.
	Jobs int
	// Progress, when non-nil, receives status lines.
	Progress func(format string, args ...any)
}

func (o *QoSOptions) fillDefaults() {
	if o.Samples <= 0 {
		o.Samples = 2000
	}
	if o.Runs <= 0 {
		o.Runs = 5
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Progress == nil {
		o.Progress = func(string, ...any) {}
	}
}

// The two platforms the paper's Figures 4-17 compare.
var (
	platformFast = struct {
		Machine netem.Machine
		BW      netem.Bandwidth
	}{netem.PC3000, netem.Gbps1}
	platformSlow = struct {
		Machine netem.Machine
		BW      netem.Bandwidth
	}{netem.PC850, netem.Mbps100}
)

// The two protocols the figures plot: the best NAKcast and best Ricochet
// configurations ("these were the only protocols that produced the best
// ReLate2 values for these operating environments").
func figureProtocols() []transport.Spec {
	return []transport.Spec{
		core.Candidates()[3], // nakcast(timeout=1ms)
		core.Candidates()[4], // ricochet(c=3,r=4)
	}
}

// qosKey identifies one (platform, receivers, rate, protocol) cell.
type qosKey struct {
	fast      bool
	receivers int
	rateHz    int
	protoIdx  int
}

// QoSFigures holds the runs behind Figures 4-17 so each figure is a cheap
// projection of shared data.
type QoSFigures struct {
	opts QoSOptions
	data map[qosKey][]metrics.Summary
}

// RunQoSFigures executes every run needed by Figures 4-17: both platforms,
// {3 receivers x 10/25 Hz} and {15 receivers x 10 Hz}, NAKcast-1ms and
// Ricochet-R4C3, Runs seeds each, OpenSplice-profile middleware at 5% loss.
// The cell x run product is flattened over a Jobs-wide worker pool; per-run
// seeds follow runConfigs, so the figures are identical at any worker
// count.
func RunQoSFigures(opts QoSOptions) (*QoSFigures, error) {
	opts.fillDefaults()
	q := &QoSFigures{opts: opts, data: make(map[qosKey][]metrics.Summary)}
	type cell struct {
		receivers, rate int
	}
	cells := []cell{{3, 10}, {3, 25}, {15, 10}}
	var keys []qosKey
	var cfgs []Config
	for _, fast := range []bool{true, false} {
		plat := platformSlow
		if fast {
			plat = platformFast
		}
		for _, c := range cells {
			for pi, spec := range figureProtocols() {
				cfg := Config{
					Machine:   plat.Machine,
					Bandwidth: plat.BW,
					Impl:      dds.ImplB, // OpenSplice profile, as in the figures
					LossPct:   5,
					Receivers: c.receivers,
					RateHz:    float64(c.rate),
					Samples:   opts.Samples,
					Protocol:  spec,
					Seed:      opts.Seed,
				}
				opts.Progress("running %s x%d", cfg, opts.Runs)
				keys = append(keys, qosKey{fast, c.receivers, c.rate, pi})
				cfgs = append(cfgs, runConfigs(cfg, opts.Runs)...)
			}
		}
	}
	sums, err := (&Runner{Jobs: opts.Jobs}).RunMany(cfgs)
	if err != nil {
		return nil, err
	}
	for ki, key := range keys {
		q.data[key] = sums[ki*opts.Runs : (ki+1)*opts.Runs]
	}
	return q, nil
}

// figSpec describes how one figure projects the shared data.
type figSpec struct {
	title     string
	fast      bool
	receivers int
	rates     []int
	field     func(metrics.Summary) float64
	unit      string
	note      string
}

var qosFigSpecs = map[int]figSpec{
	4: {"ReLate2: pc3000, 1Gb LAN, 3 receivers, 5% loss, 10 & 25Hz", true, 3, []int{10, 25},
		func(s metrics.Summary) float64 { return s.ReLate2 }, "ReLate2", "lower is better; Ricochet R4C3 should win"},
	5: {"ReLate2: pc850, 100Mb LAN, 3 receivers, 5% loss, 10 & 25Hz", false, 3, []int{10, 25},
		func(s metrics.Summary) float64 { return s.ReLate2 }, "ReLate2", "lower is better; NAKcast 1ms should win"},
	6: {"Reliability: pc3000, 1Gb LAN, 3 receivers, 5% loss, 10 & 25Hz", true, 3, []int{10, 25},
		metrics.Summary.Reliability, "percent", "NAKcast higher; hardware-invariant"},
	7: {"Reliability: pc850, 100Mb LAN, 3 receivers, 5% loss, 10 & 25Hz", false, 3, []int{10, 25},
		metrics.Summary.Reliability, "percent", "NAKcast higher; hardware-invariant"},
	8: {"Latency: pc3000, 1Gb LAN, 3 receivers, 5% loss, 10 & 25Hz", true, 3, []int{10, 25},
		func(s metrics.Summary) float64 { return s.AvgLatencyUs }, "us", "Ricochet lower; gap wider than on pc850"},
	9: {"Latency: pc850, 100Mb LAN, 3 receivers, 5% loss, 10 & 25Hz", false, 3, []int{10, 25},
		func(s metrics.Summary) float64 { return s.AvgLatencyUs }, "us", "gap narrower than on pc3000"},
	10: {"ReLate2Jit: pc3000, 1Gb LAN, 15 receivers, 5% loss, 10Hz", true, 15, []int{10},
		func(s metrics.Summary) float64 { return s.ReLate2Jit }, "ReLate2Jit", "lower is better; Ricochet should win every run"},
	11: {"ReLate2Jit: pc850, 100Mb LAN, 15 receivers, 5% loss, 10Hz", false, 15, []int{10},
		func(s metrics.Summary) float64 { return s.ReLate2Jit }, "ReLate2Jit", "near-tie; paper reports NAKcast winning 4 of 5 runs"},
	12: {"Latency: pc3000, 1Gb LAN, 15 receivers, 5% loss, 10Hz", true, 15, []int{10},
		func(s metrics.Summary) float64 { return s.AvgLatencyUs }, "us", "Ricochet lower"},
	13: {"Latency: pc850, 100Mb LAN, 15 receivers, 5% loss, 10Hz", false, 15, []int{10},
		func(s metrics.Summary) float64 { return s.AvgLatencyUs }, "us", "Ricochet lower"},
	14: {"Jitter: pc3000, 1Gb LAN, 15 receivers, 5% loss, 10Hz", true, 15, []int{10},
		func(s metrics.Summary) float64 { return s.JitterUs }, "us", "Ricochet lower"},
	15: {"Jitter: pc850, 100Mb LAN, 15 receivers, 5% loss, 10Hz", false, 15, []int{10},
		func(s metrics.Summary) float64 { return s.JitterUs }, "us", "Ricochet lower"},
	16: {"Reliability: pc3000, 1Gb LAN, 15 receivers, 5% loss, 10Hz", true, 15, []int{10},
		metrics.Summary.Reliability, "percent", "NAKcast higher"},
	17: {"Reliability: pc850, 100Mb LAN, 15 receivers, 5% loss, 10Hz", false, 15, []int{10},
		metrics.Summary.Reliability, "percent", "NAKcast higher"},
}

// Figure renders one of Figures 4-17 from the shared runs.
func (q *QoSFigures) Figure(num int) (Table, error) {
	spec, ok := qosFigSpecs[num]
	if !ok {
		return Table{}, fmt.Errorf("experiment: figure %d is not a QoS figure", num)
	}
	t := Table{
		ID:    fmt.Sprintf("Figure %d", num),
		Title: spec.title,
		Note:  spec.note,
	}
	t.Header = []string{"protocol", "rate"}
	for i := 0; i < q.opts.Runs; i++ {
		t.Header = append(t.Header, fmt.Sprintf("run%d (%s)", i+1, spec.unit))
	}
	t.Header = append(t.Header, "mean")
	for _, rate := range spec.rates {
		for pi, proto := range figureProtocols() {
			ss, ok := q.data[qosKey{spec.fast, spec.receivers, rate, pi}]
			if !ok {
				return Table{}, fmt.Errorf("experiment: missing data for figure %d", num)
			}
			row := []string{proto.String(), fmt.Sprintf("%dHz", rate)}
			var mean float64
			for _, s := range ss {
				v := spec.field(s)
				mean += v / float64(len(ss))
				row = append(row, formatValue(v))
			}
			row = append(row, formatValue(mean))
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

func formatValue(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.3g", v)
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// EnvironmentTable reproduces Table 1 (the environment variable space).
func EnvironmentTable() Table {
	return Table{
		ID:     "Table 1",
		Title:  "Environment Variables",
		Header: []string{"point of variability", "values"},
		Rows: [][]string{
			{"Machine type", "pc850, pc3000"},
			{"Network bandwidth", "1Gb, 100Mb, 10Mb"},
			{"DDS Implementation", "opendds-like (ImplA), opensplice-like (ImplB)"},
			{"Percent end-host network loss", "1 to 5 %"},
		},
	}
}

// ApplicationTable reproduces Table 2 (the application variable space).
func ApplicationTable() Table {
	return Table{
		ID:     "Table 2",
		Title:  "Application Variables",
		Header: []string{"point of variability", "values"},
		Rows: [][]string{
			{"Number of receiving data readers", "3 - 15"},
			{"Frequency of sending data", "10 Hz, 25 Hz, 50 Hz, 100 Hz"},
		},
	}
}
