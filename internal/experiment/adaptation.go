package experiment

// The adaptation figure closes the loop the paper leaves as future work:
// "when the system detects environmental changes... supervised machine
// learning can provide guidance to support QoS for the new configuration".
// A drifting environment (the workload's rate and the network's loss change
// mid-run) is driven twice: once per candidate protocol held fixed for the
// whole run (the best any static configuration can do), and once with the
// in-mission Adaptor re-querying the knowledge base when the drift crosses
// its tolerances and hot-swapping the transport through Participant.Rebind.
// The figure reports the composite QoS score of every static run against
// the adaptive run, plus the cost of adapting: the Rebind apply time and
// how long each superseded transport generation took to drain on the
// slowest receiver.

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"adamant/internal/core"
	"adamant/internal/dds"
	"adamant/internal/metrics"
	"adamant/internal/netem"
	"adamant/internal/sim"
	"adamant/internal/transport"
)

// DriftPhase is one leg of a drifting environment: the writer publishes
// Samples samples at RateHz while every receiver sees LossPct end-host
// loss. Consecutive phases model the environmental change the adaptor is
// meant to notice.
type DriftPhase struct {
	Samples int
	RateHz  float64
	LossPct float64
}

func (p DriftPhase) period() time.Duration {
	return time.Duration(float64(time.Second) / p.RateHz)
}

// AdaptationConfig describes the drifting-environment experiment.
type AdaptationConfig struct {
	Machine      netem.Machine
	Bandwidth    netem.Bandwidth
	Impl         dds.Impl
	Receivers    int
	PayloadBytes int
	Metric       core.Metric
	Seed         int64
	// Phases is the drift script, played in order. At each phase boundary
	// the publish rate changes and every receiver's loss is re-set.
	Phases []DriftPhase
	// Interval and Cooldown tune the in-mission Adaptor.
	Interval time.Duration
	Cooldown time.Duration
}

func (c *AdaptationConfig) fillDefaults() {
	if c.Machine.Name == "" {
		c.Machine = netem.PC3000
	}
	if c.Bandwidth == 0 {
		c.Bandwidth = netem.Gbps1
	}
	if c.Receivers == 0 {
		c.Receivers = 3
	}
	if c.PayloadBytes == 0 {
		c.PayloadBytes = 12
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.Phases) == 0 {
		// A calm high-rate start (any NAKcast wins: no loss, nothing to
		// repair), then the network degrades while the application slows —
		// the regime where Ricochet's proactive FEC beats reactive NAK
		// repair (the paper's Figure 4 environment). The two phases have
		// different winners, so a static choice must lose one of them.
		c.Phases = []DriftPhase{
			{Samples: 600, RateHz: 50, LossPct: 0},
			{Samples: 600, RateHz: 25, LossPct: 5},
		}
	}
	if c.Interval <= 0 {
		c.Interval = 50 * time.Millisecond
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 250 * time.Millisecond
	}
}

// validate checks each phase as a steady run with Config.Validate.
func (c AdaptationConfig) validate() error {
	if len(c.Phases) < 1 {
		return errors.New("experiment: adaptation needs at least one phase")
	}
	for i, p := range c.Phases {
		if err := c.cell(p, transport.Spec{}, 0).Validate(); err != nil {
			return fmt.Errorf("adaptation phase %d: %w", i, err)
		}
	}
	return nil
}

// cell is phase p held steady as one run of spec; the drift runs start
// from phase 0's.
func (c AdaptationConfig) cell(p DriftPhase, spec transport.Spec, seed int64) Config {
	return Config{
		Machine: c.Machine, Bandwidth: c.Bandwidth, Impl: c.Impl,
		LossPct: p.LossPct, Receivers: c.Receivers, RateHz: p.RateHz,
		Samples: p.Samples, PayloadBytes: c.PayloadBytes, Protocol: spec, Seed: seed,
	}
}

func (c AdaptationConfig) features(p DriftPhase) core.Features {
	return core.FeaturesFor(c.Machine, c.Bandwidth, c.Impl,
		p.LossPct, c.Receivers, p.RateHz, c.Metric)
}

// AdaptationRow is one contender's result over the full drifting run.
type AdaptationRow struct {
	Label   string
	Spec    transport.Spec // zero-valued for the adaptive row
	Summary metrics.Summary
	Score   float64 // lower is better (ReLate2 family)
}

// AdaptationReport is everything the adaptation figure shows.
type AdaptationReport struct {
	Config AdaptationConfig
	// Picks[k] is the knowledge base's choice for phase k: the adaptive
	// run boots on Picks[0] and is expected to switch when they differ.
	Picks []transport.Spec
	// Static holds one row per candidate protocol held fixed across the
	// whole drift, in Candidates() order; BestStatic indexes the winner.
	Static     []AdaptationRow
	BestStatic int
	Adaptive   AdaptationRow
	// Switches are the live reconfigurations the adaptive run performed;
	// ApplyTime is the host-clock cost of each Participant.Rebind call.
	// SwitchAt[k] is switch k's simulation time relative to run start.
	Switches []core.SwitchRecord
	SwitchAt []time.Duration
	// DrainLatencyMax[k] is how long superseded transport generation k took
	// to finish delivering on the slowest receiver after its handoff — the
	// tail of the reconfiguration cost.
	DrainLatencyMax []time.Duration
}

// AdaptiveWins reports whether the adaptive run scored at least as well as
// the best static run, within tolerance (a fraction: 0.05 allows adaptive
// to be up to 5% worse — switch transients are not free).
func (r AdaptationReport) AdaptiveWins(tolerance float64) bool {
	if len(r.Static) == 0 {
		return false
	}
	return r.Adaptive.Score <= r.Static[r.BestStatic].Score*(1+tolerance)
}

// String renders the figure as a text table.
func (r AdaptationReport) String() string {
	var b strings.Builder
	metric := "ReLate2"
	if r.Config.Metric == core.MetricReLate2Jit {
		metric = "ReLate2Jit"
	}
	fmt.Fprintf(&b, "adaptation figure: %d-phase drift, %s (lower is better)\n", len(r.Config.Phases), metric)
	for i, p := range r.Config.Phases {
		fmt.Fprintf(&b, "  phase %d: %d samples @ %gHz, %g%% loss  (ANN picks %s)\n",
			i, p.Samples, p.RateHz, p.LossPct, r.Picks[i])
	}
	for i, row := range r.Static {
		mark := "  "
		if i == r.BestStatic {
			mark = "* "
		}
		fmt.Fprintf(&b, "  %sstatic %-28s %-10s %10.1f  rel=%.2f%% lat=%.0fus\n",
			mark, row.Label, metric, row.Score, row.Summary.Reliability(), row.Summary.AvgLatencyUs)
	}
	fmt.Fprintf(&b, "  > adaptive %-26s %-10s %10.1f  rel=%.2f%% lat=%.0fus\n",
		r.Adaptive.Label, metric, r.Adaptive.Score, r.Adaptive.Summary.Reliability(), r.Adaptive.Summary.AvgLatencyUs)
	for i, sw := range r.Switches {
		drain := time.Duration(0)
		if i < len(r.DrainLatencyMax) {
			drain = r.DrainLatencyMax[i]
		}
		at := time.Duration(0)
		if i < len(r.SwitchAt) {
			at = r.SwitchAt[i]
		}
		fmt.Fprintf(&b, "  switch %d: -> %s at t=%v (apply %v, old generation drained in %v)\n",
			i, sw.Spec, at, sw.ApplyTime, drain)
	}
	return b.String()
}

// RunAdaptationFigure runs the whole figure: one full drifting run per
// static candidate, and one adaptive run that queries sel — the shipped
// ANN — at boot and on every drift.
func RunAdaptationFigure(cfg AdaptationConfig, sel core.Selector) (AdaptationReport, error) {
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return AdaptationReport{}, err
	}
	report := AdaptationReport{Config: cfg}
	for i, p := range cfg.Phases {
		spec, err := sel.Select(cfg.features(p))
		if err != nil {
			return AdaptationReport{}, fmt.Errorf("selecting for phase %d: %w", i, err)
		}
		report.Picks = append(report.Picks, spec)
	}

	// Both drift runs play the whole script from phase 0's steady cell, on a
	// seed drawn from the spec they boot on.
	drift := func(spec transport.Spec, adapt *adaptation) (cellResult, error) {
		seed := sim.DeriveSeed(cfg.Seed, "adapt-drift-"+spec.String())
		return runCell(cfg.cell(cfg.Phases[0], spec, seed), cfg.Phases, adapt)
	}

	// Static baselines: every candidate rides out the full drift unchanged.
	for ci, spec := range core.Candidates() {
		res, err := drift(spec, nil)
		if err != nil {
			return AdaptationReport{}, fmt.Errorf("static %s: %w", spec, err)
		}
		row := AdaptationRow{Label: spec.String(), Spec: spec,
			Summary: res.summary, Score: Score(res.summary, cfg.Metric)}
		report.Static = append(report.Static, row)
		if row.Score < report.Static[report.BestStatic].Score {
			report.BestStatic = ci
		}
	}

	// The adaptive run: boot on phase 0's pick, let the adaptor re-query the
	// selector when the environment drifts and hot-swap the live writers.
	res, err := drift(report.Picks[0], &adaptation{
		selector: sel,
		initial:  cfg.features(cfg.Phases[0]),
		opts:     core.AdaptorOptions{Interval: cfg.Interval, Cooldown: cfg.Cooldown},
	})
	if err != nil {
		return AdaptationReport{}, fmt.Errorf("adaptive run: %w", err)
	}
	report.Adaptive = AdaptationRow{Label: "(shipped ANN)",
		Summary: res.summary, Score: Score(res.summary, cfg.Metric)}
	report.Switches = res.switches
	report.SwitchAt = res.switchAt
	report.DrainLatencyMax = res.drains
	return report, nil
}
