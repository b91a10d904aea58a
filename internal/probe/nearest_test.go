package probe_test

import (
	"testing"

	"adamant/internal/core"
	"adamant/internal/dds"
	"adamant/internal/netem"
	"adamant/internal/probe"
	"adamant/internal/transport"
)

// answeredAt runs the startup flow on a host that probes as info and
// returns the trained point its features snap to.
func answeredAt(t *testing.T, info probe.Info) core.Features {
	t.Helper()
	params := core.AppParams{Receivers: 3, RateHz: 50, LossPct: 1, Impl: dds.ImplB, Metric: core.MetricReLate2}
	c, err := core.NewController(probe.StaticSource{Info: info}, selectorFunc(func(core.Features) (transport.Spec, error) {
		return transport.Spec{}, nil
	}), params)
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Decide()
	if err != nil {
		t.Fatal(err)
	}
	return d.Features.Snapped()
}

type selectorFunc func(core.Features) (transport.Spec, error)

func (f selectorFunc) Select(x core.Features) (transport.Spec, error) { return f(x) }

// TestNearestMachine: a probed CPU speed is answered at the closest of
// the trained machine profiles, pc850 or pc3000.
func TestNearestMachine(t *testing.T) {
	tests := []struct {
		mhz  float64
		want netem.Machine
	}{
		{400, netem.PC850},
		{900, netem.PC850},
		{1400, netem.PC850},
		{2800, netem.PC3000},
		{3200, netem.PC3000},
		{4800, netem.PC3000},
	}
	for _, tt := range tests {
		if got := answeredAt(t, probe.Info{CPUMHz: tt.mhz, LinkMbps: 1000}).MachineMHz; got != float64(tt.want.MHz) {
			t.Errorf("probed %v MHz answered at %v MHz, want %s", tt.mhz, got, tt.want.Name)
		}
	}
}

// TestNearestBandwidth: a probed link speed is answered at the closest
// trained LAN bandwidth; an unreported link is taken as 1 Gb.
func TestNearestBandwidth(t *testing.T) {
	tests := []struct {
		mbps int
		want netem.Bandwidth
	}{
		{0, netem.Gbps1}, // unreported: assume datacenter-grade
		{8, netem.Mbps10},
		{80, netem.Mbps100},
		{400, netem.Mbps100},
		{900, netem.Gbps1},
		{10000, netem.Gbps1},
	}
	for _, tt := range tests {
		if got := answeredAt(t, probe.Info{CPUMHz: 3000, LinkMbps: tt.mbps}).BandwidthMbps; got != float64(int64(tt.want))/1e6 {
			t.Errorf("probed %d Mbps answered at %v Mbps, want %v", tt.mbps, got, tt.want)
		}
	}
}
