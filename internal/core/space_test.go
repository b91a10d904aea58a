package core_test

import (
	"math/rand"
	"testing"
	"time"

	"adamant/internal/core"
	"adamant/internal/dds"
	"adamant/internal/experiment"
	"adamant/internal/netem"
)

func shippedSelector(t *testing.T) *core.ANNSelector {
	t.Helper()
	sel, err := core.LoadANNSelector("../../data/adamant.ann")
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

// TestSnapped maps points off the trained grid onto it: the nearest
// machine, bandwidth, receiver count and rate (a tie to the lower value),
// loss clamped to 1-5 %, an unreported link taken as 1 Gb. The shipped
// model answers every row for its snapped point; on a 5 GHz machine that
// is pc3000's nakcast(timeout=1ms), where extrapolating the machine axis
// picked ricochet(c=3,r=4).
func TestSnapped(t *testing.T) {
	base := core.FeaturesFor(netem.PC3000, netem.Gbps1, dds.ImplB, 1, 3, 50, core.MetricReLate2)
	with := func(set func(*core.Features)) core.Features {
		f := base
		set(&f)
		return f
	}
	mhz := func(v float64) func(*core.Features) { return func(f *core.Features) { f.MachineMHz = v } }
	bw := func(v float64) func(*core.Features) { return func(f *core.Features) { f.BandwidthMbps = v } }
	loss := func(v float64) func(*core.Features) { return func(f *core.Features) { f.LossPct = v } }
	recv := func(v int) func(*core.Features) { return func(f *core.Features) { f.Receivers = v } }
	rate := func(v float64) func(*core.Features) { return func(f *core.Features) { f.RateHz = v } }
	tests := []struct {
		name     string
		in, want core.Features
		pick     string // the shipped model's answer, when the row pins it
	}{
		{"pc5000", with(mhz(5000)), base, "nakcast(timeout=1ms)"},
		{"400MHz", with(mhz(400)), with(mhz(850)), ""},
		{"900MHz", with(mhz(900)), with(mhz(850)), ""},
		{"1400MHz", with(mhz(1400)), with(mhz(850)), ""},
		{"1925MHz tie", with(mhz(1925)), with(mhz(850)), ""},
		{"2800MHz", with(mhz(2800)), base, ""},
		{"3200MHz", with(mhz(3200)), base, ""},
		{"4800MHz", with(mhz(4800)), base, ""},
		{"0Mbps unreported", with(bw(0)), base, ""},
		{"8Mbps", with(bw(8)), with(bw(10)), ""},
		{"80Mbps", with(bw(80)), with(bw(100)), ""},
		{"400Mbps", with(bw(400)), with(bw(100)), ""},
		{"900Mbps", with(bw(900)), base, ""},
		{"10000Mbps", with(bw(10000)), base, ""},
		{"0% loss", with(loss(0)), base, ""},
		{"2.5% loss", with(loss(2.5)), with(loss(2.5)), ""},
		{"9% loss", with(loss(9)), with(loss(5)), ""},
		{"1 receiver", with(recv(1)), base, ""},
		{"4 receivers", with(recv(4)), base, ""},
		{"5 receivers", with(recv(5)), with(recv(6)), ""},
		{"40 receivers", with(recv(40)), with(recv(15)), ""},
		{"17.5Hz tie", with(rate(17.5)), with(rate(10)), ""},
		{"37Hz", with(rate(37)), with(rate(25)), ""},
		{"400Hz", with(rate(400)), with(rate(100)), ""},
	}
	sel := shippedSelector(t)
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.in.Snapped(); got != tt.want {
				t.Errorf("Snapped(%s) = %s, want %s", tt.in, got, tt.want)
			}
			got, err := sel.Select(tt.in)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sel.Select(tt.want)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Errorf("Select(%s) = %s, Select(%s) = %s", tt.in, got, tt.want, want)
			}
			if tt.pick != "" && got.String() != tt.pick {
				t.Errorf("Select(%s) = %s, want %s", tt.in, got, tt.pick)
			}
		})
	}
}

// TestSnappedProperty: for random finite Features, Snapped is a point of
// experiment.FullSpace with loss in 1-5 %, snapping it again changes
// nothing, and the shipped model gives it the answer it gives the original.
func TestSnappedProperty(t *testing.T) {
	type point struct {
		mhz, mbps float64
		impl      dds.Impl
		receivers int
		rateHz    float64
	}
	space := map[point]bool{}
	for _, e := range experiment.FullSpace() {
		space[point{float64(e.Machine.MHz), float64(int64(e.Bandwidth)) / 1e6, e.Impl, e.Receivers, e.RateHz}] = true
	}
	sel := shippedSelector(t)
	rng := rand.New(rand.NewSource(1))
	span := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }
	for i := 0; i < 5000; i++ {
		f := core.Features{
			MachineMHz:    span(-1e4, 1e5),
			BandwidthMbps: span(-1e3, 1e5),
			Impl:          dds.Impls()[rng.Intn(2)],
			LossPct:       span(-20, 120),
			Receivers:     rng.Intn(2000) - 500,
			RateHz:        span(-100, 1e4),
			Metric:        core.Metrics()[rng.Intn(2)],
			OverheadPct:   25,
		}
		s := f.Snapped()
		if !space[point{s.MachineMHz, s.BandwidthMbps, s.Impl, s.Receivers, s.RateHz}] ||
			s.LossPct < core.MinLossPct || s.LossPct > core.MaxLossPct {
			t.Fatalf("Snapped(%s) = %s, not a point of FullSpace", f, s)
		}
		if again := s.Snapped(); again != s {
			t.Fatalf("Snapped(%s) = %s, but Snapped(%s) = %s", f, s, s, again)
		}
		a, err := sel.Select(f)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sel.Select(s)
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("Select(%s) = %s, Select(%s) = %s", f, a, s, b)
		}
	}
}

// TestAdaptorDriftInsideGridCell: the adaptor re-queries only when the
// snapped receivers or rate move. 4 receivers at 35 Hz snap to the 3 at
// 25 Hz it was configured for; 40 Hz snaps to 50.
func TestAdaptorDriftInsideGridCell(t *testing.T) {
	k, a, obs, _ := newAdaptorHarness(t, core.AdaptorOptions{
		Interval: 100 * time.Millisecond, Cooldown: time.Millisecond,
	})
	obs.Receivers, obs.RateHz = 4, 35
	if err := k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if n := a.Stats().Triggers; n != 0 {
		t.Errorf("Triggers = %d inside the configured grid cell", n)
	}
	obs.RateHz = 40
	if err := k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if a.Stats().Triggers == 0 {
		t.Error("a move to the next rate cell did not trigger")
	}
	if got := a.Current(); got.Receivers != 4 || got.RateHz != 40 {
		t.Errorf("Current() = %s, want the observation as asked", got)
	}
}
