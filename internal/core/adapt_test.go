package core_test

import (
	"testing"
	"time"

	"adamant/internal/core"
	"adamant/internal/dds"
	"adamant/internal/env"
	"adamant/internal/netem"
	"adamant/internal/sim"
	"adamant/internal/transport"
)

// flipSelector returns nakcast below the receiver threshold and ricochet at
// or above it — a deterministic stand-in for the trained ANN.
type flipSelector struct{ threshold int }

func (s flipSelector) Select(f core.Features) (transport.Spec, error) {
	if f.Receivers >= s.threshold {
		return core.Candidates()[4], nil
	}
	return core.Candidates()[3], nil
}

func newAdaptorHarness(t *testing.T, opts core.AdaptorOptions) (*sim.Kernel, *core.Adaptor,
	*core.Observation, *[]core.Decision) {
	t.Helper()
	k := sim.New(1)
	e := env.NewSim(k)
	obs := &core.Observation{Receivers: 3, RateHz: 25, LossPct: 2}
	initial := core.Decision{
		Features: core.FeaturesFor(netem.PC3000, netem.Gbps1, dds.ImplB, 2, 3, 25, core.MetricReLate2),
		Spec:     core.Candidates()[3],
	}
	var decisions []core.Decision
	a, err := core.NewAdaptor(e, flipSelector{threshold: 10}, initial,
		func() core.Observation { return *obs },
		func(d core.Decision) { decisions = append(decisions, d) },
		opts)
	if err != nil {
		t.Fatal(err)
	}
	return k, a, obs, &decisions
}

func TestAdaptorStableEnvironmentNoChanges(t *testing.T) {
	k, a, _, decisions := newAdaptorHarness(t, core.AdaptorOptions{Interval: 100 * time.Millisecond})
	if err := k.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(*decisions) != 0 {
		t.Errorf("reconfigured %d times in a stable environment", len(*decisions))
	}
	st := a.Stats()
	if st.Checks < 40 {
		t.Errorf("Checks = %d, want ~50", st.Checks)
	}
	if st.Triggers != 0 {
		t.Errorf("Triggers = %d in stable environment", st.Triggers)
	}
}

func TestAdaptorReconfiguresOnReceiverGrowth(t *testing.T) {
	k, a, obs, decisions := newAdaptorHarness(t, core.AdaptorOptions{
		Interval: 100 * time.Millisecond, Cooldown: time.Second,
	})
	if err := k.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The datacenter scales out: many more readers join.
	obs.Receivers = 15
	if err := k.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(*decisions) != 1 {
		t.Fatalf("decisions = %d, want 1", len(*decisions))
	}
	d := (*decisions)[0]
	if d.Spec.Name != "ricochet" {
		t.Errorf("new spec = %s, want ricochet above threshold", d.Spec)
	}
	if d.Features.Receivers != 15 {
		t.Errorf("features.Receivers = %d", d.Features.Receivers)
	}
	if a.Current().Receivers != 15 {
		t.Errorf("Current() not updated: %+v", a.Current())
	}
}

func TestAdaptorDriftWithoutProtocolChange(t *testing.T) {
	// Rate doubles, but the selector still answers nakcast: features update,
	// no reconfigure callback.
	k, a, obs, decisions := newAdaptorHarness(t, core.AdaptorOptions{
		Interval: 100 * time.Millisecond, Cooldown: time.Second,
	})
	if err := k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	obs.RateHz = 100
	if err := k.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(*decisions) != 0 {
		t.Errorf("reconfigured despite same protocol: %v", *decisions)
	}
	if a.Current().RateHz != 100 {
		t.Errorf("Current().RateHz = %v, want 100", a.Current().RateHz)
	}
	if a.Stats().Triggers == 0 {
		t.Error("drift not detected")
	}
}

func TestAdaptorCooldownSuppressesFlapping(t *testing.T) {
	k, a, obs, decisions := newAdaptorHarness(t, core.AdaptorOptions{
		Interval: 100 * time.Millisecond, Cooldown: time.Hour,
	})
	if err := k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	obs.Receivers = 15
	if err := k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	obs.Receivers = 3
	if err := k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	// Initial change allowed (lastChange set at construction + 1h cooldown
	// means nothing may change at all within the hour).
	if got := a.Stats().Suppressed; got == 0 {
		t.Error("cooldown never suppressed")
	}
	if len(*decisions) != 0 {
		t.Errorf("decisions = %d, want 0 under hour-long cooldown", len(*decisions))
	}
}

// TestAdaptorSameSpecDecisionKeepsCooldownClock is the regression test for
// a cooldown bookkeeping bug: a drift that re-selected the SAME protocol
// used to rebase lastChange, so a stream of same-spec decisions could
// postpone a genuinely needed switch indefinitely.
func TestAdaptorSameSpecDecisionKeepsCooldownClock(t *testing.T) {
	k, a, obs, decisions := newAdaptorHarness(t, core.AdaptorOptions{
		Interval: 100 * time.Millisecond, Cooldown: time.Second,
	})
	if err := k.RunFor(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Rate drifts but the selector still answers nakcast. Ticks inside the
	// cooldown window suppress; the first tick after t=1s applies the
	// same-spec decision — which must NOT reset the cooldown clock.
	obs.RateHz = 100
	if err := k.RunFor(700 * time.Millisecond); err != nil { // t = 1.2s
		t.Fatal(err)
	}
	if len(*decisions) != 0 {
		t.Fatalf("same-spec drift reconfigured: %v", *decisions)
	}
	if a.Current().RateHz != 100 {
		t.Fatalf("baseline not rebased after same-spec decision: %+v", a.Current())
	}
	// Receivers now jump past the selector threshold. The last actual
	// reconfigure was at t=0, so the switch is due immediately.
	obs.Receivers = 15
	if err := k.RunFor(300 * time.Millisecond); err != nil { // t = 1.5s
		t.Fatal(err)
	}
	if len(*decisions) != 1 {
		t.Fatalf("decisions = %d, want 1 (cooldown clock was rebased by a same-spec decision)",
			len(*decisions))
	}
	if (*decisions)[0].Spec.Name != "ricochet" {
		t.Errorf("switched to %s, want ricochet", (*decisions)[0].Spec)
	}
}

// Loss drifts past its 1-percentage-point tolerance; the rate has no
// tolerance of its own, so a reading that snaps to the same trained rate
// does not count as drift.
func TestAdaptorLossDrift(t *testing.T) {
	k, a, obs, _ := newAdaptorHarness(t, core.AdaptorOptions{
		Interval: 100 * time.Millisecond, Cooldown: time.Millisecond,
	})
	if err := k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	obs.LossPct = 2.5 // within tolerance
	obs.RateHz = 30   // snaps to the trained 25 Hz
	if err := k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if a.Stats().Triggers != 0 {
		t.Error("sub-tolerance loss drift triggered")
	}
	obs.LossPct = 4.5 // outside tolerance
	if err := k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if a.Stats().Triggers == 0 {
		t.Error("loss drift not detected")
	}
	if a.Current().LossPct != 4.5 {
		t.Errorf("Current().LossPct = %v", a.Current().LossPct)
	}
}

func TestAdaptorClose(t *testing.T) {
	k, a, obs, decisions := newAdaptorHarness(t, core.AdaptorOptions{Interval: 100 * time.Millisecond})
	if err := k.RunFor(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	obs.Receivers = 15
	if err := k.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(*decisions) != 0 {
		t.Error("adaptor kept reconfiguring after Close")
	}
}

func TestAdaptorValidation(t *testing.T) {
	k := sim.New(1)
	e := env.NewSim(k)
	sel := flipSelector{}
	obs := func() core.Observation { return core.Observation{} }
	rec := func(core.Decision) {}
	good := core.Decision{Spec: core.Candidates()[0]}
	if _, err := core.NewAdaptor(nil, sel, good, obs, rec, core.AdaptorOptions{}); err == nil {
		t.Error("nil env accepted")
	}
	if _, err := core.NewAdaptor(e, nil, good, obs, rec, core.AdaptorOptions{}); err == nil {
		t.Error("nil selector accepted")
	}
	if _, err := core.NewAdaptor(e, sel, core.Decision{}, obs, rec, core.AdaptorOptions{}); err == nil {
		t.Error("empty initial decision accepted")
	}
	if _, err := core.NewAdaptor(e, sel, good, nil, rec, core.AdaptorOptions{}); err == nil {
		t.Error("nil observe accepted")
	}
	if _, err := core.NewAdaptor(e, sel, good, obs, nil, core.AdaptorOptions{}); err == nil {
		t.Error("nil reconfigure accepted")
	}
}
