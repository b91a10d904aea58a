package core_test

import (
	"errors"
	"testing"
	"time"

	"adamant/internal/ann"
	"adamant/internal/core"
	"adamant/internal/dds"
	"adamant/internal/netem"
	"adamant/internal/probe"
	"adamant/internal/transport"
)

func TestCandidates(t *testing.T) {
	cands := core.Candidates()
	if len(cands) != core.NumCandidates {
		t.Fatalf("Candidates = %d, want %d", len(cands), core.NumCandidates)
	}
	want := []string{
		"nakcast(timeout=50ms)", "nakcast(timeout=25ms)",
		"nakcast(timeout=10ms)", "nakcast(timeout=1ms)",
		"ricochet(c=3,r=4)", "ricochet(c=3,r=8)",
		"fountcast(k=8,oh=25)",
	}
	for i, c := range cands {
		if c.String() != want[i] {
			t.Errorf("candidate %d = %s, want %s", i, c, want[i])
		}
		idx, err := core.CandidateIndex(c)
		if err != nil || idx != i {
			t.Errorf("CandidateIndex(%s) = %d, %v", c, idx, err)
		}
	}
	if _, err := core.CandidateIndex(transport.Spec{Name: "tcp"}); err == nil {
		t.Error("unknown spec should error")
	}
}

func TestFeaturesVector(t *testing.T) {
	f := core.FeaturesFor(netem.PC3000, netem.Gbps1, dds.ImplA, 5, 15, 100, core.MetricReLate2)
	v := f.Vector()
	if len(v) != core.NumInputs {
		t.Fatalf("vector length %d", len(v))
	}
	if v[0] != 1.0 { // 3000/3000
		t.Errorf("machine input = %v", v[0])
	}
	if v[1] != 1.0 { // log10(1000)/3
		t.Errorf("bandwidth input = %v", v[1])
	}
	if v[2] != 1 || v[3] != 0 {
		t.Errorf("impl one-hot = %v %v", v[2], v[3])
	}
	if v[4] != 1 || v[5] != 1 || v[6] != 1 {
		t.Errorf("loss/receivers/rate = %v %v %v", v[4], v[5], v[6])
	}
	if v[7] != 1 || v[8] != 0 {
		t.Errorf("metric one-hot = %v %v", v[7], v[8])
	}
	if v[9] != 0.25 { // default 25% FEC budget
		t.Errorf("overhead input = %v", v[9])
	}
	g := core.FeaturesFor(netem.PC850, netem.Mbps10, dds.ImplB, 1, 3, 10, core.MetricReLate2Jit)
	w := g.Vector()
	if w[2] != 0 || w[3] != 1 || w[7] != 0 || w[8] != 1 {
		t.Errorf("one-hots wrong: %v", w)
	}
	if f.String() == g.String() {
		t.Error("distinct features print the same")
	}
}

func TestMetricString(t *testing.T) {
	if core.MetricReLate2.String() != "ReLate2" || core.MetricReLate2Jit.String() != "ReLate2Jit" {
		t.Error("metric names wrong")
	}
	if core.Metric(9).String() == "" {
		t.Error("unknown metric should stringify")
	}
	if len(core.Metrics()) != 2 {
		t.Error("Metrics() wrong")
	}
}

// trainedNet returns a network that learned "pc3000 -> ricochet r4c3,
// else nakcast 1ms".
func trainedNet(t *testing.T) *ann.Network {
	t.Helper()
	var ds ann.Dataset
	for _, m := range []netem.Machine{netem.PC850, netem.PC3000} {
		for _, bw := range []netem.Bandwidth{netem.Mbps100, netem.Gbps1} {
			for loss := 1.0; loss <= 5; loss++ {
				for _, recv := range []int{3, 9, 15} {
					winner := 3
					if m.Name == "pc3000" {
						winner = 4
					}
					f := core.FeaturesFor(m, bw, dds.ImplB, loss, recv, 25, core.MetricReLate2)
					ds.Add(f.Vector(), ann.OneHot(core.NumCandidates, winner))
				}
			}
		}
	}
	net, err := ann.New(ann.Config{Layers: []int{core.NumInputs, 12, core.NumCandidates}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Train(&ds, ann.TrainOptions{MaxEpochs: 500, DesiredError: 1e-3}); err != nil {
		t.Fatal(err)
	}
	return net
}

func TestANNSelector(t *testing.T) {
	sel, err := core.NewANNSelector(trainedNet(t))
	if err != nil {
		t.Fatal(err)
	}
	fast := core.FeaturesFor(netem.PC3000, netem.Gbps1, dds.ImplB, 3, 9, 25, core.MetricReLate2)
	spec, err := sel.Select(fast)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "ricochet" {
		t.Errorf("fast environment -> %s, want ricochet", spec)
	}
	slow := core.FeaturesFor(netem.PC850, netem.Mbps100, dds.ImplB, 3, 9, 25, core.MetricReLate2)
	spec, err = sel.Select(slow)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "nakcast" {
		t.Errorf("slow environment -> %s, want nakcast", spec)
	}
}

func TestANNSelectorValidation(t *testing.T) {
	if _, err := core.NewANNSelector(nil); err == nil {
		t.Error("nil net should error")
	}
	bad, err := ann.New(ann.Config{Layers: []int{3, 4, 2}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewANNSelector(bad); err == nil {
		t.Error("wrong-shape net should error")
	}
}

func TestController(t *testing.T) {
	src := probe.ForMachine(netem.PC3000, netem.Gbps1)
	sel, err := core.NewANNSelector(trainedNet(t))
	if err != nil {
		t.Fatal(err)
	}
	params := core.AppParams{Receivers: 9, RateHz: 25, LossPct: 3,
		Impl: dds.ImplB, Metric: core.MetricReLate2}
	ctl, err := core.NewController(src, sel, params)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ctl.Decide()
	if err != nil {
		t.Fatal(err)
	}
	if d.Spec.Name != "ricochet" {
		t.Errorf("decision = %s, want ricochet for pc3000/1Gb", d.Spec)
	}
	if d.Features.MachineMHz != 3000 || d.Features.BandwidthMbps != 1000 {
		t.Errorf("features = %+v", d.Features)
	}
	if d.SelectTime <= 0 || d.SelectTime > 5*time.Millisecond {
		t.Errorf("SelectTime = %v; want fast, bounded decision", d.SelectTime)
	}
}

// failSelector answers every environment with an error.
type failSelector struct{}

func (failSelector) Select(core.Features) (transport.Spec, error) {
	return transport.Spec{}, errors.New("no answer")
}

func TestControllerValidation(t *testing.T) {
	src := probe.ForMachine(netem.PC3000, netem.Gbps1)
	sel := failSelector{}
	ok := core.AppParams{Receivers: 3, RateHz: 10}
	if _, err := core.NewController(nil, sel, ok); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := core.NewController(src, nil, ok); err == nil {
		t.Error("nil selector accepted")
	}
	if _, err := core.NewController(src, sel, core.AppParams{}); err == nil {
		t.Error("empty app params accepted")
	}
	ctl, err := core.NewController(src, sel, ok)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Decide(); err == nil {
		t.Error("a selector error should propagate")
	}
}

func BenchmarkAdamantDecide(b *testing.B) {
	var ds ann.Dataset
	f := core.FeaturesFor(netem.PC3000, netem.Gbps1, dds.ImplB, 3, 9, 25, core.MetricReLate2)
	ds.Add(f.Vector(), ann.OneHot(core.NumCandidates, 4))
	net, err := ann.New(ann.Config{Layers: []int{core.NumInputs, 24, core.NumCandidates}, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sel, err := core.NewANNSelector(net)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sel.Select(f); err != nil {
			b.Fatal(err)
		}
	}
}
