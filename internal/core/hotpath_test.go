package core_test

import (
	"errors"
	"testing"

	"adamant/internal/ann"
	"adamant/internal/core"
	"adamant/internal/dds"
	"adamant/internal/netem"
	"adamant/internal/transport"
)

func TestAppendVectorMatchesVector(t *testing.T) {
	f := core.FeaturesFor(netem.PC850, netem.Mbps100, dds.ImplB, 2.5, 6, 50, core.MetricReLate2Jit)
	want := f.Vector()
	got := f.AppendVector(nil)
	if len(got) != core.NumInputs {
		t.Fatalf("AppendVector length = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("input %d: AppendVector %v != Vector %v", i, got[i], want[i])
		}
	}
	// Appending to a non-empty slice preserves the prefix.
	pre := []float64{7, 8}
	out := f.AppendVector(pre)
	if len(out) != 2+core.NumInputs || out[0] != 7 || out[1] != 8 {
		t.Errorf("prefix not preserved: %v", out)
	}
	// Reusing a dirty buffer must not leak stale one-hot values.
	dirty := make([]float64, core.NumInputs)
	for i := range dirty {
		dirty[i] = 99
	}
	reused := f.AppendVector(dirty[:0])
	for i := range want {
		if reused[i] != want[i] {
			t.Errorf("dirty reuse, input %d: %v != %v", i, reused[i], want[i])
		}
	}
}

// TestDecisionHotPathAllocs pins the paper's bounded-decision-time property
// down to allocations: after warmup, one Select is zero-alloc, and so is a
// candidate index lookup.
func TestDecisionHotPathAllocs(t *testing.T) {
	net, err := ann.New(ann.Config{Layers: []int{core.NumInputs, 24, core.NumCandidates}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := core.NewANNSelector(net)
	if err != nil {
		t.Fatal(err)
	}
	f := core.FeaturesFor(netem.PC3000, netem.Gbps1, dds.ImplB, 3, 9, 25, core.MetricReLate2)
	if _, err := sel.Select(f); err != nil { // warmup: grows the input buffer
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := sel.Select(f); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("ANNSelector.Select allocates %v per run, want 0", avg)
	}

	cands := core.Candidates()
	if avg := testing.AllocsPerRun(200, func() {
		for i := range cands {
			if _, err := core.CandidateIndex(cands[i]); err != nil {
				t.Fatal(err)
			}
		}
	}); avg != 0 {
		t.Errorf("CandidateIndex allocates %v per run, want 0", avg)
	}

	buf := make([]float64, 0, core.NumInputs)
	if avg := testing.AllocsPerRun(200, func() {
		buf = f.AppendVector(buf[:0])
	}); avg != 0 {
		t.Errorf("AppendVector into sized buffer allocates %v per run, want 0", avg)
	}
}

func TestCandidateIndexEquivalentSpec(t *testing.T) {
	// A spec built by hand with its own Params map (not the candidate's
	// instance) must still resolve.
	spec := transport.Spec{Name: "nakcast", Params: transport.Params{"timeout": "10ms"}}
	idx, err := core.CandidateIndex(spec)
	if err != nil || idx != 2 {
		t.Errorf("CandidateIndex(fresh nakcast 10ms) = %d, %v; want 2", idx, err)
	}
	// Same name, different param value: not a candidate.
	if _, err := core.CandidateIndex(transport.Spec{Name: "nakcast",
		Params: transport.Params{"timeout": "7ms"}}); err == nil {
		t.Error("non-candidate timeout accepted")
	}
}

func TestHybridSelectorNilTable(t *testing.T) {
	annSel, err := core.NewANNSelector(trainedNet(t))
	if err != nil {
		t.Fatal(err)
	}
	h := &core.HybridSelector{ANN: annSel}
	f := core.FeaturesFor(netem.PC3000, netem.Gbps1, dds.ImplB, 3, 9, 25, core.MetricReLate2)
	spec, err := h.Select(f)
	if err != nil || spec.Name != "ricochet" {
		t.Errorf("nil-table hybrid = %v, %v; want ANN answer", spec, err)
	}
	// Table miss wraps ErrUnknownEnvironment; the hybrid must swallow it
	// and fall through, not surface it.
	tbl := core.NewTableSelector()
	if _, err := tbl.Select(f); !errors.Is(err, core.ErrUnknownEnvironment) {
		t.Fatalf("table miss err = %v", err)
	}
	h.Table = tbl
	if spec, err = h.Select(f); err != nil || spec.Name != "ricochet" {
		t.Errorf("table-miss hybrid = %v, %v; want ANN answer", spec, err)
	}
	// A table hit must answer even with no ANN fallback at all.
	tbl.Put(f, core.Candidates()[1])
	noANN := &core.HybridSelector{Table: tbl}
	if spec, err = noANN.Select(f); err != nil || spec.String() != core.Candidates()[1].String() {
		t.Errorf("table-hit without ANN = %v, %v; want table answer", spec, err)
	}
}

// BenchmarkSelectGrid runs the decision path of the shipped model over the
// paper's grid: every Table 1 machine, bandwidth, implementation and loss
// rate, every Table 2 receiver count and rate, both metrics (2 400 points),
// a Select and a CandidateIndex per point. One op is the whole grid.
func BenchmarkSelectGrid(b *testing.B) {
	net, err := ann.LoadFile("../../data/adamant.ann")
	if err != nil {
		b.Fatal(err)
	}
	sel, err := core.NewANNSelector(net)
	if err != nil {
		b.Fatal(err)
	}
	var grid []core.Features
	for _, m := range []netem.Machine{netem.PC850, netem.PC3000} {
		for _, bw := range []netem.Bandwidth{netem.Mbps10, netem.Mbps100, netem.Gbps1} {
			for _, im := range dds.Impls() {
				for loss := 1; loss <= 5; loss++ {
					for _, recv := range []int{3, 6, 9, 12, 15} {
						for _, rate := range []float64{10, 25, 50, 100} {
							for _, metric := range core.Metrics() {
								grid = append(grid, core.FeaturesFor(m, bw, im, float64(loss), recv, rate, metric))
							}
						}
					}
				}
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range grid {
			spec, err := sel.Select(f)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.CandidateIndex(spec); err != nil {
				b.Fatal(err)
			}
		}
	}
}
