package experiment

import (
	"bytes"
	"strings"
	"testing"

	"adamant/internal/core"
	"adamant/internal/dds"
	"adamant/internal/metrics"
	"adamant/internal/netem"
)

func TestRunLossless(t *testing.T) {
	s, err := Run(Config{Receivers: 3, RateHz: 50, Samples: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Reliability() != 100 {
		t.Errorf("lossless reliability = %.2f, want 100", s.Reliability())
	}
	if s.Sent != 600 || s.Delivered != 600 {
		t.Errorf("sent/delivered = %d/%d, want 600/600", s.Sent, s.Delivered)
	}
	if s.AvgLatencyUs <= 0 || s.ReLate2 <= 0 {
		t.Errorf("summary = %+v", s)
	}
	if s.Bytes == 0 {
		t.Error("no bandwidth recorded")
	}
	if s.P50LatencyUs <= 0 || s.P50LatencyUs > s.P95LatencyUs || s.P95LatencyUs > s.P99LatencyUs {
		t.Errorf("latency tail not monotone: p50=%v p95=%v p99=%v",
			s.P50LatencyUs, s.P95LatencyUs, s.P99LatencyUs)
	}
}

func TestRunWithLossStaysReliable(t *testing.T) {
	s, err := Run(Config{Receivers: 3, RateHz: 50, Samples: 500, LossPct: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Default protocol is NAKcast 1ms: should recover essentially all.
	if s.Reliability() < 99.9 {
		t.Errorf("NAKcast reliability = %.2f at 5%% loss", s.Reliability())
	}
	if s.Recovered == 0 {
		t.Error("no recoveries at 5% loss")
	}
}

func TestRunValidation(t *testing.T) {
	bad := []Config{
		{Receivers: -1},
		{RateHz: -5, Receivers: 3},
		{LossPct: 150, Receivers: 3, RateHz: 10},
		{Samples: -1, Receivers: 3, RateHz: 10},
		{PayloadBytes: -1},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := Config{Receivers: 3, RateHz: 25, Samples: 300, LossPct: 3, Seed: 9}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed produced different summaries:\n%+v\n%+v", a, b)
	}
	cfg.Seed = 10
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different seeds produced identical summaries (suspicious)")
	}
}

func TestRunNDistinctSeeds(t *testing.T) {
	ss, err := RunN(Config{Receivers: 2, RateHz: 50, Samples: 200, LossPct: 5, Seed: 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 3 {
		t.Fatalf("got %d summaries", len(ss))
	}
	if ss[0] == ss[1] && ss[1] == ss[2] {
		t.Error("per-run seeds look identical")
	}
	if _, err := RunN(Config{}, 0); err == nil {
		t.Error("runs=0 should error")
	}
}

func TestScoreAndWinner(t *testing.T) {
	cfg := Config{Receivers: 3, RateHz: 25, Samples: 400, LossPct: 5, Seed: 5,
		Machine: netem.PC3000, Bandwidth: netem.Gbps1}
	sums, err := (&Runner{}).RunMany(candidateConfigs(cfg, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != core.NumCandidates {
		t.Fatalf("got %d candidate results", len(sums))
	}
	results := make([]CandidateResult, len(sums))
	for i, s := range sums {
		results[i] = CandidateResult{Spec: core.Candidates()[i], Summaries: []metrics.Summary{s}}
	}
	w := Winner(results, core.MetricReLate2)
	best := MeanScore(results[w].Summaries, core.MetricReLate2)
	for i, r := range results {
		if s := MeanScore(r.Summaries, core.MetricReLate2); s < best {
			t.Errorf("winner %d (%.0f) is not minimal; candidate %d has %.0f", w, best, i, s)
		}
	}
	if MeanScore(nil, core.MetricReLate2) != 0 {
		t.Error("MeanScore(nil) != 0")
	}
}

// TestCrossover is the repository's headline integration test: the paper's
// Figure 4/5 result that the best protocol flips with the platform.
func TestCrossover(t *testing.T) {
	if testing.Short() {
		t.Skip("crossover integration test skipped in -short mode")
	}
	run := func(m netem.Machine, bw netem.Bandwidth) (ric, nak float64) {
		base := Config{Machine: m, Bandwidth: bw, Impl: dds.ImplB,
			LossPct: 5, Receivers: 3, RateHz: 10, Samples: 2000, Seed: 77}
		cfgN := base
		cfgN.Protocol = core.Candidates()[3]
		cfgR := base
		cfgR.Protocol = core.Candidates()[4]
		sn, err := RunN(cfgN, 2)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := RunN(cfgR, 2)
		if err != nil {
			t.Fatal(err)
		}
		return MeanScore(sr, core.MetricReLate2), MeanScore(sn, core.MetricReLate2)
	}
	ricFast, nakFast := run(netem.PC3000, netem.Gbps1)
	if ricFast >= nakFast {
		t.Errorf("pc3000/1Gb: Ricochet ReLate2 %.0f should beat NAKcast %.0f", ricFast, nakFast)
	}
	ricSlow, nakSlow := run(netem.PC850, netem.Mbps100)
	if nakSlow >= ricSlow {
		t.Errorf("pc850/100Mb: NAKcast ReLate2 %.0f should beat Ricochet %.0f", nakSlow, ricSlow)
	}
}

func TestQoSFiguresRender(t *testing.T) {
	q, err := RunQoSFigures(QoSOptions{Samples: 300, Runs: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for num := range qosFigSpecs {
		tab, err := q.Figure(num)
		if err != nil {
			t.Fatalf("figure %d: %v", num, err)
		}
		wantRows := 2 // one per protocol
		if num <= 9 {
			wantRows = 4 // two rates
		}
		if len(tab.Rows) != wantRows {
			t.Errorf("figure %d has %d rows, want %d", num, len(tab.Rows), wantRows)
		}
		if len(tab.Rows[0]) != len(tab.Header) {
			t.Errorf("figure %d ragged rows", num)
		}
		if !strings.Contains(tab.Format(), "Figure") {
			t.Errorf("figure %d Format() missing title", num)
		}
		if !strings.Contains(tab.CSV(), ",") {
			t.Errorf("figure %d CSV() empty", num)
		}
	}
	if _, err := q.Figure(99); err == nil {
		t.Error("unknown figure should error")
	}
	if got := q.data[qosKey{true, 3, 10, 0}]; len(got) != 2 {
		t.Errorf("cell (fast, 3 rcv, 10Hz, protocol 0) holds %d runs, want 2", len(got))
	}
}

func TestStaticTables(t *testing.T) {
	t1 := EnvironmentTable()
	if t1.ID != "Table 1" || len(t1.Rows) != 4 {
		t.Errorf("Table 1 = %+v", t1)
	}
	t2 := ApplicationTable()
	if t2.ID != "Table 2" || len(t2.Rows) != 2 {
		t.Errorf("Table 2 = %+v", t2)
	}
}

func TestFullAndSampledSpace(t *testing.T) {
	all := FullSpace()
	if len(all) != 1200 {
		t.Fatalf("FullSpace = %d combos, want 1200", len(all))
	}
	s1 := SampleSpace(197, 1)
	if len(s1) != 197 {
		t.Fatalf("SampleSpace = %d", len(s1))
	}
	s2 := SampleSpace(197, 1)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("SampleSpace not deterministic")
		}
	}
	if len(SampleSpace(5000, 1)) != 1200 {
		t.Error("oversized sample should return the full space")
	}
	seen := map[EnvCombo]bool{}
	for _, c := range s1 {
		if seen[c] {
			t.Fatal("duplicate combo in sample")
		}
		seen[c] = true
	}
}

func TestBuildDatasetAndCSVRoundTrip(t *testing.T) {
	rows, err := BuildDataset(DatasetOptions{Combos: 3, Runs: 1, Samples: 200, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 3 combos x 2 metrics
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	for i, r := range rows {
		if r.Winner < 0 || r.Winner >= core.NumCandidates {
			t.Errorf("row %d winner %d out of range", i, r.Winner)
		}
		if len(r.Scores) != core.NumCandidates {
			t.Errorf("row %d has %d scores", i, len(r.Scores))
		}
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(rows) {
		t.Fatalf("round-trip row count %d != %d", len(back), len(rows))
	}
	for i := range rows {
		if back[i].Features.Key() != rows[i].Features.Key() || back[i].Winner != rows[i].Winner {
			t.Errorf("row %d round-trip mismatch:\n%+v\n%+v", i, back[i], rows[i])
		}
	}
	ds := ToANNDataset(rows)
	if ds.Len() != 6 || len(ds.Inputs[0]) != core.NumInputs || len(ds.Targets[0]) != core.NumCandidates {
		t.Errorf("ANN dataset shape wrong: %d x %d -> %d", ds.Len(), len(ds.Inputs[0]), len(ds.Targets[0]))
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"h1,h2\nbad",
		strings.Join(csvHeader, ",") + "\nx,100,opendds,5,3,10,ReLate2,0\n",
		strings.Join(csvHeader, ",") + "\n3000,100,nope,5,3,10,ReLate2,0\n",
		strings.Join(csvHeader, ",") + "\n3000,100,opendds,5,3,10,Bogus,0\n",
		strings.Join(csvHeader, ",") + "\n3000,100,opendds,5,3,10,ReLate2,99\n",
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: bad CSV accepted", i)
		}
	}
}

func TestCSVFileHelpers(t *testing.T) {
	rows := []Row{{
		Features: core.FeaturesFor(netem.PC3000, netem.Gbps1, dds.ImplA, 2, 3, 10, core.MetricReLate2),
		Winner:   1,
		Scores:   []float64{1, 2, 3, 4, 5, 6},
	}}
	path := t.TempDir() + "/ds.csv"
	if err := WriteCSVFile(path, rows); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Winner != 1 {
		t.Errorf("file round-trip = %+v", back)
	}
	if _, err := ReadCSVFile(path + ".missing"); err == nil {
		t.Error("missing file should error")
	}
}
