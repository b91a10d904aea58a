package experiment

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"

	"adamant/internal/ann"
	"adamant/internal/core"
	"adamant/internal/dds"
	"adamant/internal/netem"
	"adamant/internal/sim"
	"adamant/internal/transport"
)

// Row is one labeled training example for the configurator: an environment
// + application description, the metric of interest, the winning candidate
// protocol, and every candidate's mean score (kept for analysis).
type Row struct {
	Features core.Features
	Winner   int // index into core.Candidates()
	Scores   []float64
}

// EnvCombo is one sampled point of the Table 1 x Table 2 space.
type EnvCombo struct {
	Machine   netem.Machine
	Bandwidth netem.Bandwidth
	Impl      dds.Impl
	LossPct   float64
	Receivers int
	RateHz    float64
}

// FullSpace enumerates the Table 1 x Table 2 cross product over core's
// trained axes: 2 machines x 3 bandwidths x 2 implementations x 5 loss
// levels x 5 receiver counts x 4 rates = 1200 combinations.
func FullSpace() []EnvCombo {
	var out []EnvCombo
	for _, m := range core.TrainedMachines {
		for _, bw := range core.TrainedBandwidths {
			for _, impl := range dds.Impls() {
				for loss := core.MinLossPct; loss <= core.MaxLossPct; loss++ {
					for _, recv := range core.TrainedReceivers {
						for _, rate := range core.TrainedRatesHz {
							out = append(out, EnvCombo{
								Machine: m, Bandwidth: bw, Impl: impl,
								LossPct: float64(loss), Receivers: recv, RateHz: rate,
							})
						}
					}
				}
			}
		}
	}
	return out
}

// SampleSpace deterministically samples n combinations from FullSpace —
// the paper's coarse-grained exploration kept 197 environment
// configurations, which with both metrics of interest yields its 394
// training inputs.
func SampleSpace(n int, seed int64) []EnvCombo {
	all := FullSpace()
	if n >= len(all) {
		return all
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:n]
}

// DatasetOptions parameterize BuildDataset.
type DatasetOptions struct {
	// Combos is the number of environment combinations (paper: 197,
	// giving 394 rows across the two metrics). Default 197.
	Combos int
	// Runs per (combo, protocol). Default 3.
	Runs int
	// Samples per run. Default 600 (the winner labels stabilize well
	// below the paper's 20000).
	Samples int
	// Seed drives sampling and run seeds. Default 1.
	Seed int64
	// Jobs is the worker-pool width for the combo x candidate x run
	// product; <= 0 means GOMAXPROCS. Output is identical at any width.
	Jobs int
	// Progress, when non-nil, receives status lines.
	Progress func(format string, args ...any)
	// OnRun, when non-nil, is called after each individual run completes
	// with (done, total) run counts. Calls are serialized by the runner.
	OnRun func(done, total int)
}

func (o *DatasetOptions) fillDefaults() {
	if o.Combos <= 0 {
		o.Combos = 197
	}
	if o.Runs <= 0 {
		o.Runs = 3
	}
	if o.Samples <= 0 {
		o.Samples = 600
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Progress == nil {
		o.Progress = func(string, ...any) {}
	}
}

// BuildDataset runs every candidate protocol over each sampled environment
// and labels the winner under both composite metrics, producing
// 2 x Combos rows. The whole combo x candidate x run product is flattened
// into one job list and spread over Jobs workers; per-run seeds are derived
// exactly as the serial path derived them, so the rows (and their CSV
// serialization) are byte-identical at any worker count.
func BuildDataset(opts DatasetOptions) ([]Row, error) {
	opts.fillDefaults()
	combos := SampleSpace(opts.Combos, opts.Seed)
	cands := core.Candidates()
	perCombo := len(cands) * opts.Runs
	cfgs := make([]Config, 0, len(combos)*perCombo)
	for i, combo := range combos {
		cfg := Config{
			Machine:   combo.Machine,
			Bandwidth: combo.Bandwidth,
			Impl:      combo.Impl,
			LossPct:   combo.LossPct,
			Receivers: combo.Receivers,
			RateHz:    combo.RateHz,
			Samples:   opts.Samples,
			Seed:      sim.DeriveSeed(opts.Seed, fmt.Sprintf("dataset-%d", i)),
		}
		cfgs = append(cfgs, candidateConfigs(cfg, opts.Runs)...)
	}
	runner := &Runner{Jobs: opts.Jobs, Progress: opts.OnRun}
	sums, err := runner.RunMany(cfgs)
	if err != nil {
		return nil, fmt.Errorf("experiment: dataset: %w", err)
	}
	rows := make([]Row, 0, 2*len(combos))
	for i, combo := range combos {
		results := make([]CandidateResult, len(cands))
		for ci, spec := range cands {
			k := i*perCombo + ci*opts.Runs
			results[ci] = CandidateResult{Spec: spec, Summaries: sums[k : k+opts.Runs]}
		}
		for _, metric := range core.Metrics() {
			scores := make([]float64, len(results))
			for ci, res := range results {
				scores[ci] = MeanScore(res.Summaries, metric)
			}
			rows = append(rows, Row{
				Features: core.FeaturesFor(combo.Machine, combo.Bandwidth, combo.Impl,
					combo.LossPct, combo.Receivers, combo.RateHz, metric),
				Winner: Winner(results, metric),
				Scores: scores,
			})
		}
		base := cfgs[i*perCombo]
		base.Protocol = transport.Spec{}
		opts.Progress("dataset %d/%d: %s -> %s / %s", i+1, len(combos), base.String(),
			core.Candidates()[rows[len(rows)-2].Winner], core.Candidates()[rows[len(rows)-1].Winner])
	}
	return rows, nil
}

// ToANNDataset converts labeled rows to the neural network's input/target
// representation.
func ToANNDataset(rows []Row) *ann.Dataset {
	var ds ann.Dataset
	for _, r := range rows {
		ds.Add(r.Features.Vector(), ann.OneHot(core.NumCandidates, r.Winner))
	}
	return &ds
}

// csvHeader is the dataset CSV schema.
var csvHeader = []string{
	"machine_mhz", "bandwidth_mbps", "impl", "loss_pct", "receivers", "rate_hz",
	"overhead_pct", "metric", "winner",
	"score_nakcast50ms", "score_nakcast25ms", "score_nakcast10ms", "score_nakcast1ms",
	"score_ricochet_r4c3", "score_ricochet_r8c3", "score_fountcast_k8oh25",
}

// WriteCSV writes rows in the documented schema.
func WriteCSV(w io.Writer, rows []Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			strconv.FormatFloat(r.Features.MachineMHz, 'g', -1, 64),
			strconv.FormatFloat(r.Features.BandwidthMbps, 'g', -1, 64),
			r.Features.Impl.String(),
			strconv.FormatFloat(r.Features.LossPct, 'g', -1, 64),
			strconv.Itoa(r.Features.Receivers),
			strconv.FormatFloat(r.Features.RateHz, 'g', -1, 64),
			strconv.FormatFloat(r.Features.OverheadPct, 'g', -1, 64),
			r.Features.Metric.String(),
			strconv.Itoa(r.Winner),
		}
		for _, s := range r.Scores {
			rec = append(rec, strconv.FormatFloat(s, 'g', 8, 64))
		}
		for len(rec) < len(csvHeader) {
			rec = append(rec, "")
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses rows written by WriteCSV.
func ReadCSV(r io.Reader) ([]Row, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	records, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(records) == 0 {
		return nil, errors.New("experiment: empty dataset CSV")
	}
	var rows []Row
	for i, rec := range records[1:] {
		if len(rec) < 9 {
			return nil, fmt.Errorf("experiment: CSV row %d has %d fields", i+2, len(rec))
		}
		var row Row
		var err error
		if row.Features.MachineMHz, err = strconv.ParseFloat(rec[0], 64); err != nil {
			return nil, fmt.Errorf("experiment: CSV row %d machine_mhz: %w", i+2, err)
		}
		if row.Features.BandwidthMbps, err = strconv.ParseFloat(rec[1], 64); err != nil {
			return nil, fmt.Errorf("experiment: CSV row %d bandwidth: %w", i+2, err)
		}
		if row.Features.Impl, err = dds.ImplByName(rec[2]); err != nil {
			return nil, fmt.Errorf("experiment: CSV row %d: %w", i+2, err)
		}
		if row.Features.LossPct, err = strconv.ParseFloat(rec[3], 64); err != nil {
			return nil, fmt.Errorf("experiment: CSV row %d loss: %w", i+2, err)
		}
		if row.Features.Receivers, err = strconv.Atoi(rec[4]); err != nil {
			return nil, fmt.Errorf("experiment: CSV row %d receivers: %w", i+2, err)
		}
		if row.Features.RateHz, err = strconv.ParseFloat(rec[5], 64); err != nil {
			return nil, fmt.Errorf("experiment: CSV row %d rate: %w", i+2, err)
		}
		if row.Features.OverheadPct, err = strconv.ParseFloat(rec[6], 64); err != nil {
			return nil, fmt.Errorf("experiment: CSV row %d overhead: %w", i+2, err)
		}
		switch rec[7] {
		case core.MetricReLate2.String():
			row.Features.Metric = core.MetricReLate2
		case core.MetricReLate2Jit.String():
			row.Features.Metric = core.MetricReLate2Jit
		default:
			return nil, fmt.Errorf("experiment: CSV row %d unknown metric %q", i+2, rec[7])
		}
		if row.Winner, err = strconv.Atoi(rec[8]); err != nil {
			return nil, fmt.Errorf("experiment: CSV row %d winner: %w", i+2, err)
		}
		if row.Winner < 0 || row.Winner >= core.NumCandidates {
			return nil, fmt.Errorf("experiment: CSV row %d winner %d out of range", i+2, row.Winner)
		}
		for _, f := range rec[9:] {
			if f == "" {
				continue
			}
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("experiment: CSV row %d score: %w", i+2, err)
			}
			row.Scores = append(row.Scores, v)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteCSVFile writes rows to path.
func WriteCSVFile(path string, rows []Row) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteCSV(f, rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadCSVFile reads rows from path.
func ReadCSVFile(path string) ([]Row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(f)
}
