// Package experiment reproduces the paper's evaluation: it assembles
// simulated cloud environments (machine type, LAN bandwidth, DDS
// implementation profile, end-host loss) and application workloads
// (receiver count, sending rate), runs the DDS/ANT stack over them, scores
// the composite QoS metrics, builds the 394-row training set for the
// neural-network configurator, and regenerates every figure in Section 4.
package experiment

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"adamant/internal/core"
	"adamant/internal/dds"
	"adamant/internal/metrics"
	"adamant/internal/netem"
	"adamant/internal/sim"
	"adamant/internal/transport"
	"adamant/internal/transport/protocols"
	"adamant/internal/wire"
)

// Config describes one experiment run: the paper's Table 1 environment
// variables, Table 2 application variables, the workload shape, and the
// transport protocol under test.
type Config struct {
	Machine   netem.Machine
	Bandwidth netem.Bandwidth
	Impl      dds.Impl
	LossPct   float64
	// BurstPGB/BurstPBG/BurstDropBad, when BurstPGB > 0, enable the
	// Gilbert-Elliott two-state bursty loss model on every reader node in
	// addition to the uniform LossPct: per-packet good->bad and bad->good
	// transition probabilities and the drop probability in the bad state.
	BurstPGB     float64
	BurstPBG     float64
	BurstDropBad float64
	Receivers    int
	RateHz       float64
	// Samples is the number of data samples the writer publishes. The
	// paper sends 20000 per run; smaller counts preserve the metric
	// shape and run proportionally faster.
	Samples int
	// PayloadBytes is the sample size (paper: 12 bytes).
	PayloadBytes int
	// Protocol is the ANT transport under test.
	Protocol transport.Spec
	// Seed makes the run reproducible.
	Seed int64
	// Shards > 0 runs the experiment on the sharded conservative-time
	// engine with that many workers instead of the serial kernel. The
	// sharded result is deterministic and identical at every worker
	// count, but is a distinct trajectory from the serial kernel's (the
	// two engines order same-instant arrivals differently), so published
	// tables pick one engine and stay on it. Use for large groups, where
	// the serial kernel is the bottleneck.
	Shards int
}

func (c *Config) fillDefaults() {
	if c.Machine.Name == "" {
		c.Machine = netem.PC3000
	}
	if c.Bandwidth == 0 {
		c.Bandwidth = netem.Gbps1
	}
	if c.Receivers == 0 {
		c.Receivers = 3
	}
	if c.RateHz == 0 {
		c.RateHz = 25
	}
	if c.Samples == 0 {
		c.Samples = 2000
	}
	if c.PayloadBytes == 0 {
		c.PayloadBytes = 12
	}
	if c.Protocol.Name == "" {
		c.Protocol = core.Candidates()[3] // nakcast(timeout=1ms)
	}
}

// Validate reports config errors.
func (c Config) Validate() error {
	if c.Receivers < 1 {
		return errors.New("experiment: need at least one receiver")
	}
	if c.RateHz <= 0 {
		return errors.New("experiment: non-positive rate")
	}
	if c.LossPct < 0 || c.LossPct > 100 {
		return fmt.Errorf("experiment: loss %v%% out of range", c.LossPct)
	}
	if c.BurstPGB < 0 || c.BurstPGB > 1 || c.BurstPBG < 0 || c.BurstPBG > 1 ||
		c.BurstDropBad < 0 || c.BurstDropBad > 1 {
		return fmt.Errorf("experiment: burst-loss probabilities (%v,%v,%v) out of [0,1]",
			c.BurstPGB, c.BurstPBG, c.BurstDropBad)
	}
	if c.BurstPGB > 0 && c.BurstPBG == 0 {
		return errors.New("experiment: burst loss needs a bad->good transition probability")
	}
	if c.Samples < 1 {
		return errors.New("experiment: need at least one sample")
	}
	if c.PayloadBytes < 0 {
		return errors.New("experiment: negative payload size")
	}
	if c.Shards < 0 {
		return errors.New("experiment: negative shard count")
	}
	return nil
}

// String identifies the configuration in logs and tables.
func (c Config) String() string {
	s := fmt.Sprintf("%s/%s/%s loss=%g%% rcv=%d rate=%gHz proto=%s",
		c.Machine.Name, c.Bandwidth, c.Impl, c.LossPct, c.Receivers, c.RateHz, c.Protocol)
	if c.BurstPGB > 0 {
		s += fmt.Sprintf(" ge=%g/%g/%g", c.BurstPGB, c.BurstPBG, c.BurstDropBad)
	}
	if c.Shards > 0 {
		s += fmt.Sprintf(" shards=%d", c.Shards)
	}
	return s
}

// topicName is the single experiment data stream.
const topicName = "adamant/experiment"

// NetReport carries per-node traffic counters from one run, for ablations
// that study protocol overhead (control traffic, repair traffic).
type NetReport struct {
	Writer  netem.Stats
	Readers []netem.Stats
}

// TotalTx sums transmitted packets across all nodes.
func (r NetReport) TotalTx() uint64 {
	total := r.Writer.TxPackets
	for _, s := range r.Readers {
		total += s.TxPackets
	}
	return total
}

// Run executes one experiment and returns the merged QoS summary across
// all receivers (per-receiver expected counts sum into Summary.Sent).
func Run(cfg Config) (metrics.Summary, error) {
	s, _, err := RunDetailed(cfg)
	return s, err
}

// RunDetailed is Run plus the per-node traffic report.
func RunDetailed(cfg Config) (metrics.Summary, NetReport, error) {
	cfg.fillDefaults()
	if err := cfg.Validate(); err != nil {
		return metrics.Summary{}, NetReport{}, err
	}
	res, err := runCell(cfg, []DriftPhase{{cfg.Samples, cfg.RateHz, cfg.LossPct}}, nil)
	return res.summary, res.report, err
}

// adaptation makes a run adaptive: an Adaptor that starts from the initial
// features and re-queries selector when the drift crosses its tolerances,
// and a Rebinder that hot-swaps the writer's transport on each new decision.
type adaptation struct {
	selector core.Selector
	initial  core.Features
	opts     core.AdaptorOptions
}

// cellResult is one run's outcome.
type cellResult struct {
	summary  metrics.Summary
	report   NetReport
	switches []core.SwitchRecord
	switchAt []time.Duration // sim time of each switch, relative to start
	drains   []time.Duration // per superseded generation, slowest receiver
}

// runCell is the one run loop behind every experiment: a writer and
// cfg.Receivers readers on the emulated LAN, the writer publishing the
// phases in order. Each phase sets the publish rate and every reader's loss;
// cfg's own Samples, RateHz and LossPct only name the run in errors. A
// steady run is one phase. With adapt set, an Adaptor watches the
// drift and a Rebinder hot-swaps the writer's transport mid-run. Only the
// classic engine runs more than one phase: AdaptationConfig has no Shards.
func runCell(cfg Config, phases []DriftPhase, adapt *adaptation) (cellResult, error) {
	total := 0
	var publishTime time.Duration
	for _, p := range phases {
		total += p.Samples
		publishTime += time.Duration(p.Samples) * p.period()
	}
	network, drv, err := netem.NewSimulated(cfg.Seed, cfg.Shards, netem.Config{Bandwidth: cfg.Bandwidth})
	if err != nil {
		return cellResult{}, err
	}
	// The sharded engine fires one arrival event per multicast target where
	// the serial kernel loops all targets in one event, so give it double
	// headroom.
	limit := uint64(total)*uint64(cfg.Receivers)*200 + 10_000_000
	if cfg.Shards > 0 {
		limit *= 2
	}
	drv.SetEventLimit(limit)
	reg := protocols.MustRegistry()

	writerNode := network.AddNode(cfg.Machine)
	readerNodes := make([]*netem.Node, cfg.Receivers)
	readerIDs := make([]wire.NodeID, cfg.Receivers)
	for i := range readerNodes {
		readerNodes[i] = network.AddNode(cfg.Machine)
		readerNodes[i].SetLoss(phases[0].LossPct)
		if cfg.BurstPGB > 0 {
			readerNodes[i].SetBurstLoss(cfg.BurstPGB, cfg.BurstPBG, cfg.BurstDropBad)
		}
		readerIDs[i] = readerNodes[i].Local()
	}
	receivers := transport.StaticReceivers(readerIDs...)

	// Each participant lives on its node's env — the shared sim env in
	// serial mode, the node's lane env in sharded mode.
	mkParticipant := func(node *netem.Node) (*dds.DomainParticipant, error) {
		return dds.NewParticipant(dds.ParticipantConfig{
			Env:       node.Env(),
			Endpoint:  node,
			Registry:  reg,
			Transport: cfg.Protocol,
			Impl:      cfg.Impl,
			SenderID:  writerNode.Local(),
			Receivers: receivers,
		})
	}
	writerP, err := mkParticipant(writerNode)
	if err != nil {
		return cellResult{}, err
	}
	topic, err := writerP.CreateTopic(topicName, dds.TopicQoS{Reliability: dds.Reliable})
	if err != nil {
		return cellResult{}, err
	}
	writer, err := writerP.CreateDataWriter(topic, dds.WriterQoS{Reliability: dds.Reliable})
	if err != nil {
		return cellResult{}, err
	}
	collectors := make([]metrics.Collector, cfg.Receivers)
	// Each listener keeps its receiver's latencies (lane-local, so race-free
	// on the sharded engine); the tails are read from them after the run.
	latencies := make([][]float64, cfg.Receivers)
	readers := make([]*dds.DataReader, cfg.Receivers)
	for i := range readerNodes {
		i := i
		p, err := mkParticipant(readerNodes[i])
		if err != nil {
			return cellResult{}, err
		}
		rt, err := p.CreateTopic(topicName, dds.TopicQoS{Reliability: dds.Reliable})
		if err != nil {
			return cellResult{}, err
		}
		readers[i], err = p.CreateDataReader(rt, dds.ReaderQoS{Reliability: dds.Reliable, History: dds.KeepLast, Depth: 1},
			dds.ListenerFuncs{Data: func(s dds.Sample) {
				collectors[i].OnDeliver(s.Info.SentAt, s.Info.ReceivedAt, s.Info.Recovered)
				latencies[i] = append(latencies[i], float64(s.Info.Latency())/float64(time.Microsecond))
			}})
		if err != nil {
			return cellResult{}, err
		}
	}

	// phase advances as samples go out. The publish tick and the adaptor's
	// observe callback both read it, on the writer's env.
	writerEnv := writerNode.Env()
	start := writerEnv.Now()
	phase := 0
	var rebinder *core.Rebinder
	var adaptor *core.Adaptor
	if adapt != nil {
		if rebinder, err = core.NewRebinder(writerEnv, writerP); err != nil {
			return cellResult{}, err
		}
		adaptor, err = core.NewAdaptor(writerEnv, adapt.selector,
			core.Decision{Features: adapt.initial, Spec: cfg.Protocol},
			func() core.Observation {
				p := phases[phase]
				return core.Observation{Receivers: cfg.Receivers, RateHz: p.RateHz, LossPct: p.LossPct}
			},
			rebinder.Reconfigure, adapt.opts)
		if err != nil {
			return cellResult{}, err
		}
	}

	// Publish the phases, then close the writer (EOS). The payload stream
	// derives from (seed, name) alone, so the writer lane's kernel hands out
	// the same bytes the serial kernel would.
	payload := make([]byte, cfg.PayloadBytes)
	rng := writerEnv.Rand("experiment/payload")
	published, phaseSent := 0, 0
	var writeErr error
	var closedAt time.Time
	var tick func()
	tick = func() {
		if published >= total {
			closedAt = writerEnv.Now()
			writeErr = writer.Close()
			return
		}
		if phaseSent >= phases[phase].Samples {
			phase++
			phaseSent = 0
			for _, n := range readerNodes {
				n.SetLoss(phases[phase].LossPct)
			}
		}
		rng.Read(payload)
		if err := writer.Write(payload); err != nil {
			writeErr = err
			return
		}
		published++
		phaseSent++
		writerEnv.Schedule(phases[phase].period(), tick)
	}
	writerEnv.Post(tick)

	// The adaptor re-arms its check timer forever, so an adaptive run cannot
	// simply drain: run past the publish window, stop the adaptor, then drain
	// the rest (tail recovery, swap announcements) to quiescence.
	if adaptor != nil {
		if err := drv.RunFor(publishTime + 5*time.Second); err != nil {
			return cellResult{}, fmt.Errorf("experiment: %s: %w", cfg, err)
		}
		if err := adaptor.Close(); err != nil {
			return cellResult{}, err
		}
	}
	if err := drv.Run(); err != nil {
		return cellResult{}, fmt.Errorf("experiment: %s: %w", cfg, err)
	}
	if writeErr != nil {
		return cellResult{}, fmt.Errorf("experiment: %s: %w", cfg, writeErr)
	}
	var merged metrics.Collector
	var bw metrics.Bandwidth
	for i := range collectors {
		merged.Merge(&collectors[i])
		bw.Merge(readerNodes[i].RxBandwidth())
	}
	res := cellResult{
		summary: merged.Summary(uint64(total) * uint64(cfg.Receivers)),
		report:  NetReport{Writer: writerNode.Stats()},
	}
	all := slices.Concat(latencies...)
	slices.Sort(all)
	res.summary.P50LatencyUs = metrics.Quantile(all, 0.50)
	res.summary.P95LatencyUs = metrics.Quantile(all, 0.95)
	res.summary.P99LatencyUs = metrics.Quantile(all, 0.99)
	res.summary.Bytes = bw.Total()
	res.summary.AvgBps = bw.MeanRate(start, closedAt)
	res.summary.BurstinessBps = bw.Burstiness(start, closedAt)
	for _, n := range readerNodes {
		res.report.Readers = append(res.report.Readers, n.Stats())
	}
	if rebinder == nil {
		return res, nil
	}
	res.switches = rebinder.Switches()
	for k, sw := range res.switches {
		res.switchAt = append(res.switchAt, sw.At.Sub(start))
		// Drain cost of superseded generation k: the slowest reader's
		// DrainLatency for epoch k.
		var max time.Duration
		for _, r := range readers {
			for _, ep := range r.TransportEpochs() {
				if int(ep.Epoch) == k && ep.Done && ep.DrainLatency > max {
					max = ep.DrainLatency
				}
			}
		}
		res.drains = append(res.drains, max)
	}
	return res, nil
}

// runConfigs expands cfg into `runs` configs with derived per-run seeds —
// the seed schedule every multi-run helper (BuildDataset, RunQoSFigures)
// shares, so serial and parallel execution produce identical results.
func runConfigs(cfg Config, runs int) []Config {
	out := make([]Config, runs)
	for i := range out {
		out[i] = cfg
		out[i].Seed = sim.DeriveSeed(cfg.Seed, fmt.Sprintf("run-%d", i))
	}
	return out
}

// Score extracts the configured composite metric from a summary.
func Score(s metrics.Summary, metric core.Metric) float64 {
	if metric == core.MetricReLate2Jit {
		return s.ReLate2Jit
	}
	return s.ReLate2
}

// MeanScore averages Score over runs.
func MeanScore(ss []metrics.Summary, metric core.Metric) float64 {
	if len(ss) == 0 {
		return 0
	}
	var total float64
	for _, s := range ss {
		total += Score(s, metric)
	}
	return total / float64(len(ss))
}

// CandidateResult holds one candidate protocol's summaries for a config.
type CandidateResult struct {
	Spec      transport.Spec
	Summaries []metrics.Summary
}

// candidateConfigs expands cfg into one config per (candidate, run) in
// candidate-major order, with runConfigs' per-run seeds.
func candidateConfigs(cfg Config, runs int) []Config {
	cands := core.Candidates()
	out := make([]Config, 0, len(cands)*runs)
	for _, spec := range cands {
		c := cfg
		c.Protocol = spec
		out = append(out, runConfigs(c, runs)...)
	}
	return out
}

// Winner returns the candidate index with the lowest (best) mean score for
// the metric.
func Winner(results []CandidateResult, metric core.Metric) int {
	best := 0
	bestScore := MeanScore(results[0].Summaries, metric)
	for i := 1; i < len(results); i++ {
		if s := MeanScore(results[i].Summaries, metric); s < bestScore {
			best, bestScore = i, s
		}
	}
	return best
}
