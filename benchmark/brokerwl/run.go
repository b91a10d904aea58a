package brokerwl

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"adamant/benchmark/hist"
	"adamant/benchmark/load"
	"adamant/benchmark/report"
	"adamant/benchmark/sut"
)

// Options are what the command line chooses; everything else is frozen.
type Options struct {
	Exe     string // the benchmark binary, started again as each broker
	Seed    int64
	Seconds float64 // measured time, shared out over the phases
	Trace   bool
	Setups  int    // set-ups timed; the last one is measured
	OutDir  string // where a traced run writes its spans
}

// plan is one phase: an open-loop rate from the ladder, or closed loop.
type plan struct {
	name   string
	share  float64 // of Options.Seconds
	rate   int     // index into workload.rates; -1 = closed loop
	traced bool
}

var (
	// The end-to-end latencies come from the base rate alone.
	untracedPlan = []plan{{name: "base", share: 1, rate: 0}}
	// The traced run walks the whole ladder with the recorders on, then
	// repeats the closed-loop phase with them off: the difference between
	// the two closed-loop phases is what tracing costs.
	tracedPlan = []plan{
		{name: "base", share: 1. / 6, rate: 0, traced: true},
		{name: "mid", share: 1. / 6, rate: 1, traced: true},
		{name: "high", share: 1. / 6, rate: 2, traced: true},
		{name: "closed", share: 0.25, rate: -1, traced: true},
		{name: "closed_untraced", share: 0.25, rate: -1},
	}
)

// sampleEvery is the share of publishes whose deliveries get a span each.
const sampleEvery = 64

// The latency limit an open-loop rate must meet to count as sustained.
const (
	limitP99Ns     = 50e6
	limitBacklog   = 2.0  // window-5 p50 over window-1 p50
	limitLateShare = 0.01 // generator, not broker: above it the run is invalid
)

// measured is what one phase produced.
type measured struct {
	plan      plan
	rateHz    int
	sum       load.Summary
	stats     []*load.PhaseStats // reader by reader
	pacing    load.Pacing
	missing   uint64
	published uint64
	wallNs    int64 // first publish to last delivery drained
	genCPU    int64 // microseconds
	genAllocs uint64
	before    []sut.Sample
	after     []sut.Sample
}

func (m *measured) brokerCPU(i int) int64 { return m.after[i].CPUMicros - m.before[i].CPUMicros }

func (m *measured) allCPU() int64 {
	cpu := m.genCPU
	for i := range m.after {
		cpu += m.brokerCPU(i)
	}
	return cpu
}

func (m *measured) sustained() bool {
	return m.missing == 0 && m.sum.P99 <= limitP99Ns &&
		m.sum.WindowP50[load.Windows-1] <= limitBacklog*m.sum.WindowP50[0] &&
		m.pacing.LateShare() <= limitLateShare
}

// Run runs one broker workload and reports its metrics.
func Run(name string, o Options) (report.Run, error) {
	run := report.Run{Workload: name, Seed: o.Seed, Seconds: o.Seconds, Trace: o.Trace, Metrics: map[string]report.Value{}}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return run, fmt.Errorf("brokerwl: no workload %q", name)
	}
	in := wl.inputs(rand.New(rand.NewSource(o.Seed)), wl.payload)
	// The generator shares the box with the brokers it measures: collect
	// its garbage less often than the default so that its own pauses stay
	// out of the latencies it reports. (The brokers, being other
	// processes, keep the default.)
	defer debug.SetGCPercent(debug.SetGCPercent(400))

	// Set-up is timed several times and the median reported; the last
	// system stays up and is measured.
	var s *session
	var setups []float64
	for i := 0; i < o.Setups; i++ {
		if s != nil {
			s.close()
		}
		s = &session{wl: wl, in: in, exe: o.Exe, seed: o.Seed, tr: &tracers{}}
		t0 := time.Now()
		err := wl.setUp(s)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			s.close()
			return run, fmt.Errorf("%s: set-up: %w", name, err)
		}
	}
	defer s.close()

	plans := untracedPlan
	if o.Trace {
		plans = tracedPlan
		if name == "mesh_hop" {
			s.v.SetPhase(&load.Phase{Name: "probes", Dur: 1})
			if err := s.meshInterestProbes(); err != nil {
				return run, err
			}
		}
	}

	// The background goroutine carries routed_large's churn in every run
	// and the subscriber-side probes while a traced phase is on.
	var probing atomic.Bool
	stop := make(chan struct{})
	var bg sync.WaitGroup
	if o.Trace || name == "routed_large" {
		bg.Add(1)
		go func() {
			defer bg.Done()
			s.background(stop, &probing)
		}()
	}
	stopBackground := sync.OnceFunc(func() { close(stop); bg.Wait() })
	defer stopBackground()

	baseline, err := s.sample()
	if err != nil {
		return run, err
	}
	var phases []*measured
	for _, pl := range plans {
		m, err := s.runPhase(pl, o.Seconds, &probing)
		if err != nil {
			return run, fmt.Errorf("%s: phase %s: %w", name, pl.name, err)
		}
		phases = append(phases, m)
	}
	stopBackground()
	// Output checks: every delivery verified by the readers, and the
	// brokers' own counters agreeing with what the generator saw. A broker
	// adds a batch to its counters after queueing the batch's deliveries, so
	// the last delivery can be read here a moment before it is counted
	// there: give the counters two seconds to catch up.
	fails := s.v.Check()
	final := phases[len(phases)-1].after
	statsErrs := s.statsCheck(baseline, final)
	for deadline := time.Now().Add(2 * time.Second); len(statsErrs) > 0 && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		if final, err = s.sample(); err != nil {
			return run, err
		}
		statsErrs = s.statsCheck(baseline, final)
	}
	for _, c := range []*load.Conn{s.pub, s.sub} {
		if c != nil && c.Err() != nil {
			statsErrs = append(statsErrs, "connection lost: "+c.Err().Error())
		}
	}
	run.Attempted = s.v.ExpectedTotal
	run.Failed = fails.Total()
	run.Correct = run.Failed == 0 && len(statsErrs) == 0
	run.Detail = map[string]any{
		"setups_s":    setups,
		"rates_hz":    wl.rates,
		"failures":    fails,
		"stats_check": statsErrs,
		"phases":      describe(phases),
	}

	byName := map[string]*measured{}
	for _, m := range phases {
		byName[m.plan.name] = m
	}
	set := func(name string, v float64) { run.Metrics[name] = report.Value{Value: v} }
	if base := byName["base"]; !o.Trace {
		set("setup_s", report.Median(setups))
		set("latency_p50_us", base.sum.P50/1e3)
		set("latency_p90_us", base.sum.P90/1e3)
		return run, nil
	}
	s.tracedMetrics(set, byName, final, baseline, fails)
	if err := writeSpans(filepath.Join(o.OutDir, "trace-"+name+".jsonl"), s.drv, phases); err != nil {
		return run, err
	}
	return run, nil
}

// statsCheck holds the brokers' counters against the generator's.
func (s *session) statsCheck(baseline, final []sut.Sample) (errs []string) {
	var out, drops uint64
	for i := range final {
		out += final[i].Stats.MsgsOut - baseline[i].Stats.MsgsOut
		drops += final[i].Stats.SlowConsumerDrops - baseline[i].Stats.SlowConsumerDrops
	}
	if out+drops != s.v.ExpectedTotal {
		errs = append(errs, fmt.Sprintf("MsgsOut %d + Drops %d != expected deliveries %d", out, drops, s.v.ExpectedTotal))
	}
	if in := final[0].Stats.MsgsIn - baseline[0].Stats.MsgsIn; in != s.drv.Published() {
		errs = append(errs, fmt.Sprintf("MsgsIn %d != published %d", in, s.drv.Published()))
	}
	if len(final) == 2 {
		routed := final[0].Stats.RoutedMsgs - baseline[0].Stats.RoutedMsgs
		if inB := final[1].Stats.MsgsIn - baseline[1].Stats.MsgsIn; routed != inB {
			errs = append(errs, fmt.Sprintf("A routed %d != B received %d", routed, inB))
		}
	}
	return errs
}

// sample reads every broker's counters.
func (s *session) sample() ([]sut.Sample, error) {
	out := make([]sut.Sample, len(s.brokers))
	for i, b := range s.brokers {
		var err error
		if out[i], err = b.Sample(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (s *session) runPhase(pl plan, seconds float64, probing *atomic.Bool) (*measured, error) {
	m := &measured{plan: pl}
	var err error
	if m.before, err = s.sample(); err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocs0 := ms.Mallocs
	cpu0, _ := sut.ProcessCPU()
	published0 := s.drv.Published()

	s.drv.Trace, s.drv.OnTick = pl.traced, nil
	phase := &load.Phase{Name: pl.name, Dur: int64(seconds * pl.share * 1e9)}
	if pl.traced {
		phase.SampleEvery = sampleEvery
		s.drv.OnTick = s.probe
	}
	probing.Store(pl.traced)
	phase.Start = load.Now()
	stats := s.v.SetPhase(phase)
	if pl.rate >= 0 {
		m.rateHz = s.wl.rates[pl.rate]
		m.pacing, err = s.drv.Paced(phase, m.rateHz)
	} else {
		err = s.drv.Closed(phase, s.wl.window*s.wl.fanout, s.wl.fanout)
	}
	if err != nil {
		return nil, err
	}
	m.missing = s.drv.Drain()
	m.wallNs = load.Now() - phase.Start
	probing.Store(false)

	cpu1, _ := sut.ProcessCPU()
	runtime.ReadMemStats(&ms)
	m.genCPU, m.genAllocs = cpu1-cpu0, ms.Mallocs-allocs0
	m.published = s.drv.Published() - published0
	if m.after, err = s.sample(); err != nil {
		return nil, err
	}
	m.stats, m.sum = stats, load.Summarize(stats)
	return m, nil
}

func ms(ns float64) float64 { return ns / 1e6 }

// tracedMetrics fills the per-layer metrics of a traced run.
func (s *session) tracedMetrics(set func(string, float64), ph map[string]*measured, final, baseline []sut.Sample, fails load.Failures) {
	base, closed, untraced := ph["base"], ph["closed"], ph["closed_untraced"]
	deliveries := float64(closed.sum.Deliveries)
	genCPU, allCPU := float64(closed.genCPU), float64(closed.allCPU())

	set("gen.late_share", base.pacing.LateShare())
	set("gen.max_lag_ms", ms(float64(base.pacing.MaxLagNs)))
	set("gen.cpu_share", genCPU/allCPU)

	var brokerCPU, allocs, pause, rss, msgsOut, bytesOut float64
	var drops, discs, waits, timeouts uint64
	for i := range closed.after {
		a, b := closed.after[i], closed.before[i]
		brokerCPU += float64(closed.brokerCPU(i))
		allocs += float64(a.Mallocs - b.Mallocs)
		pause += float64(a.PauseNanos - b.PauseNanos)
		rss += float64(final[i].MaxRSSKB) / 1024
		drops += final[i].Stats.SlowConsumerDrops - baseline[i].Stats.SlowConsumerDrops
		discs += final[i].Stats.SlowConsumerDisconnects - baseline[i].Stats.SlowConsumerDisconnects
		waits += a.Stats.AdmissionWaits - b.Stats.AdmissionWaits
		timeouts += a.Stats.AdmissionTimeouts - b.Stats.AdmissionTimeouts
		msgsOut += float64(a.Stats.MsgsOut - b.Stats.MsgsOut)
		bytesOut += float64(a.Stats.BytesOut - b.Stats.BytesOut)
	}
	// Publishes enter at the first broker only.
	msgsIn := float64(closed.after[0].Stats.MsgsIn - closed.before[0].Stats.MsgsIn)
	set("broker.server.cpu_us_per_delivery", brokerCPU/deliveries)
	set("broker.server.allocs_per_delivery", allocs/deliveries)
	set("broker.server.gc_pause_ms", ms(pause))
	set("broker.server.peak_rss_mb", rss)
	set("broker.server.msgs_in", msgsIn)
	set("broker.server.msgs_out", msgsOut)
	set("broker.server.bytes_out", bytesOut)
	set("broker.server.fanout_ratio", msgsOut/msgsIn)
	set("broker.server.slow_drops", float64(drops))
	set("broker.server.slow_disconnects", float64(discs))
	set("broker.admission.waits", float64(waits))
	set("broker.admission.timeouts", float64(timeouts))

	// Transit: publish write-return to delivery read, joined by publish id
	// over the sampled deliveries of the closed-loop phase. A delivery the
	// broker got out before the generator's write call returned counts 0.
	var transit hist.H
	for _, d := range closed.sum.Spans {
		if p, ok := s.drv.Span(d.ID); ok {
			transit.Record(d.Read - p.Return)
		}
	}
	set("broker.server.transit_ms_p50", ms(transit.Quantile(0.5)))
	set("broker.server.transit_ms_p99", ms(transit.Quantile(0.99)))
	set("broker.server.p50_ms_at_mid", ms(ph["mid"].sum.P50))
	set("broker.server.p99_ms_at_mid", ms(ph["mid"].sum.P99))
	set("broker.server.p50_ms_at_high", ms(ph["high"].sum.P50))
	set("broker.server.p99_ms_at_high", ms(ph["high"].sum.P99))
	sustainedHz := 0
	for _, name := range []string{"base", "mid", "high"} {
		if ph[name].sustained() {
			sustainedHz = ph[name].rateHz
		}
	}
	set("sustained_rate_hz", float64(sustainedHz))

	// Link, sublist and client probes, pooled over the traced phases. On
	// routed_large the client library sends the PINGs.
	subPing, pubPing, subRTT := &s.tr.subPingRTT, &s.tr.flush, &s.tr.subRTT
	if s.pub != nil {
		subPing, pubPing, subRTT = new(hist.H), new(hist.H), new(hist.H)
		for _, name := range []string{"base", "mid", "high", "closed"} {
			subPing.Merge(&ph[name].stats[s.subReader].Probes[load.ProbePing])
			subRTT.Merge(&ph[name].stats[s.subReader].Probes[load.ProbeSub])
			pubPing.Merge(&ph[name].stats[s.pubReader].Probes[load.ProbePing])
		}
	}
	set("broker.link.sub_ping_rtt_ms_p50", ms(subPing.Quantile(0.5)))
	set("broker.link.sub_ping_rtt_ms_p99", ms(subPing.Quantile(0.99)))
	set("broker.link.pub_ping_rtt_ms_p50", ms(pubPing.Quantile(0.5)))
	set("broker.link.pub_ping_rtt_ms_p99", ms(pubPing.Quantile(0.99)))
	set("broker.sublist.sub_rtt_ms_p50", ms(subRTT.Quantile(0.5)))
	set("broker.sublist.sub_rtt_ms_p99", ms(subRTT.Quantile(0.99)))
	set("broker.sublist.churn_ops", float64(s.tr.churnOps))

	// The client library runs in this process, so its cost is the
	// generator's; the raw workloads bypass it and report 0.
	if s.pub == nil {
		msgs := float64(closed.published) + deliveries
		set("broker.client.publish_us_p50", s.tr.publish.Quantile(0.5)/1e3)
		set("broker.client.publish_us_p99", s.tr.publish.Quantile(0.99)/1e3)
		set("broker.client.flush_ms_p50", ms(s.tr.flush.Quantile(0.5)))
		set("broker.client.allocs_per_msg", float64(closed.genAllocs)/msgs)
		set("broker.client.cpu_us_per_msg", genCPU/msgs)
	}

	if len(final) == 2 {
		s.routeMetrics(set, closed, final, baseline, fails)
	}
	set("trace.overhead_pct", 100*(untraced.sum.PerSecond-closed.sum.PerSecond)/untraced.sum.PerSecond)
	set("deliveries_per_s", untraced.sum.PerSecond)
	set("cpu_us_per_delivery", float64(untraced.allCPU())/float64(untraced.sum.Deliveries))
	set("latency_p95_us", base.sum.P95/1e3)
	set("latency_p99_us", base.sum.P99/1e3)
}

// routeMetrics fills broker.route.* from the two brokers of mesh_hop.
func (s *session) routeMetrics(set func(string, float64), closed *measured, final, baseline []sut.Sample, fails load.Failures) {
	// hop_added: for one publish, how much later the sids on B read it
	// than the sid on A did.
	atA := map[uint64]int64{}
	for _, d := range closed.sum.Spans {
		if int(d.Sid) < meshSubjects {
			atA[d.ID] = d.Read
		}
	}
	var hop hist.H
	for _, d := range closed.sum.Spans {
		if sid := int(d.Sid); sid >= meshSubjects && sid < meshPlainSids {
			if a, ok := atA[d.ID]; ok {
				hop.Record(d.Read - a)
			}
		}
	}
	set("broker.route.hop_added_ms_p50", ms(hop.Quantile(0.5)))
	set("broker.route.hop_added_ms_p99", ms(hop.Quantile(0.99)))
	set("broker.route.interest_ms_p50", ms(s.tr.interest.Quantile(0.5)))
	routed := closed.after[0].Stats.RoutedMsgs - closed.before[0].Stats.RoutedMsgs
	set("broker.route.routed_msgs", float64(routed))
	set("broker.route.remote_subs", float64(final[0].Stats.RemoteSubs+final[1].Stats.RemoteSubs))
	set("broker.route.dups_suppressed", float64(final[0].Stats.DupsSuppressed+final[1].Stats.DupsSuppressed))
	set("broker.route.queue_not_once", float64(fails.QueueNotOnce))
	set("broker.route.origin_cpu_us_per_msg", float64(closed.brokerCPU(0))/float64(closed.published))
	edgeOut := closed.after[1].Stats.MsgsOut - closed.before[1].Stats.MsgsOut
	set("broker.route.edge_cpu_us_per_delivery", float64(closed.brokerCPU(1))/float64(edgeOut))
}

// describe renders every phase for the result file: all percentiles, the
// sample counts, and what the generator and the brokers spent.
func describe(phases []*measured) []map[string]any {
	var out []map[string]any
	for _, m := range phases {
		d := map[string]any{
			"name": m.plan.name, "traced": m.plan.traced, "rate_hz": m.rateHz,
			"published": m.published, "deliveries": m.sum.Deliveries, "missing": m.missing,
			"wall_s": float64(m.wallNs) / 1e9, "deliveries_per_s": m.sum.PerSecond,
			"p50_ms": ms(m.sum.P50), "p90_ms": ms(m.sum.P90), "p95_ms": ms(m.sum.P95), "p99_ms": ms(m.sum.P99), "p99.9_ms": ms(m.sum.P999),
			"window_p50_ms": scale(m.sum.WindowP50[:]), "window_p99_ms": scale(m.sum.WindowP99[:]),
			"mean_deliveries_per_s": m.sum.MeanPerSecond,
			"late_share":            m.pacing.LateShare(), "max_lag_ms": ms(float64(m.pacing.MaxLagNs)),
			"gen_cpu_us": m.genCPU, "sustained": m.plan.rate >= 0 && m.sustained(),
		}
		for i := range m.after {
			d["broker"+strconv.Itoa(i)+"_cpu_us"] = m.brokerCPU(i)
		}
		out = append(out, d)
	}
	return out
}

func scale(ns []float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = ms(v)
	}
	return out
}

// maxSpanLines caps the span file: a traced fanout_small run samples over a
// million deliveries, which the aggregates use and nobody wants to read.
const maxSpanLines = 200_000

// writeSpans writes the sampled publishes and their deliveries as JSON
// lines, times in nanoseconds on the generator's clock.
func writeSpans(path string, drv *load.Driver, phases []*measured) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	lines := 0
	for _, m := range phases {
		spans := m.sum.Spans
		sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
		var last uint64
		for _, d := range spans {
			if lines >= maxSpanLines {
				break
			}
			if d.ID != last {
				p, ok := drv.Span(d.ID)
				if !ok {
					continue
				}
				fmt.Fprintf(w, `{"span":"publish","phase":%q,"id":%d,"due":%d,"call":%d,"return":%d}`+"\n", m.plan.name, p.ID, p.Due, p.Call, p.Return)
				last = d.ID
				lines++
			}
			fmt.Fprintf(w, `{"span":"delivery","parent":%d,"sid":%d,"read":%d}`+"\n", d.ID, d.Sid, d.Read)
			lines++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
