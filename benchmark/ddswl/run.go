package ddswl

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"adamant/benchmark/hist"
	"adamant/benchmark/report"
	"adamant/benchmark/spans"
	"adamant/benchmark/sut"
	"adamant/internal/ann"
	"adamant/internal/core"
	"adamant/internal/dds"
	"adamant/internal/env"
	"adamant/internal/netem"
	"adamant/internal/probe"
	"adamant/internal/sim"
	"adamant/internal/transport"
	"adamant/internal/wire"
)

// Options are what the command line chooses; everything else is frozen.
type Options struct {
	Seed    int64
	Seconds float64
	Trace   bool
	Smoke   bool   // small units: API drift, not speed
	Repo    string // for data/adamant.ann
	OutDir  string
	Setups  int
}

// Unit sizes. One cell unit is what adamant-dataset repeats 1200 times: all
// seven candidates through a writer and 15 readers at the paper's 20 000
// samples per cell. The sample count matters: fountcast's cost grows faster
// than linearly with it and owns about 80 % of a unit at this size (and a
// quarter of one at 2500), which is the split this workload exists to show.
type sizes struct {
	cellReaders, cellSamples   int
	stormReaders, stormSamples int
	// switchesPerUnit is four laps of the candidate cycle; a writer's
	// rebind chain holds 32 epochs, so one writer cannot do many more.
	switchesPerUnit int
}

var (
	fullSizes  = sizes{cellReaders: 15, cellSamples: 20000, stormReaders: 200, stormSamples: 4000, switchesPerUnit: 28}
	smokeSizes = sizes{cellReaders: 15, cellSamples: 150, stormReaders: 40, stormSamples: 200, switchesPerUnit: 8}
)

// Shares of Options.Seconds in a traced run; the cell units take what they
// take on top. An untraced run is one cell unit, whatever that takes.
const (
	tracedStormShare  = 0.15
	tracedSwitchShare = 0.10
	tracedDecideShare = 0.10
)

const switchEvery = time.Second // virtual

// unit is one pass over the seven candidates.
type unit struct {
	wallNs     int64 // build + run, all seven
	cells      []outcome
	cellWallNs []int64
	// latency pools the virtual-time delivery latency of every sample at
	// every reader of every candidate: what a user of the middleware sees
	// in this environment, and a function of the seed alone.
	latency hist.H
}

func (u *unit) deliveries() (n uint64) {
	for _, c := range u.cells {
		n += c.delivered
	}
	return n
}

func (u *unit) perSecond() float64 { return float64(u.deliveries()) / (float64(u.wallNs) / 1e9) }

func runUnit(seed int64, sz sizes, rec *spans.Recorder) (*unit, error) {
	u := &unit{}
	t0 := time.Now()
	for _, spec := range core.Candidates() {
		c0 := time.Now()
		o, err := runCell(seed, spec, sz, rec, &u.latency)
		if err != nil {
			return nil, err
		}
		u.cells = append(u.cells, o)
		u.cellWallNs = append(u.cellWallNs, int64(time.Since(c0)))
	}
	u.wallNs = int64(time.Since(t0))
	return u, nil
}

func runCell(seed int64, spec transport.Spec, sz sizes, rec *spans.Recorder, latency *hist.H) (outcome, error) {
	t, err := build(topoConfig{seed: seed, spec: spec, readers: sz.cellReaders, samples: sz.cellSamples, rec: rec, latency: latency})
	if err != nil {
		return outcome{}, err
	}
	return t.run(nil)
}

// Run runs dds_sim and reports its metrics.
func Run(o Options) (report.Run, error) {
	run := report.Run{Workload: "dds_sim", Seed: o.Seed, Seconds: o.Seconds, Trace: o.Trace, Metrics: map[string]report.Value{}}
	sz := fullSizes
	if o.Smoke {
		sz = smokeSizes
	}
	budget := func(share float64) time.Duration { return time.Duration(o.Seconds * share * float64(time.Second)) }
	set := func(name string, v float64) { run.Metrics[name] = report.Value{Value: v} }

	// Set-up: build one cell's network and load the ANN with its 2400
	// controllers. Timed several times, median reported.
	var setups []float64
	var dec *decider
	for i := 0; i < o.Setups; i++ {
		t0 := time.Now()
		if _, err := build(topoConfig{seed: o.Seed, spec: core.Candidates()[0], readers: sz.cellReaders, samples: sz.cellSamples}); err != nil {
			return run, err
		}
		var err error
		if dec, err = newDecider(filepath.Join(o.Repo, "data", "adamant.ann"), o.Seed); err != nil {
			return run, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var failed, attempted, silent uint64
	var problems []string
	tally := func(what string, outs ...outcome) {
		for _, c := range outs {
			attempted += c.expected
			failed += c.miscounted
			silent += c.silent
			if c.miscounted > 0 {
				problems = append(problems, fmt.Sprintf("%s: %d of %d samples delivered twice or both delivered and lost", what, c.miscounted, c.expected))
			}
		}
	}
	finish := func() {
		run.Attempted, run.Failed, run.Correct = attempted, failed, failed == 0 && len(problems) == 0
		run.Detail = map[string]any{"setups_s": setups, "problems": problems, "silent_losses": silent}
	}

	// One cell unit is the whole of an untraced run: its virtual-time
	// delivery latencies are the end-to-end latency of this workload.
	unitSeed := sim.DeriveSeed(o.Seed, "cell")
	if !o.Trace {
		u, err := runUnit(unitSeed, sz, nil)
		if err != nil {
			return run, err
		}
		tally("cell", u.cells...)
		// The nakcast(1 ms) cell again with the same seed: virtual time
		// must repeat exactly.
		again, err := runCell(unitSeed, core.Candidates()[3], sz, nil, nil)
		if err != nil {
			return run, err
		}
		if first := u.cells[3]; again.summary != first.summary {
			problems = append(problems, fmt.Sprintf("nakcast(1ms) cell did not repeat: %+v then %+v", first.summary, again.summary))
		}
		finish()
		run.Detail["cell_unit_s"] = float64(u.wallNs) / 1e9
		set("setup_s", report.Median(setups))
		set("latency_p50_us", u.latency.Quantile(0.5)/1e3)
		set("latency_p90_us", u.latency.Quantile(0.9)/1e3)
		return run, nil
	}

	// Traced run. One cell unit runs under the recorder, then again without
	// it: that prices the recorder, checks that it changed nothing in
	// virtual time (and that virtual time repeats at all), and gives the
	// throughput and CPU numbers of the untraced stack.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rec := newRecorder()
	traced, err := runUnit(unitSeed, sz, rec)
	if err != nil {
		return run, err
	}
	tally("traced cell", traced.cells...)
	cpu0, _ := sut.ProcessCPU()
	plain, err := runUnit(unitSeed, sz, nil)
	if err != nil {
		return run, err
	}
	cpu1, _ := sut.ProcessCPU()
	tally("cell", plain.cells...)
	runtime.ReadMemStats(&m1)
	var runNs int64
	var events uint64
	for i, c := range plain.cells {
		runNs += c.runNs
		events += c.events
		if c.summary != traced.cells[i].summary {
			problems = append(problems, fmt.Sprintf("%s: the traced cell and its untraced repeat differ: %+v, %+v",
				core.Candidates()[i], traced.cells[i].summary, c.summary))
		}
	}
	if root, self := rec.Totals[layerRun].Total, rec.SelfSum(); root == 0 || float64(abs(self-root))/float64(root) > 0.05 {
		problems = append(problems, fmt.Sprintf("span self times sum to %d ns, root spans to %d ns", self, root))
	}
	set("deliveries_per_s", plain.perSecond())
	set("cpu_us_per_delivery", float64(cpu1-cpu0)/float64(plain.deliveries()))
	cellMetrics(set, traced, rec)
	set("sim.events", float64(events))
	set("sim.ns_per_event", float64(runNs)/float64(events))
	set("sim.events_per_s", float64(events)/(float64(runNs)/1e9))
	set("proc.allocs_per_delivery", float64(m1.Mallocs-m0.Mallocs)/float64(traced.deliveries()+plain.deliveries()))
	set("trace.overhead_pct", 100*(plain.perSecond()-traced.perSecond())/plain.perSecond())
	enc, decd := wireCosts()
	set("wire.encode_ns", enc)
	set("wire.decode_ns", decd)

	st, err := storm(o.Seed, sz, budget(tracedStormShare))
	if err != nil {
		return run, err
	}
	tally("storm", st.outs...)
	set("storm_deliveries_per_s", report.Median(st.rates))
	set("sim.sharded.events_per_s", report.Median(st.eventRates))
	set("sim.sharded.workers", float64(runtime.NumCPU()))

	sw, err := switching(o.Seed, sz, budget(tracedSwitchShare))
	if err != nil {
		return run, err
	}
	tally("switch", sw.outs...)
	attempted += sw.switches
	failed += sw.failedSwitches
	if sw.failedSwitches > 0 {
		problems = append(problems, fmt.Sprintf("switch: %d of %d rebinds failed", sw.failedSwitches, sw.switches))
	}
	set("core.rebind_switches", float64(sw.switches))
	set("rebind_apply_p50_us", sw.apply.Quantile(0.5)/1e3)
	set("core.rebind_apply_us_p99", sw.apply.Quantile(0.99)/1e3)
	set("transport.binding.drain_ms_p50", sw.drainFirstUnit.Quantile(0.5)/1e6)

	d := dec.run(budget(tracedDecideShare))
	attempted += d.calls
	failed += d.wrong
	if d.wrong > 0 {
		problems = append(problems, fmt.Sprintf("decide: %d of %d decisions differ from the selector's direct answer", d.wrong, d.calls))
	}
	set("latency_p95_us", plain.latency.Quantile(0.95)/1e3)
	set("latency_p99_us", plain.latency.Quantile(0.99)/1e3)
	set("decision_p50_us", d.p50/1e3)
	set("decision_p99_us", d.p99/1e3)
	dec.layerCosts(set)

	_, rss := sut.ProcessCPU()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	set("proc.peak_rss_mb", float64(rss)/1024)
	set("proc.gc_cpu_share", m2.GCCPUFraction)
	finish()
	run.Detail["decide"] = d.describe()
	run.Detail["cell_unit_s"] = float64(plain.wallNs) / 1e9
	if err := rec.Write(filepath.Join(o.OutDir, "trace-dds_sim.jsonl")); err != nil {
		return run, err
	}
	return run, nil
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// cellMetrics fills the middleware-stack metrics from the traced unit. The
// counts are functions of the seed alone and must repeat exactly.
func cellMetrics(set func(string, float64), u *unit, rec *spans.Recorder) {
	us := func(ns float64) float64 { return ns / 1e3 }
	write, send, recv := &rec.Totals[layerWrite], &rec.Totals[layerSend], &rec.Totals[layerRecv]
	set("dds.write_us_p50", us(write.Dur.Quantile(0.5)))
	set("dds.write_us_p99", us(write.Dur.Quantile(0.99)))
	set("dds.write_self_us_p50", us(write.SelfDur.Quantile(0.5)))
	set("transport.recv_us_p50", us(recv.Dur.Quantile(0.5)))
	set("netem.send_us_p50", us(send.Dur.Quantile(0.5)))
	set("netem.calls", float64(send.Count))
	set("netem.self_share", float64(send.Self)/float64(rec.Totals[layerRun].Total))

	var sum outcome
	var relate2 float64
	family := map[string]*struct {
		wall      int64
		delivered uint64
	}{"nakcast": {}, "ricochet": {}, "fountcast": {}}
	for i, c := range u.cells {
		sum.expected += c.expected
		sum.delivered += c.delivered
		sum.lost += c.lost
		sum.droppedQoS += c.droppedQoS
		sum.readerRx += c.readerRx
		sum.rx.Recovered += c.rx.Recovered
		sum.rx.Duplicates += c.rx.Duplicates
		sum.rx.NaksSent += c.rx.NaksSent
		sum.rx.RepairsSent += c.rx.RepairsSent
		sum.rx.RepairsUseless += c.rx.RepairsUseless
		sum.rx.Abandoned += c.rx.Abandoned
		if c.rx.MaxBuffered > sum.rx.MaxBuffered {
			sum.rx.MaxBuffered = c.rx.MaxBuffered
		}
		sum.net.TxPackets += c.net.TxPackets
		sum.net.RxPackets += c.net.RxPackets
		sum.net.DroppedLoss += c.net.DroppedLoss
		sum.net.DroppedQueue += c.net.DroppedQueue
		relate2 += c.summary.ReLate2
		f := family[core.Candidates()[i].Name]
		f.wall += u.cellWallNs[i]
		f.delivered += c.delivered
	}
	for name, f := range family {
		set("transport."+name+".wall_share", float64(f.wall)/float64(u.wallNs))
		set("transport."+name+".deliveries_per_s", float64(f.delivered)/(float64(f.wall)/1e9))
	}
	set("relate2", relate2/float64(len(u.cells)))
	set("reliability_pct", 100*float64(sum.delivered)/float64(sum.expected))
	set("dds.samples_lost", float64(sum.lost))
	set("dds.dropped_by_qos", float64(sum.droppedQoS))
	set("transport.recovered", float64(sum.rx.Recovered))
	set("transport.duplicates", float64(sum.rx.Duplicates))
	set("transport.naks_sent", float64(sum.rx.NaksSent))
	set("transport.repairs_sent", float64(sum.rx.RepairsSent))
	set("transport.repairs_useless", float64(sum.rx.RepairsUseless))
	set("transport.abandoned", float64(sum.rx.Abandoned))
	set("transport.max_buffered", float64(sum.rx.MaxBuffered))
	set("transport.useful_ratio", float64(sum.delivered)/float64(sum.readerRx))
	set("netem.tx_packets", float64(sum.net.TxPackets))
	set("netem.rx_packets", float64(sum.net.RxPackets))
	set("netem.dropped_loss", float64(sum.net.DroppedLoss))
	set("netem.dropped_queue", float64(sum.net.DroppedQueue))
}

// wireCosts times direct Encode and Decode calls on the cell's data packet.
func wireCosts() (encodeNs, decodeNs float64) {
	pkt := &wire.Packet{Type: wire.TypeData, Src: 1, Stream: dds.StreamIDForTopic(topicName), Seq: 1, SentAt: sim.Epoch, Payload: make([]byte, payloadBytes)}
	buf, err := pkt.Encode(nil)
	if err != nil {
		return 0, 0
	}
	const batch, batches = 20_000, 9
	var enc, dec []float64
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			pkt.Seq = uint64(i)
			buf, _ = pkt.Encode(buf[:0]) // cannot fail: the payload size did not change
		}
		t1 := time.Now()
		for i := 0; i < batch; i++ {
			if _, err := wire.Decode(buf); err != nil {
				return 0, 0
			}
		}
		enc = append(enc, float64(t1.Sub(t0))/batch)
		dec = append(dec, float64(time.Since(t1))/batch)
	}
	return report.Median(enc), report.Median(dec)
}

// ---- storm ----

type stormResult struct {
	outs       []outcome
	rates      []float64 // deliveries per host second, per unit
	eventRates []float64
}

// storm floods bemcast from one writer to a large reader group on the
// sharded engine with one worker per CPU. bemcast has no repair logic, so
// the phase isolates sim + netem + wire + dds from the recovery code.
func storm(seed int64, sz sizes, budget time.Duration) (*stormResult, error) {
	res := &stormResult{}
	spec := transport.Spec{Name: "bemcast"}
	for start := time.Now(); len(res.outs) == 0 || time.Since(start) < budget; {
		t0 := time.Now()
		t, err := build(topoConfig{
			seed: sim.DeriveSeed(seed, fmt.Sprintf("storm/%d", len(res.outs))), spec: spec,
			readers: sz.stormReaders, samples: sz.stormSamples, workers: runtime.NumCPU(), bestEffort: true,
		})
		if err != nil {
			return nil, err
		}
		o, err := t.run(nil)
		if err != nil {
			return nil, err
		}
		wall := time.Since(t0).Seconds()
		res.outs = append(res.outs, o)
		res.rates = append(res.rates, float64(o.delivered)/wall)
		res.eventRates = append(res.eventRates, float64(o.events)/(float64(o.runNs)/1e9))
	}
	return res, nil
}

// ---- switch ----

type switchResult struct {
	outs                     []outcome
	switches, failedSwitches uint64
	apply                    hist.H // SwitchRecord.ApplyTime, host ns
	drainFirstUnit           hist.H // receiver-observed drain latency, virtual ns
}

// switching hot-swaps a live writer through the candidate cycle once per
// virtual second, via core.Rebinder as the Adaptor would.
func switching(seed int64, sz sizes, budget time.Duration) (*switchResult, error) {
	res := &switchResult{}
	cands := core.Candidates()
	samples := (sz.switchesPerUnit + 1) * rateHz * int(switchEvery/time.Second)
	for start := time.Now(); len(res.outs) == 0 || time.Since(start) < budget; {
		t, err := build(topoConfig{
			seed: sim.DeriveSeed(seed, fmt.Sprintf("switch/%d", len(res.outs))), spec: cands[0],
			readers: sz.cellReaders, samples: samples,
		})
		if err != nil {
			return nil, err
		}
		rb, err := core.NewRebinder(t.writerNode.Env(), t.writerP)
		if err != nil {
			return nil, err
		}
		o, err := t.run(func(wenv env.Env) {
			for i := 1; i <= sz.switchesPerUnit; i++ {
				spec := cands[i%len(cands)]
				wenv.Schedule(time.Duration(i)*switchEvery, func() { rb.Reconfigure(core.Decision{Spec: spec}) })
			}
		})
		if err != nil {
			return nil, err
		}
		for _, rec := range rb.Switches() {
			res.switches++
			if rec.Err != nil || rec.Writers != 1 {
				res.failedSwitches++
			}
			res.apply.Record(int64(rec.ApplyTime))
		}
		if missing := uint64(sz.switchesPerUnit) - uint64(len(rb.Switches())); missing > 0 {
			res.switches += missing
			res.failedSwitches += missing
		}
		if len(res.outs) == 0 {
			for _, r := range t.readers {
				epochs := r.TransportEpochs()
				for _, e := range epochs[:len(epochs)-1] { // the newest epoch never drains
					if e.Done {
						res.drainFirstUnit.Record(int64(e.DrainLatency))
					}
				}
			}
		}
		res.outs = append(res.outs, o)
	}
	return res, nil
}

// ---- decide ----

// decider holds the decision path as ADAMANT boots it: a trained network
// behind an ANNSelector and one Controller per environment.
type decider struct {
	net         *ann.Network
	selector    *core.ANNSelector
	controllers []*core.Controller
	features    []core.Features
	want        []int // candidate index each controller must choose
	sources     []probe.StaticSource
}

// newDecider loads the network and builds a controller for every point of
// the paper's 1200-environment grid and both metrics, in seed order.
func newDecider(annPath string, seed int64) (*decider, error) {
	net, err := ann.LoadFile(annPath)
	if err != nil {
		return nil, err
	}
	d := &decider{net: net}
	if d.selector, err = core.NewANNSelector(net); err != nil {
		return nil, err
	}
	type point struct {
		m      netem.Machine
		bw     netem.Bandwidth
		params core.AppParams
	}
	var grid []point
	for _, m := range []netem.Machine{netem.PC850, netem.PC3000} {
		for _, bw := range []netem.Bandwidth{netem.Mbps10, netem.Mbps100, netem.Gbps1} {
			for _, im := range dds.Impls() {
				for loss := 1; loss <= 5; loss++ {
					for _, recv := range []int{3, 6, 9, 12, 15} {
						for _, rate := range []float64{10, 25, 50, 100} {
							for _, metric := range core.Metrics() {
								grid = append(grid, point{m, bw, core.AppParams{
									Receivers: recv, RateHz: rate, LossPct: float64(loss), Impl: im, Metric: metric,
								}})
							}
						}
					}
				}
			}
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(grid), func(i, j int) { grid[i], grid[j] = grid[j], grid[i] })
	for _, p := range grid {
		src := probe.ForMachine(p.m, p.bw)
		c, err := core.NewController(src, d.selector, p.params)
		if err != nil {
			return nil, err
		}
		f := core.FeaturesFor(p.m, p.bw, p.params.Impl, p.params.LossPct, p.params.Receivers, p.params.RateHz, p.params.Metric)
		spec, err := d.selector.Select(f)
		if err != nil {
			return nil, err
		}
		idx, err := core.CandidateIndex(spec)
		if err != nil {
			return nil, err
		}
		d.controllers = append(d.controllers, c)
		d.features = append(d.features, f)
		d.want = append(d.want, idx)
		d.sources = append(d.sources, src)
	}
	return d, nil
}

// decideWindows: like the paced latencies, each decision percentile is the
// median over equal consecutive windows of the window's percentile.
const decideWindows = 5

type decideResult struct {
	calls, wrong        uint64
	p50, p95, p99, p999 float64 // ns
}

func (r *decideResult) describe() map[string]any {
	return map[string]any{"calls": r.calls, "wrong": r.wrong, "p50_us": r.p50 / 1e3, "p95_us": r.p95 / 1e3,
		"p99_us": r.p99 / 1e3, "p99.9_us": r.p999 / 1e3}
}

// run times full Decide() calls (probe -> features -> ANN) for the budget,
// cycling the grid, and checks every answer.
func (d *decider) run(budget time.Duration) *decideResult {
	res := &decideResult{}
	var windows [decideWindows]hist.H
	for i, c := range d.controllers { // warm caches and the selector's buffer
		if dec, err := c.Decide(); err != nil || !d.right(i, dec) {
			res.wrong++
		}
		res.calls++
	}
	start := time.Now()
	for i := 0; ; i = (i + 1) % len(d.controllers) {
		t0 := time.Now()
		dec, err := d.controllers[i].Decide()
		took := time.Since(t0)
		elapsed := t0.Sub(start)
		if elapsed >= budget {
			break
		}
		windows[int(elapsed*decideWindows/budget)].Record(int64(took))
		res.calls++
		if err != nil || !d.right(i, dec) {
			res.wrong++
		}
	}
	over := func(q float64) float64 {
		var v []float64
		for w := range windows {
			if windows[w].Count() > 0 {
				v = append(v, windows[w].Quantile(q))
			}
		}
		return report.Median(v)
	}
	res.p50, res.p95, res.p99, res.p999 = over(0.5), over(0.95), over(0.99), over(0.999)
	return res
}

func (d *decider) right(i int, dec core.Decision) bool {
	idx, err := core.CandidateIndex(dec.Spec)
	return err == nil && idx == d.want[i] && dec.Features == d.features[i]
}

// layerCosts times each stage of the decision path on its own, in batches
// so that the clock's own cost does not drown a sub-microsecond call.
func (d *decider) layerCosts(set func(string, float64)) {
	const batch, batches = 64, 400
	per := func(f func(i int)) float64 {
		var h hist.H
		for b := 0; b < batches; b++ {
			t0 := time.Now()
			for i := 0; i < batch; i++ {
				f((b*batch + i) % len(d.features))
			}
			h.Record(int64(time.Since(t0)) / batch)
		}
		return h.Quantile(0.5)
	}
	vecs := make([][]float64, len(d.features))
	for i, f := range d.features {
		vecs[i] = f.Vector()
	}
	set("ann.run_ns_p50", per(func(i int) { d.net.Run(vecs[i]) })) // errors were ruled out when the grid was built
	set("core.select_ns_p50", per(func(i int) { d.selector.Select(d.features[i]) }))
	set("probe.static_ns_p50", per(func(i int) { d.sources[i].Probe() }))
	var real hist.H
	for i := 0; i < 50; i++ {
		t0 := time.Now()
		if _, err := (probe.RealSource{}).Probe(); err != nil {
			return // no /proc here: leave probe.real_us_p50 at 0
		}
		real.Record(int64(time.Since(t0)))
	}
	set("probe.real_us_p50", real.Quantile(0.5)/1e3)
}
