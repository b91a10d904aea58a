// Package ddswl is the dds_sim workload: the middleware stack (dds ->
// transport -> wire -> netem -> sim) in virtual time, and the decision path
// (probe -> core -> ann) in host time, all in this process. The benchmark
// builds every topology itself from the product's exported constructors, so
// the product sees only generated inputs.
package ddswl

import (
	"fmt"
	"math/rand"
	"time"

	"adamant/benchmark/hist"
	"adamant/benchmark/spans"
	"adamant/internal/dds"
	"adamant/internal/env"
	"adamant/internal/metrics"
	"adamant/internal/netem"
	"adamant/internal/sim"
	"adamant/internal/transport"
	"adamant/internal/transport/protocols"
	"adamant/internal/wire"
)

// The environment of every simulated phase: the paper's hardest corner
// (pc3000, 1 Gb LAN, the lighter DDS profile, 5 % end-host loss, 100 Hz,
// 12-byte samples), where the candidates differ most.
const (
	lossPct      = 5
	rateHz       = 100
	payloadBytes = 12
	topicName    = "benchmark/dds_sim"
)

var (
	machine   = netem.PC3000
	bandwidth = netem.Gbps1
	impl      = dds.ImplB
)

// Span layers of a traced cell.
const (
	layerRun = iota
	layerWrite
	layerSend
	layerRecv
	layerListener
)

func newRecorder() *spans.Recorder {
	return spans.New("sim.run", "dds.write", "netem.send", "transport.recv", "dds.listener")
}

// tracedEndpoint is the benchmark's decorator around the endpoint a
// participant is given: a span around every send into netem and around
// every receive upcall into the transport.
type tracedEndpoint struct {
	transport.Endpoint
	rec *spans.Recorder
}

func (e tracedEndpoint) Unicast(dst wire.NodeID, pkt *wire.Packet) error {
	e.rec.Begin(layerSend, pkt.Seq)
	err := e.Endpoint.Unicast(dst, pkt)
	e.rec.End()
	return err
}

func (e tracedEndpoint) Multicast(pkt *wire.Packet) error {
	e.rec.Begin(layerSend, pkt.Seq)
	err := e.Endpoint.Multicast(pkt)
	e.rec.End()
	return err
}

func (e tracedEndpoint) SetHandler(h func(src wire.NodeID, pkt *wire.Packet)) {
	e.Endpoint.SetHandler(func(src wire.NodeID, pkt *wire.Packet) {
		e.rec.Begin(layerRecv, pkt.Seq)
		h(src, pkt)
		e.rec.End()
	})
}

// sink is one reader's listener: it scores deliveries and checks that each
// sample arrives at most once. In a sharded simulation each sink runs on
// its reader's lane, so it shares nothing.
type sink struct {
	dds.ListenerFuncs // the callbacks this workload does not use
	collector         metrics.Collector
	seen              []bool
	delivered, dups   uint64
	lost              uint64
	rec               *spans.Recorder // nil unless traced
	latency           *hist.H         // virtual write-to-callback latency; nil on sharded runs
}

func (s *sink) OnData(sm dds.Sample) {
	if s.rec != nil {
		s.rec.Begin(layerListener, sm.Info.Seq)
		defer s.rec.End()
	}
	if sm.Info.Seq >= uint64(len(s.seen)) || s.seen[sm.Info.Seq] {
		s.dups++
		return
	}
	s.seen[sm.Info.Seq] = true
	s.delivered++
	s.collector.OnDeliver(sm.Info.SentAt, sm.Info.ReceivedAt, sm.Info.Recovered)
	if s.latency != nil {
		s.latency.Record(int64(sm.Info.Latency()))
	}
}

func (s *sink) OnSampleLost(string, uint64) { s.lost++ }

// topoConfig describes one simulated domain: a writer and its readers.
type topoConfig struct {
	seed    int64
	spec    transport.Spec
	readers int
	samples int
	// workers > 0 builds the domain on the sharded engine.
	workers int
	// latency, when set, collects every reader's virtual-time delivery
	// latency (serial kernel only: the readers share it).
	latency *hist.H
	// bestEffort says the transport reports no losses, so that what netem
	// dropped at a reader's node is the only loss there is.
	bestEffort bool
	rec        *spans.Recorder
}

// topo is a built domain, ready to run.
type topo struct {
	cfg         topoConfig
	kernel      *sim.Kernel
	sharded     *sim.Sharded
	writerNode  *netem.Node
	readerNodes []*netem.Node
	writerP     *dds.DomainParticipant
	writer      *dds.DataWriter
	readers     []*dds.DataReader
	sinks       []*sink
}

func build(c topoConfig) (*topo, error) {
	t := &topo{cfg: c}
	var network *netem.Network
	var err error
	if c.workers > 0 {
		t.sharded = sim.NewSharded(c.seed, netem.DefaultPropDelay)
		t.sharded.SetWorkers(c.workers)
		network, err = netem.NewSharded(t.sharded, netem.Config{Bandwidth: bandwidth})
	} else {
		t.kernel = sim.New(c.seed)
		network, err = netem.New(env.NewSim(t.kernel), netem.Config{Bandwidth: bandwidth})
	}
	if err != nil {
		return nil, err
	}
	// A protocol timer loop that fails to terminate must fail the run, not
	// hang it.
	limit := uint64(c.samples)*uint64(c.readers)*400 + 10_000_000
	if t.sharded != nil {
		t.sharded.SetEventLimit(limit)
	} else {
		t.kernel.SetEventLimit(limit)
	}
	reg := protocols.MustRegistry()
	t.writerNode = network.AddNode(machine)
	ids := make([]wire.NodeID, c.readers)
	for i := range ids {
		n := network.AddNode(machine)
		n.SetLoss(lossPct)
		t.readerNodes = append(t.readerNodes, n)
		ids[i] = n.Local()
	}
	participant := func(n *netem.Node) (*dds.DomainParticipant, error) {
		var ep transport.Endpoint = n
		if c.rec != nil {
			ep = tracedEndpoint{Endpoint: n, rec: c.rec}
		}
		return dds.NewParticipant(dds.ParticipantConfig{
			Env: n.Env(), Endpoint: ep, Registry: reg, Transport: c.spec, Impl: impl,
			SenderID: t.writerNode.Local(), Receivers: transport.StaticReceivers(ids...),
		})
	}
	if t.writerP, err = participant(t.writerNode); err != nil {
		return nil, err
	}
	topic, err := t.writerP.CreateTopic(topicName, dds.TopicQoS{Reliability: dds.Reliable})
	if err != nil {
		return nil, err
	}
	if t.writer, err = t.writerP.CreateDataWriter(topic, dds.WriterQoS{Reliability: dds.Reliable}); err != nil {
		return nil, err
	}
	for _, n := range t.readerNodes {
		p, err := participant(n)
		if err != nil {
			return nil, err
		}
		rt, err := p.CreateTopic(topicName, dds.TopicQoS{Reliability: dds.Reliable})
		if err != nil {
			return nil, err
		}
		s := &sink{seen: make([]bool, c.samples+1), rec: c.rec, latency: c.latency}
		r, err := p.CreateDataReader(rt, dds.ReaderQoS{Reliability: dds.Reliable, History: dds.KeepLast, Depth: 1}, s)
		if err != nil {
			return nil, err
		}
		t.readers = append(t.readers, r)
		t.sinks = append(t.sinks, s)
	}
	return t, nil
}

// outcome is what one run of a domain produced.
type outcome struct {
	runNs     int64 // host time inside the engine's Run
	events    uint64
	expected  uint64
	delivered uint64
	lost      uint64
	// miscounted counts samples both delivered and reported lost, or
	// delivered twice: the failed operations of the simulated phases.
	miscounted uint64
	// silent counts samples neither delivered nor reported lost. A
	// transport that reports a loss only when its window slides past it
	// (ricochet) leaves the losses of the stream's last window silent, so
	// this is reported, not failed.
	silent     uint64
	summary    metrics.Summary
	rx         transport.ReceiverStats // summed over readers
	droppedQoS uint64
	net        netem.Stats // summed over nodes
	readerRx   uint64      // packets the reader nodes received
}

// run publishes the configured samples at rateHz from the writer's env,
// runs the engine dry, and accounts for every sample at every reader.
// during, when set, is called before the run to schedule anything else.
func (t *topo) run(during func(writerEnv env.Env)) (outcome, error) {
	var o outcome
	c := t.cfg
	period := time.Second / rateHz
	payload := make([]byte, payloadBytes)
	rng := rand.New(rand.NewSource(sim.DeriveSeed(c.seed, "payload")))
	wenv := t.writerNode.Env()
	published := 0
	var writeErr error
	var tick func()
	tick = func() {
		if published >= c.samples {
			writeErr = t.writer.Close()
			return
		}
		rng.Read(payload)
		published++
		if c.rec != nil {
			c.rec.Begin(layerWrite, uint64(published))
		}
		writeErr = t.writer.Write(payload)
		if c.rec != nil {
			c.rec.End()
		}
		if writeErr == nil {
			wenv.Schedule(period, tick)
		}
	}
	wenv.Post(tick)
	if during != nil {
		during(wenv)
	}

	if c.rec != nil {
		c.rec.Begin(layerRun, 0)
	}
	t0 := time.Now()
	var err error
	if t.sharded != nil {
		err = t.sharded.Run()
		o.events = t.sharded.Fired()
	} else {
		err = t.kernel.Run()
		o.events = t.kernel.Fired()
	}
	o.runNs = int64(time.Since(t0))
	if c.rec != nil {
		c.rec.End()
	}
	if err == nil {
		err = writeErr
	}
	if err != nil {
		return o, fmt.Errorf("dds_sim: %s seed %d: %w", c.spec, c.seed, err)
	}

	var merged metrics.Collector
	for i, s := range t.sinks {
		r := t.readers[i]
		lost := s.lost
		if c.bestEffort {
			st := t.readerNodes[i].Stats()
			lost = st.DroppedLoss + st.DroppedQueue
		}
		o.delivered += s.delivered
		o.lost += lost
		if got := s.delivered + lost; got > uint64(c.samples) {
			o.miscounted += got - uint64(c.samples)
		} else {
			o.silent += uint64(c.samples) - got
		}
		o.miscounted += s.dups
		merged.Merge(&s.collector)
		rs := r.TransportStats()
		o.rx.Recovered += rs.Recovered
		o.rx.Duplicates += rs.Duplicates
		o.rx.NaksSent += rs.NaksSent
		o.rx.RepairsSent += rs.RepairsSent
		o.rx.RepairsUseless += rs.RepairsUseless
		o.rx.Abandoned += rs.Abandoned
		if rs.MaxBuffered > o.rx.MaxBuffered {
			o.rx.MaxBuffered = rs.MaxBuffered
		}
		o.droppedQoS += r.DroppedByQoS()
		o.readerRx += t.readerNodes[i].Stats().RxPackets
	}
	o.expected = uint64(c.samples) * uint64(c.readers)
	o.summary = merged.Summary(o.expected)
	for _, n := range append([]*netem.Node{t.writerNode}, t.readerNodes...) {
		st := n.Stats()
		o.net.TxPackets += st.TxPackets
		o.net.RxPackets += st.RxPackets
		o.net.DroppedLoss += st.DroppedLoss
		o.net.DroppedQueue += st.DroppedQueue
	}
	return o, nil
}
