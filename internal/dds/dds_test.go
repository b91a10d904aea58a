package dds_test

import (
	"fmt"
	"testing"
	"time"

	"adamant/internal/dds"
	"adamant/internal/env"
	"adamant/internal/netem"
	"adamant/internal/sim"
	"adamant/internal/transport"
	"adamant/internal/transport/protocols"
	"adamant/internal/wire"
)

// world is a simulated LAN with one writer participant and n reader
// participants, all on the same transport spec.
type world struct {
	k       *sim.Kernel
	net     *netem.Network
	writerP *dds.DomainParticipant
	readerP []*dds.DomainParticipant
}

func newWorld(t *testing.T, nReaders int, spec transport.Spec, impl dds.Impl) *world {
	t.Helper()
	w := &world{k: sim.New(3)}
	e := env.NewSim(w.k)
	var err error
	w.net, err = netem.New(e, netem.Config{Bandwidth: netem.Gbps1})
	if err != nil {
		t.Fatal(err)
	}
	reg := protocols.MustRegistry()
	writerNode := w.net.AddNode(netem.PC3000)
	readerIDs := make([]wire.NodeID, nReaders)
	readerNodes := make([]*netem.Node, nReaders)
	for i := 0; i < nReaders; i++ {
		readerNodes[i] = w.net.AddNode(netem.PC3000)
		readerIDs[i] = readerNodes[i].Local()
	}
	receivers := transport.StaticReceivers(readerIDs...)
	w.writerP, err = dds.NewParticipant(dds.ParticipantConfig{
		Env: e, Endpoint: writerNode, Registry: reg, Transport: spec,
		Impl: impl, SenderID: writerNode.Local(), Receivers: receivers,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nReaders; i++ {
		p, err := dds.NewParticipant(dds.ParticipantConfig{
			Env: e, Endpoint: readerNodes[i], Registry: reg, Transport: spec,
			Impl: impl, SenderID: writerNode.Local(), Receivers: receivers,
		})
		if err != nil {
			t.Fatal(err)
		}
		w.readerP = append(w.readerP, p)
	}
	return w
}

func TestPubSubEndToEnd(t *testing.T) {
	specs := []transport.Spec{
		{Name: "nakcast", Params: transport.Params{"timeout": "1ms"}},
		{Name: "ricochet", Params: transport.Params{"r": "4", "c": "2"}},
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.String(), func(t *testing.T) {
			w := newWorld(t, 3, spec, dds.ImplB)
			topic, err := w.writerP.CreateTopic("sensors/infrared", dds.TopicQoS{})
			if err != nil {
				t.Fatal(err)
			}
			writer, err := w.writerP.CreateDataWriter(topic, dds.WriterQoS{Reliability: dds.Reliable})
			if err != nil {
				t.Fatal(err)
			}
			got := make([][]dds.Sample, 3)
			for i, p := range w.readerP {
				i := i
				rt, err := p.CreateTopic("sensors/infrared", dds.TopicQoS{})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := p.CreateDataReader(rt, dds.ReaderQoS{Reliability: dds.Reliable},
					dds.ListenerFuncs{Data: func(s dds.Sample) { got[i] = append(got[i], s) }}); err != nil {
					t.Fatal(err)
				}
			}
			for n := 0; n < 30; n++ {
				if err := writer.Write([]byte(fmt.Sprintf("scan-%d", n))); err != nil {
					t.Fatal(err)
				}
				if err := w.k.RunFor(10 * time.Millisecond); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.k.RunFor(time.Second); err != nil {
				t.Fatal(err)
			}
			for i, samples := range got {
				if len(samples) != 30 {
					t.Errorf("reader %d got %d samples, want 30", i, len(samples))
				}
			}
			if writer.Seq() != 30 {
				t.Errorf("writer Seq = %d", writer.Seq())
			}
		})
	}
}

func TestTopicIsolation(t *testing.T) {
	w := newWorld(t, 1, transport.Spec{Name: "nakcast", Params: transport.Params{"timeout": "1ms"}}, dds.ImplA)
	tA, err := w.writerP.CreateTopic("alpha", dds.TopicQoS{})
	if err != nil {
		t.Fatal(err)
	}
	tB, err := w.writerP.CreateTopic("beta", dds.TopicQoS{})
	if err != nil {
		t.Fatal(err)
	}
	wA, err := w.writerP.CreateDataWriter(tA, dds.WriterQoS{Reliability: dds.Reliable})
	if err != nil {
		t.Fatal(err)
	}
	wB, err := w.writerP.CreateDataWriter(tB, dds.WriterQoS{Reliability: dds.Reliable})
	if err != nil {
		t.Fatal(err)
	}
	p := w.readerP[0]
	rA, _ := p.CreateTopic("alpha", dds.TopicQoS{})
	var gotA, gotB []string
	if _, err := p.CreateDataReader(rA, dds.ReaderQoS{Reliability: dds.Reliable},
		dds.ListenerFuncs{Data: func(s dds.Sample) { gotA = append(gotA, string(s.Data)) }}); err != nil {
		t.Fatal(err)
	}
	rB, _ := p.CreateTopic("beta", dds.TopicQoS{})
	if _, err := p.CreateDataReader(rB, dds.ReaderQoS{Reliability: dds.Reliable},
		dds.ListenerFuncs{Data: func(s dds.Sample) { gotB = append(gotB, string(s.Data)) }}); err != nil {
		t.Fatal(err)
	}
	if err := wA.Write([]byte("from-alpha")); err != nil {
		t.Fatal(err)
	}
	if err := wB.Write([]byte("from-beta")); err != nil {
		t.Fatal(err)
	}
	if err := w.k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(gotA) != 1 || gotA[0] != "from-alpha" {
		t.Errorf("topic alpha got %v", gotA)
	}
	if len(gotB) != 1 || gotB[0] != "from-beta" {
		t.Errorf("topic beta got %v", gotB)
	}
}

func TestReliableRecoversLoss(t *testing.T) {
	w := newWorld(t, 1, transport.Spec{Name: "nakcast", Params: transport.Params{"timeout": "1ms"}}, dds.ImplB)
	w.net.Node(1).SetLoss(20)
	topic, _ := w.writerP.CreateTopic("lossy", dds.TopicQoS{})
	writer, err := w.writerP.CreateDataWriter(topic, dds.WriterQoS{Reliability: dds.Reliable})
	if err != nil {
		t.Fatal(err)
	}
	rt, _ := w.readerP[0].CreateTopic("lossy", dds.TopicQoS{})
	var got int
	reader, err := w.readerP[0].CreateDataReader(rt, dds.ReaderQoS{Reliability: dds.Reliable},
		dds.ListenerFuncs{Data: func(dds.Sample) { got++ }})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 200; n++ {
		if err := writer.Write([]byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := w.k.RunFor(5 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if err := writer.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.k.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got != 200 {
		t.Errorf("reliable reader got %d/200 at 20%% loss", got)
	}
	if st := reader.TransportStats(); st.Recovered == 0 {
		t.Error("no recoveries despite loss")
	}
}

func TestBestEffortUsesBemcast(t *testing.T) {
	w := newWorld(t, 1, transport.Spec{Name: "nakcast", Params: transport.Params{"timeout": "1ms"}}, dds.ImplB)
	w.net.Node(1).SetLoss(30)
	topic, _ := w.writerP.CreateTopic("video", dds.TopicQoS{})
	writer, err := w.writerP.CreateDataWriter(topic, dds.WriterQoS{Reliability: dds.BestEffort})
	if err != nil {
		t.Fatal(err)
	}
	rt, _ := w.readerP[0].CreateTopic("video", dds.TopicQoS{})
	var got int
	reader, err := w.readerP[0].CreateDataReader(rt, dds.ReaderQoS{Reliability: dds.BestEffort},
		dds.ListenerFuncs{Data: func(dds.Sample) { got++ }})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 200; n++ {
		if err := writer.Write([]byte("frame")); err != nil {
			t.Fatal(err)
		}
		if err := w.k.RunFor(2 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.k.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got >= 200 || got < 100 {
		t.Errorf("best-effort at 30%% loss delivered %d/200; want lossy but functional", got)
	}
	if st := reader.TransportStats(); st.Recovered != 0 {
		t.Errorf("best-effort should not recover; got %d", st.Recovered)
	}
}

func TestHistoryKeepLast(t *testing.T) {
	w := newWorld(t, 1, transport.Spec{Name: "bemcast"}, dds.ImplA)
	topic, _ := w.writerP.CreateTopic("hist", dds.TopicQoS{})
	writer, _ := w.writerP.CreateDataWriter(topic, dds.WriterQoS{})
	rt, _ := w.readerP[0].CreateTopic("hist", dds.TopicQoS{})
	reader, err := w.readerP[0].CreateDataReader(rt,
		dds.ReaderQoS{History: dds.KeepLast, Depth: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 12; n++ {
		if err := writer.Write([]byte{byte(n)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if reader.CacheLen() != 5 {
		t.Errorf("CacheLen = %d, want 5", reader.CacheLen())
	}
	if reader.DroppedByQoS() != 7 {
		t.Errorf("DroppedByQoS = %d, want 7", reader.DroppedByQoS())
	}
	samples := reader.Read()
	if len(samples) != 5 || samples[0].Data[0] != 7 || samples[4].Data[0] != 11 {
		t.Errorf("Read() = %v", samples)
	}
	taken := reader.Take()
	if len(taken) != 5 || reader.CacheLen() != 0 {
		t.Errorf("Take left %d cached", reader.CacheLen())
	}
}

func TestStreamIDForTopic(t *testing.T) {
	a, b := dds.StreamIDForTopic("alpha"), dds.StreamIDForTopic("beta")
	if a == b {
		t.Error("distinct topics mapped to same stream")
	}
	if a == wire.ControlStream || b == wire.ControlStream {
		t.Error("topic mapped to reserved control stream")
	}
	if dds.StreamIDForTopic("alpha") != a {
		t.Error("stream mapping not deterministic")
	}
}

func TestImplProfiles(t *testing.T) {
	if dds.ImplA.String() != "opendds" || dds.ImplB.String() != "opensplice" {
		t.Errorf("impl names: %v %v", dds.ImplA, dds.ImplB)
	}
	im, err := dds.ImplByName("opensplice")
	if err != nil || im != dds.ImplB {
		t.Errorf("ImplByName: %v %v", im, err)
	}
	if _, err := dds.ImplByName("rti"); err == nil {
		t.Error("unknown impl should error")
	}
	if len(dds.Impls()) != 2 {
		t.Error("Impls() wrong length")
	}
	if dds.Impl(9).String() == "" {
		t.Error("unknown impl String empty")
	}
}

func TestEntityValidationAndClose(t *testing.T) {
	w := newWorld(t, 1, transport.Spec{Name: "bemcast"}, dds.ImplA)
	if _, err := w.writerP.CreateTopic("", dds.TopicQoS{}); err == nil {
		t.Error("empty topic name should error")
	}
	topic, _ := w.writerP.CreateTopic("t", dds.TopicQoS{})
	again, err := w.writerP.CreateTopic("t", dds.TopicQoS{})
	if err != nil || again != topic {
		t.Error("re-creating a topic should return the same instance")
	}
	if topic.Name() != "t" || topic.Stream() == 0 {
		t.Error("topic accessors wrong")
	}
	// Foreign topic rejection.
	foreign, _ := w.readerP[0].CreateTopic("t", dds.TopicQoS{})
	if _, err := w.writerP.CreateDataWriter(foreign, dds.WriterQoS{}); err == nil {
		t.Error("foreign topic should be rejected")
	}
	if _, err := w.writerP.CreateDataReader(foreign, dds.ReaderQoS{}, nil); err == nil {
		t.Error("foreign topic should be rejected for readers")
	}
	// Unknown transport spec: a RELIABLE endpoint builds the participant's.
	warp, err := dds.NewParticipant(dds.ParticipantConfig{
		Env: env.NewSim(w.k), Endpoint: w.net.AddNode(netem.PC3000),
		Registry: protocols.MustRegistry(), Transport: transport.Spec{Name: "warp-drive"},
	})
	if err != nil {
		t.Fatal(err)
	}
	warpTopic, _ := warp.CreateTopic("t", dds.TopicQoS{})
	if _, err := warp.CreateDataWriter(warpTopic, dds.WriterQoS{Reliability: dds.Reliable}); err == nil {
		t.Error("unknown transport should error for writers")
	}
	if _, err := warp.CreateDataReader(warpTopic, dds.ReaderQoS{Reliability: dds.Reliable}, nil); err == nil {
		t.Error("unknown transport should error for readers")
	}

	writer, _ := w.writerP.CreateDataWriter(topic, dds.WriterQoS{})
	if err := w.writerP.Close(); err != nil {
		t.Fatal(err)
	}
	if err := writer.Write(nil); err == nil {
		t.Error("write after participant close should error")
	}
	if _, err := w.writerP.CreateTopic("new", dds.TopicQoS{}); err == nil {
		t.Error("create on closed participant should error")
	}
	if _, err := w.writerP.CreateDataWriter(topic, dds.WriterQoS{}); err == nil {
		t.Error("create writer on closed participant should error")
	}
	if err := w.writerP.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestQoSKindStrings(t *testing.T) {
	if dds.BestEffort.String() != "BEST_EFFORT" || dds.Reliable.String() != "RELIABLE" {
		t.Error("reliability strings wrong")
	}
	if dds.KeepLast.String() != "KEEP_LAST" {
		t.Error("history strings wrong")
	}
	if dds.ReliabilityKind(7).String() == "" || dds.HistoryKind(7).String() == "" {
		t.Error("unknown kinds should stringify")
	}
}

func TestParticipantConfigValidation(t *testing.T) {
	k := sim.New(1)
	e := env.NewSim(k)
	n, err := netem.New(e, netem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	node := n.AddNode(netem.PC3000)
	reg := protocols.MustRegistry()
	good := dds.ParticipantConfig{Env: e, Endpoint: node, Registry: reg,
		Transport: transport.Spec{Name: "bemcast"}}
	cases := []func(c dds.ParticipantConfig) dds.ParticipantConfig{
		func(c dds.ParticipantConfig) dds.ParticipantConfig { c.Env = nil; return c },
		func(c dds.ParticipantConfig) dds.ParticipantConfig { c.Endpoint = nil; return c },
		func(c dds.ParticipantConfig) dds.ParticipantConfig { c.Registry = nil; return c },
		func(c dds.ParticipantConfig) dds.ParticipantConfig { c.Transport = transport.Spec{}; return c },
		func(c dds.ParticipantConfig) dds.ParticipantConfig { c.Impl = dds.Impl(9); return c },
	}
	for i, mutate := range cases {
		if _, err := dds.NewParticipant(mutate(good)); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := dds.NewParticipant(good); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}
