package dds_test

import (
	"fmt"
	"testing"
	"time"

	"adamant/internal/dds"
	"adamant/internal/transport"
)

// TestRebindLiveSwap hot-swaps the participant transport mid-stream and
// checks nothing is lost, duplicated, or reordered across the swap.
func TestRebindLiveSwap(t *testing.T) {
	w := newWorld(t, 2, transport.Spec{Name: "nakcast", Params: transport.Params{"timeout": "2ms"}}, dds.ImplB)
	topic, err := w.writerP.CreateTopic("telemetry", dds.TopicQoS{})
	if err != nil {
		t.Fatal(err)
	}
	writer, err := w.writerP.CreateDataWriter(topic, dds.WriterQoS{Reliability: dds.Reliable})
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]dds.Sample, 2)
	changes := make([][]string, 2)
	for i, p := range w.readerP {
		i := i
		rt, err := p.CreateTopic("telemetry", dds.TopicQoS{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.CreateDataReader(rt, dds.ReaderQoS{Reliability: dds.Reliable},
			dds.ListenerFuncs{
				Data:             func(s dds.Sample) { got[i] = append(got[i], s) },
				TransportChanged: func(_ string, spec transport.Spec) { changes[i] = append(changes[i], spec.String()) },
			}); err != nil {
			t.Fatal(err)
		}
	}
	write := func(n int) {
		for j := 0; j < n; j++ {
			if err := writer.Write([]byte(fmt.Sprintf("s-%d", writer.Seq()))); err != nil {
				t.Fatal(err)
			}
			if err := w.k.RunFor(5 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
	}

	write(25)
	next := transport.Spec{Name: "ackcast", Params: transport.Params{"rto": "20ms"}}
	swapped, err := w.writerP.Rebind(next)
	if err != nil {
		t.Fatal(err)
	}
	if swapped != 1 {
		t.Fatalf("Rebind swapped %d writers, want 1", swapped)
	}
	if w.writerP.TransportSpec().Name != "ackcast" {
		t.Errorf("TransportSpec after Rebind = %s", w.writerP.TransportSpec())
	}
	if writer.TransportEpoch() != 1 || writer.TransportSpec().Name != "ackcast" {
		t.Errorf("writer epoch/spec = %d/%s", writer.TransportEpoch(), writer.TransportSpec())
	}
	write(25)
	if err := writer.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.k.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	for i := range got {
		if len(got[i]) != 50 {
			t.Errorf("reader %d got %d samples, want 50", i, len(got[i]))
		}
		for j, s := range got[i] {
			if s.Info.Seq != uint64(j+1) {
				t.Fatalf("reader %d sample %d has seq %d (order broken across swap)", i, j, s.Info.Seq)
			}
		}
		if len(changes[i]) != 1 || changes[i][0] != next.String() {
			t.Errorf("reader %d TransportChanged calls = %v", i, changes[i])
		}
	}
}

// TestRebindSkipsPinnedWriters checks that writers whose transport was
// fixed by QoS (override or best-effort) do not follow a participant-wide
// rebind.
func TestRebindSkipsPinnedWriters(t *testing.T) {
	w := newWorld(t, 1, transport.Spec{Name: "nakcast", Params: transport.Params{"timeout": "2ms"}}, dds.ImplA)
	tAdaptive, _ := w.writerP.CreateTopic("adaptive", dds.TopicQoS{})
	tPinned, _ := w.writerP.CreateTopic("pinned", dds.TopicQoS{})
	tVideo, _ := w.writerP.CreateTopic("video", dds.TopicQoS{})
	adaptive, err := w.writerP.CreateDataWriter(tAdaptive, dds.WriterQoS{Reliability: dds.Reliable})
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := w.writerP.CreateDataWriter(tPinned, dds.WriterQoS{
		Reliability: dds.Reliable,
		Transport:   transport.Spec{Name: "ricochet", Params: transport.Params{"r": "4", "c": "2"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	video, err := w.writerP.CreateDataWriter(tVideo, dds.WriterQoS{Reliability: dds.BestEffort})
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Pinned() || !pinned.Pinned() || !video.Pinned() {
		t.Fatalf("pinned flags = %v/%v/%v", adaptive.Pinned(), pinned.Pinned(), video.Pinned())
	}

	swapped, err := w.writerP.Rebind(transport.Spec{Name: "bemcast"})
	if err != nil {
		t.Fatal(err)
	}
	if swapped != 1 {
		t.Errorf("Rebind swapped %d writers, want 1", swapped)
	}
	if adaptive.TransportSpec().Name != "bemcast" {
		t.Errorf("adaptive writer = %s, want bemcast", adaptive.TransportSpec())
	}
	if pinned.TransportSpec().Name != "ricochet" || video.TransportSpec().Name != "bemcast" {
		t.Errorf("pinned specs moved: %s / %s", pinned.TransportSpec(), video.TransportSpec())
	}
	if pinned.TransportEpoch() != 0 || video.TransportEpoch() != 0 {
		t.Errorf("pinned writers changed epoch: %d / %d", pinned.TransportEpoch(), video.TransportEpoch())
	}
}

func TestRebindValidation(t *testing.T) {
	w := newWorld(t, 1, transport.Spec{Name: "bemcast"}, dds.ImplA)
	if _, err := w.writerP.Rebind(transport.Spec{}); err == nil {
		t.Error("empty spec should be rejected")
	}
	if _, err := w.writerP.Rebind(transport.Spec{Name: "warp-drive"}); err == nil {
		t.Error("unknown protocol should be rejected")
	}
	// Same spec: no-op, no error.
	swapped, err := w.writerP.Rebind(transport.Spec{Name: "bemcast"})
	if err != nil || swapped != 0 {
		t.Errorf("same-spec rebind = (%d, %v)", swapped, err)
	}
	if err := w.writerP.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.writerP.Rebind(transport.Spec{Name: "bemcast"}); err != dds.ErrEntityClosed {
		t.Errorf("rebind after close = %v, want ErrEntityClosed", err)
	}
}

// TestRebindReaderEpochs checks the reader-side drain bookkeeping is
// exposed through TransportEpochs.
func TestRebindReaderEpochs(t *testing.T) {
	w := newWorld(t, 1, transport.Spec{Name: "nakcast", Params: transport.Params{"timeout": "2ms"}}, dds.ImplB)
	topic, _ := w.writerP.CreateTopic("epochs", dds.TopicQoS{})
	writer, err := w.writerP.CreateDataWriter(topic, dds.WriterQoS{Reliability: dds.Reliable})
	if err != nil {
		t.Fatal(err)
	}
	rt, _ := w.readerP[0].CreateTopic("epochs", dds.TopicQoS{})
	reader, err := w.readerP[0].CreateDataReader(rt, dds.ReaderQoS{Reliability: dds.Reliable}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 10; j++ {
		if err := writer.Write([]byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := w.k.RunFor(5 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.writerP.Rebind(transport.Spec{Name: "ricochet", Params: transport.Params{"r": "4", "c": "2"}}); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 10; j++ {
		if err := writer.Write([]byte("y")); err != nil {
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
	epochs := reader.TransportEpochs()
	if len(epochs) != 2 {
		t.Fatalf("reader saw %d epochs, want 2", len(epochs))
	}
	if e0 := epochs[0]; !e0.Done || e0.Cut != 10 || e0.Spec.Name != "nakcast" {
		t.Errorf("epoch 0 = %+v", e0)
	}
	if reader.TransportSpec().Name != "ricochet" {
		t.Errorf("reader TransportSpec = %s", reader.TransportSpec())
	}
	if st := reader.TransportStats(); st.Delivered != 20 {
		t.Errorf("Delivered = %d, want 20", st.Delivered)
	}
}
