package dds_test

import (
	"testing"
	"time"

	"adamant/internal/dds"
	"adamant/internal/transport"
)

// TestSampleLostStatus drives the SAMPLE_LOST path: under total blackout of
// a run of samples (data and retransmissions all dropped), NAKcast exhausts
// its retry budget and the reader's listener must be told which samples
// died.
func TestSampleLostStatus(t *testing.T) {
	spec := transport.Spec{Name: "nakcast", Params: transport.Params{"timeout": "2ms"}}
	w := newWorld(t, 1, spec, dds.ImplB)

	topic, err := w.writerP.CreateTopic("lossy", dds.TopicQoS{Reliability: dds.Reliable})
	if err != nil {
		t.Fatal(err)
	}
	writer, err := w.writerP.CreateDataWriter(topic, dds.WriterQoS{Reliability: dds.Reliable})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := w.readerP[0].CreateTopic("lossy", dds.TopicQoS{Reliability: dds.Reliable})
	if err != nil {
		t.Fatal(err)
	}
	var delivered int
	var lostSeqs []uint64
	_, err = w.readerP[0].CreateDataReader(rt, dds.ReaderQoS{Reliability: dds.Reliable},
		dds.ListenerFuncs{
			Data: func(dds.Sample) { delivered++ },
			SampleLost: func(topic string, seq uint64) {
				if topic != "lossy" {
					t.Errorf("lost topic = %q", topic)
				}
				lostSeqs = append(lostSeqs, seq)
			},
		})
	if err != nil {
		t.Fatal(err)
	}

	// End-host loss drops data and retransmissions but spares control
	// packets, so the sender's heartbeats still reveal the gap.
	for n := 0; n < 40; n++ {
		if n == 10 {
			w.net.Node(1).SetLoss(100)
		}
		if n == 30 {
			// Outlast the retry budget: 8 NAKs backing off from 2ms give
			// up about a second after the gap is seen.
			if err := w.k.RunFor(2 * time.Second); err != nil {
				t.Fatal(err)
			}
			w.net.Node(1).SetLoss(0)
		}
		if err := writer.Write([]byte{byte(n)}); err != nil {
			t.Fatal(err)
		}
		if err := w.k.RunFor(10 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if err := writer.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.k.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Samples 11..30 went into the blackout and were given up before it
	// ended, so the blackout window must be reported lost, and every sample
	// accounted for exactly once.
	if len(lostSeqs) == 0 {
		t.Fatal("no SAMPLE_LOST notifications despite a blackout")
	}
	if delivered+len(lostSeqs) != 40 {
		t.Errorf("delivered %d + lost %d != 40 sent", delivered, len(lostSeqs))
	}
	if len(lostSeqs) != 20 {
		t.Errorf("%d samples lost; expected the 20 of the blackout window", len(lostSeqs))
	}
	seen := map[uint64]bool{}
	for _, s := range lostSeqs {
		if seen[s] {
			t.Errorf("seq %d reported lost twice", s)
		}
		seen[s] = true
	}
}
