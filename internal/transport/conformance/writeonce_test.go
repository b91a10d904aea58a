package conformance

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"adamant/internal/netem/chaos"
	"adamant/internal/transport"
	"adamant/internal/wire"
)

// sendLog records every packet handed to an endpoint together with its
// encoding at the moment it was handed over. Under the sharded engine the
// nodes send from several workers, hence the lock.
type sendLog struct {
	mu   sync.Mutex
	sent []sentPacket
}

type sentPacket struct {
	pkt *wire.Packet
	enc []byte
}

func (l *sendLog) record(pkt *wire.Packet) {
	enc, _ := pkt.Marshal() // an unencodable packet records as nil and must stay so
	l.mu.Lock()
	l.sent = append(l.sent, sentPacket{pkt, enc})
	l.mu.Unlock()
}

// rewritten returns the recorded packets that no longer encode to the bytes
// they had when they were sent.
func (l *sendLog) rewritten() []sentPacket {
	var bad []sentPacket
	for _, s := range l.sent {
		if enc, _ := s.pkt.Marshal(); !bytes.Equal(enc, s.enc) {
			bad = append(bad, s)
		}
	}
	return bad
}

// writeOnceEndpoint is an endpoint decorator that logs every send.
type writeOnceEndpoint struct {
	transport.Endpoint
	log *sendLog
}

func (e writeOnceEndpoint) Unicast(dst wire.NodeID, pkt *wire.Packet) error {
	e.log.record(pkt)
	return e.Endpoint.Unicast(dst, pkt)
}

func (e writeOnceEndpoint) Multicast(pkt *wire.Packet) error {
	e.log.record(pkt)
	return e.Endpoint.Multicast(pkt)
}

// TestSentPacketsWrittenOnce holds every protocol to transport.Endpoint's
// ownership rule: a packet handed to the network is never written again,
// by its sender or by any receiver it reaches (netem hands every receiver
// of a multicast the sender's packet itself). Each cell logs every send on
// every node, and at quiescence each logged packet must still encode to the
// bytes it had when it was sent. The cells are every registered protocol
// under the loss ramp, which drives NAKs, retransmissions, repairs and
// symbols, and one rebind chain through the split-brain partition, which
// drives announcements, parked packets and end-of-stream lingers; each runs
// on both engines.
func TestSentPacketsWrittenOnce(t *testing.T) {
	var cells []CrucibleScenario
	for _, spec := range DefaultCrucibleSpecs() {
		cells = append(cells, CrucibleScenario{Spec: spec, Chaos: chaos.LossyRamp(), Seed: 1})
	}
	ric, nak := mustSpec("ricochet(c=3,r=4)"), mustSpec("nakcast(timeout=5ms)")
	cells = append(cells, CrucibleScenario{Spec: ric, Chaos: chaos.SplitBrain(), Seed: 1, Switches: []TransportSwitch{
		{At: 1200 * time.Millisecond, Spec: nak},
		{At: 1600 * time.Millisecond, Spec: ric},
		{At: 2000 * time.Millisecond, Spec: mustSpec("fountcast(k=8,oh=25)")},
	}})
	for _, shards := range []int{0, 2} {
		for _, cs := range cells {
			cs.Shards = shards
			log := &sendLog{}
			cs.wrap = func(ep transport.Endpoint) transport.Endpoint { return writeOnceEndpoint{ep, log} }
			t.Run(cs.Name(), func(t *testing.T) {
				if _, err := ExecuteCrucible(cs); err != nil {
					t.Fatal(err)
				}
				if len(log.sent) == 0 {
					t.Fatal("no send was logged")
				}
				t.Logf("%d sends", len(log.sent))
				bad := log.rewritten()
				for _, s := range bad[:min(len(bad), 5)] {
					now, _ := s.pkt.Marshal()
					t.Errorf("%s seq %d from node %d was written after it was sent:\n sent %x\n  now %x",
						s.pkt.Type, s.pkt.Seq, s.pkt.Src, s.enc, now)
				}
				if len(bad) > 0 {
					t.Errorf("%d of %d sent packets were written after they were sent", len(bad), len(log.sent))
				}
			})
		}
	}
}
