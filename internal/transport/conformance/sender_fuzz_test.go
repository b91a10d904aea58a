package conformance

import (
	"encoding/binary"
	"testing"
	"time"

	"adamant/internal/env"
	"adamant/internal/sim"
	"adamant/internal/transport"
	"adamant/internal/transport/protocols"
	"adamant/internal/wire"
)

const (
	// fuzzBase rebases every fuzzed sender, as a hot swap does, so hostile
	// seqs can lie below the sequence space as well as past it.
	fuzzBase = 1000
	// fuzzPublished is how many samples each sender publishes before the
	// hostile input arrives.
	fuzzPublished = 200
	// fuzzRecord is the encoded size of one hostile packet.
	fuzzRecord = 20
)

// senderBurst is each protocol's bound on the unicasts one input packet may
// cause at once, and on the unicasts to one receiver at one instant
// afterwards: nakcast's retransBurst (a NAK's synchronous budget and each
// paced drain). The other senders take no input at all.
var senderBurst = map[string]int{"nakcast": 64}

// nakcastMaxRetransQueue mirrors nakcast's maxRetransQueue: with every NAK
// arriving at one instant, the paced retransmissions that follow are the
// queue's contents.
const nakcastMaxRetransQueue = 1 << 14

// senderProbe is the endpoint of one sender under hostile input. It keeps
// the sender's handler for the fuzzer to call, records every unicast, and
// delivers nothing.
type senderProbe struct {
	k        *sim.Kernel
	handler  func(wire.NodeID, *wire.Packet)
	unicasts []probeSend
}

type probeSend struct {
	at  time.Time
	dst wire.NodeID
}

func (p *senderProbe) Local() wire.NodeID { return 1 }
func (p *senderProbe) MTU() int           { return 64 * 1024 }
func (p *senderProbe) Unicast(dst wire.NodeID, _ *wire.Packet) error {
	p.unicasts = append(p.unicasts, probeSend{p.k.Now(), dst})
	return nil
}
func (p *senderProbe) Multicast(*wire.Packet) error                 { return nil }
func (p *senderProbe) Work(time.Duration) time.Duration             { return 0 }
func (p *senderProbe) ScaleCPU(d time.Duration) time.Duration       { return d }
func (p *senderProbe) SetHandler(h func(wire.NodeID, *wire.Packet)) { p.handler = h }

// sendsAfter counts the unicasts after t, in total and per instant and
// destination.
func (p *senderProbe) sendsAfter(t time.Time) (n int, per map[probeSend]int) {
	per = make(map[probeSend]int)
	for _, u := range p.unicasts {
		if u.at.After(t) {
			n++
			per[probeSend{time.Unix(0, u.at.UnixNano()), u.dst}]++
		}
	}
	return n, per
}

// fuzzSeq decodes a seq near the stream (from 256 below the base to past
// the published range) or, when far, anywhere in the 64-bit space.
func fuzzSeq(v uint64, far bool) uint64 {
	if far {
		return v
	}
	return fuzzBase - 256 + v%768
}

// decodeSenderInput turns fuzz bytes into NAK and heartbeat packets, one
// per 20-byte record: kind and flags, source, epoch, two seqs.
func decodeSenderInput(data []byte) []*wire.Packet {
	var pkts []*wire.Packet
	for ; len(data) >= fuzzRecord && len(pkts) < 64; data = data[fuzzRecord:] {
		flags := data[0]
		a := fuzzSeq(binary.BigEndian.Uint64(data[4:]), flags&0x80 != 0)
		b := fuzzSeq(binary.BigEndian.Uint64(data[12:]), flags&0x40 != 0)
		pkt := &wire.Packet{Src: wire.NodeID(2 + data[1]%8), Stream: 1, Epoch: binary.BigEndian.Uint16(data[2:])}
		if flags&0x20 != 0 {
			pkt.Stream = 2 // another stream's control traffic
		}
		var body []byte
		switch flags % 2 {
		case 0:
			pkt.Type = wire.TypeNak
			body, _ = (&wire.NakBody{Ranges: []wire.SeqRange{{From: a, To: b}}}).Encode(nil)
		default:
			pkt.Type, pkt.Seq = wire.TypeHeartbeat, a
			body, _ = (&wire.HeartbeatBody{HighSeq: a}).Encode(nil)
		}
		if flags&0x10 != 0 {
			body = body[:len(body)/2] // truncated: must fail to decode
		}
		pkt.Payload = body
		pkts = append(pkts, pkt)
	}
	return pkts
}

// senderRecord encodes one hostile packet for the seed corpus.
func senderRecord(kind, flags byte, src byte, a, b uint64) []byte {
	r := make([]byte, fuzzRecord)
	r[0], r[1] = kind|flags, src
	binary.BigEndian.PutUint64(r[4:], a)
	binary.BigEndian.PutUint64(r[12:], b)
	return r
}

// FuzzSenderInput feeds hostile NAK and heartbeat packets, with any epoch,
// source and seq range, to a live and to a closed sender of every
// registered spec. Whatever arrives: nothing panics, Seq does not move,
// and each packet causes at most the protocol's burst of unicasts and the
// paced ones that follow stay within it per receiver and instant (and
// within nakcast's queue bound in total).
func FuzzSenderInput(f *testing.F) {
	const nak, hb, farA, farB, otherStream, truncated = 0, 1, 0x80, 0x40, 0x20, 0x10
	f.Add(senderRecord(nak, farA|farB, 0, 1, 1<<40))  // a NAK for 1..2^40
	f.Add(senderRecord(nak, 0, 4, 256, 511))          // a NAK for the whole stream
	f.Add(append(senderRecord(hb, farA, 1, 1<<40, 0), // a far-future heartbeat,
		senderRecord(nak, 0, 2, 0, 300)...)) // then a NAK from below the base
	f.Add(senderRecord(nak, truncated, 3, 256, 511))   // a NAK cut in half
	f.Add(senderRecord(nak, otherStream, 5, 256, 511)) // another stream's NAK

	specs := DefaultCrucibleSpecs()
	reg := protocols.MustRegistry()
	for _, name := range reg.Names() {
		found := false
		for _, s := range specs {
			found = found || s.Name == name
		}
		if !found {
			f.Fatalf("registered protocol %s has no fuzzed spec", name)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		input := decodeSenderInput(data)
		for _, spec := range specs {
			for _, closed := range []bool{false, true} {
				fuzzSender(t, reg, spec, closed, input)
			}
		}
	})
}

func fuzzSender(t *testing.T, reg *transport.Registry, spec transport.Spec, closed bool, input []*wire.Packet) {
	t.Helper()
	k := sim.New(1)
	probe := &senderProbe{k: k}
	s, err := reg.NewSender(spec, transport.Config{
		Env: env.NewSim(k), Endpoint: probe, Stream: 1, BaseSeq: fuzzBase,
		Receivers: transport.StaticReceivers(probe.Local()),
	})
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	for i := 0; i < fuzzPublished; i++ {
		if err := s.Publish([]byte{byte(i)}); err != nil {
			t.Fatalf("%s publish: %v", spec, err)
		}
	}
	if closed {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	burst, takesInput := senderBurst[spec.Name]
	if probe.handler != nil != takesInput {
		t.Fatalf("%s: sender endpoint handler installed = %v", spec, probe.handler != nil)
	}
	seq, start := s.Seq(), k.Now()
	for _, pkt := range input {
		if !takesInput {
			break
		}
		before := len(probe.unicasts)
		probe.handler(pkt.Src, pkt.Clone())
		if n := len(probe.unicasts) - before; n > burst {
			t.Fatalf("%s closed=%v: one %v packet caused %d unicasts, burst is %d", spec, closed, pkt.Type, n, burst)
		}
	}
	if err := k.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if s.Seq() != seq {
		t.Fatalf("%s closed=%v: Seq moved from %d to %d under sender input", spec, closed, seq, s.Seq())
	}
	n, per := probe.sendsAfter(start)
	for at, c := range per {
		if c > burst {
			t.Fatalf("%s closed=%v: %d unicasts to %d at %v, burst is %d", spec, closed, c, at.dst, at.at.Sub(start), burst)
		}
	}
	if spec.Name == "nakcast" && n > nakcastMaxRetransQueue {
		t.Fatalf("%s closed=%v: %d paced retransmissions, queue bound is %d", spec, closed, n, nakcastMaxRetransQueue)
	}
}
