package conformance

import (
	"encoding/binary"
	"testing"
	"time"

	"adamant/internal/env"
	"adamant/internal/sim"
	"adamant/internal/transport"
	"adamant/internal/transport/protocols"
	"adamant/internal/transport/transporttest"
	"adamant/internal/wire"
)

const (
	// fuzzStream is how many genuine samples the sender publishes, one
	// every fuzzPeriod; the receiver closes at sample fuzzRecvClose.
	fuzzStream    = 300
	fuzzRecvClose = 250
	fuzzPeriod    = 10 * time.Millisecond
	// fuzzOutage bounds the samples one input may hide from the receiver.
	fuzzOutage = 20000
)

// Record kinds of the receiver fuzz input. An outage is not a packet: the
// sender publishes a burst whose data packets never reach the receiver.
const (
	kindData = iota
	kindRetrans
	kindHeartbeat
	kindEOS
	kindSymbol
	kindRepair
	kindNak
	kindOutage
)

// hostile is one decoded record: a packet the fuzzer hands the receiver at
// a point of the genuine stream, or an outage of n samples there.
type hostile struct {
	at  time.Duration
	src wire.NodeID
	pkt *wire.Packet
	n   int
}

// decodeReceiverInput turns fuzz bytes into hostile records, one per 20
// bytes: kind and flags, source, injection point (in sample periods),
// epoch, two seqs.
func decodeReceiverInput(data []byte) []hostile {
	var out []hostile
	outage := 0
	for ; len(data) >= fuzzRecord && len(out) < 64; data = data[fuzzRecord:] {
		flags := data[0]
		raw := binary.BigEndian.Uint64(data[4:])
		a := fuzzSeq(raw, flags&0x80 != 0)
		b := fuzzSeq(binary.BigEndian.Uint64(data[12:]), flags&0x40 != 0)
		h := hostile{at: time.Duration(data[2])*fuzzPeriod + fuzzPeriod/2, src: wire.NodeID(data[1] % 8)}
		pkt := &wire.Packet{Src: h.src, Stream: 1, Seq: a, Epoch: uint16(data[3])}
		if flags&0x20 != 0 {
			pkt.Stream = 2 // another stream's traffic
		}
		var body []byte
		switch flags & 7 {
		case kindData, kindRetrans:
			pkt.Type, body = wire.TypeData, []byte{byte(a)}
			if flags&7 == kindRetrans {
				pkt.Type = wire.TypeRetrans
			}
		case kindHeartbeat, kindEOS:
			pkt.Type = wire.TypeHeartbeat
			if flags&7 == kindEOS {
				pkt.Flags = wire.FlagEOS
			}
			body, _ = (&wire.HeartbeatBody{HighSeq: a}).Encode(nil)
		case kindSymbol:
			block := a // near: one of the stream's K=8 blocks or just around them
			if flags&0x80 == 0 {
				block = (a - (fuzzBase - 256)) / 8
			}
			pkt.Type = wire.TypeSymbol
			body, _ = (&wire.SymbolBody{Block: block, Count: uint16(b % 10), SymbolID: uint32(b), Seed: b,
				Fold: wire.Fold{SentAt: b, Len: uint16(b % 16), Data: make([]byte, b%16)}}).Encode(nil)
		case kindRepair:
			var group []*wire.Packet
			for i := uint64(0); i < 2+b%3; i++ {
				group = append(group, &wire.Packet{Seq: a + i, SentAt: sim.Epoch, Payload: []byte{byte(a + i)}})
			}
			pkt.Type = wire.TypeRepair
			body, _ = wire.AppendRepair(nil, group)
		case kindNak:
			pkt.Type = wire.TypeNak
			body, _ = (&wire.NakBody{Ranges: []wire.SeqRange{{From: a, To: b}}}).Encode(nil)
		default:
			h.n = int(min(raw%(fuzzOutage+1), uint64(fuzzOutage-outage)))
			outage += h.n
			out = append(out, h)
			continue
		}
		if flags&0x10 != 0 {
			body = body[:len(body)/2] // truncated: must fail to decode
		}
		pkt.Payload = body
		h.pkt = pkt
		out = append(out, h)
	}
	return out
}

// receiverRecord encodes one record for the seed corpus.
func receiverRecord(kind, flags, src, at byte, a uint64) []byte {
	r := make([]byte, fuzzRecord)
	r[0], r[1], r[2] = kind|flags, src, at
	binary.BigEndian.PutUint64(r[4:], a)
	return r
}

// FuzzReceiver hands hostile data, retrans, heartbeat (with and without
// EOS), symbol, repair and NAK packets, with any source, epoch and seq near
// or far, to the receiver of every registered spec in between the genuine
// stream of that spec's sender, and hides outages of up to 20 000 samples
// from it. Whatever arrives: nothing panics, MaxBuffered stays within the
// spec's span cap, the OnLost calls and kernel events each hostile packet
// adds to the same run without it stay within that cap, and nothing is
// delivered after Close.
func FuzzReceiver(f *testing.F) {
	const farA = 0x80
	f.Add(receiverRecord(kindHeartbeat, farA, 0, 0, 1<<40)) // a corrupt heartbeat's high seq 2^40
	f.Add(receiverRecord(kindData, farA, 0, 10, 1<<40))     // a far-future seq
	f.Add(receiverRecord(kindOutage, 0, 0, 20, fuzzOutage)) // a 20 000-seq outage
	f.Add(receiverRecord(kindHeartbeat, farA, 5, 0, 1<<40)) // the same heartbeat forged by a stranger
	// A symbol for block 4 (seqs 1033-1040), a repair from seq 1010 and an
	// early EOS at 1100: a near seq v is fuzzBase-256+v%768.
	f.Add(append(receiverRecord(kindSymbol, 0, 0, 30, 32),
		append(receiverRecord(kindRepair, 0, 0, 30, 266), receiverRecord(kindEOS, 0, 0, 40, 356)...)...))

	specs := DefaultCrucibleSpecs()
	reg := protocols.MustRegistry()
	spans := make([]uint64, len(specs))
	for i, spec := range specs {
		fac, err := reg.Lookup(spec.Name)
		if err != nil {
			f.Fatal(err)
		}
		if spans[i], err = fac.Span(spec.Params); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		input := decodeReceiverInput(data)
		hostiles := uint64(0)
		for _, h := range input {
			if h.pkt != nil {
				hostiles++
			}
		}
		for i, spec := range specs {
			span := spans[i]
			calm := fuzzReceiver(t, reg, spec, input, false)
			got := fuzzReceiver(t, reg, spec, input, true)
			if got.st.MaxBuffered > span {
				t.Fatalf("%s: MaxBuffered %d over the span cap %d", spec, got.st.MaxBuffered, span)
			}
			if got.lost > calm.lost+hostiles*span {
				t.Fatalf("%s: %d OnLost calls, %d without the %d hostile packets", spec, got.lost, calm.lost, hostiles)
			}
			if got.fired > calm.fired+hostiles*span {
				t.Fatalf("%s: %d kernel events, %d without the %d hostile packets", spec, got.fired, calm.fired, hostiles)
			}
		}
	})
}

// tap is the receiver's fabric attachment. It keeps the receiver's handler
// for the fuzzer to call, and its Work reports the charged cost as the
// CPU's delay, so deliveries are deferred and some are in flight at Close.
type tap struct {
	*transporttest.Endpoint
	handler func(wire.NodeID, *wire.Packet)
}

func (p *tap) SetHandler(h func(wire.NodeID, *wire.Packet)) {
	p.handler = h
	p.Endpoint.SetHandler(h)
}

func (p *tap) Work(cost time.Duration) time.Duration { return max(p.Endpoint.Work(cost), cost) }

type receiverRun struct {
	st          transport.ReceiverStats
	lost, fired uint64
}

// fuzzReceiver runs spec's sender and receiver over a 1 ms fabric: the
// sender publishes the genuine stream and every outage burst, the receiver
// closes partway, and, when withHostile is set, each decoded packet is
// handed to the receiver at its point of the stream.
func fuzzReceiver(t *testing.T, reg *transport.Registry, spec transport.Spec, input []hostile, withHostile bool) receiverRun {
	t.Helper()
	k := sim.New(1)
	k.SetEventLimit(5_000_000)
	e := env.NewSim(k)
	fab := transporttest.New(e, time.Millisecond)
	ep := &tap{Endpoint: fab.Endpoint(1)}
	s, err := reg.NewSender(spec, transport.Config{
		Env: e, Endpoint: fab.Endpoint(0), Stream: 1, BaseSeq: fuzzBase, Receivers: transport.StaticReceivers(1),
	})
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	var run receiverRun
	closed := false
	r, err := reg.NewReceiver(spec, transport.Config{
		Env: e, Endpoint: ep, Stream: 1, BaseSeq: fuzzBase, Receivers: transport.StaticReceivers(1),
		Deliver: func(d transport.Delivery) {
			if closed {
				t.Fatalf("%s: seq %d delivered after Close", spec, d.Seq)
			}
		},
		OnLost: func(uint64) { run.lost++ },
	})
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	hiding := false
	fab.Drop = func(from, _ wire.NodeID, pkt *wire.Packet) bool {
		return hiding && from == 0 && pkt.Type == wire.TypeData
	}
	publish := func(n int) {
		for i := 0; i < n; i++ {
			_ = s.Publish([]byte{byte(i)})
		}
	}
	for i := 0; i < fuzzStream; i++ {
		k.After(time.Duration(i)*fuzzPeriod, func() { publish(1) })
	}
	for _, h := range input {
		switch {
		case h.pkt == nil:
			k.After(h.at, func() { hiding = true; publish(h.n); hiding = false })
		case withHostile:
			k.After(h.at, func() {
				pkt := h.pkt.Clone()
				pkt.SentAt = k.Now()
				ep.handler(h.src, pkt)
			})
		}
	}
	k.After(fuzzRecvClose*fuzzPeriod, func() { closed = true; _ = r.Close() })
	k.After(fuzzStream*fuzzPeriod, func() { _ = s.Close() })
	if err := k.RunFor(fuzzStream*fuzzPeriod + 5*time.Second); err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	run.st, run.fired = r.Stats(), k.Fired()
	return run
}
