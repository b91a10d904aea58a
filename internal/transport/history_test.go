package transport_test

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"adamant/internal/sim"
	"adamant/internal/transport"
	"adamant/internal/wire"
)

// ringOracle is the history as one flat slice allocated up front: the
// behaviour the paged History must keep.
type ringOracle struct {
	ring   []wire.Packet
	src    wire.NodeID
	stream wire.StreamID
}

func (r *ringOracle) put(pkt *wire.Packet) {
	r.src, r.stream = pkt.Src, pkt.Stream
	r.ring[pkt.Seq%uint64(len(r.ring))] = *pkt
}

func (r *ringOracle) has(seq uint64) bool {
	return seq != 0 && r.ring[seq%uint64(len(r.ring))].Seq == seq
}

// TestHistoryMatchesRing drives the paged History and a flat ring through
// the same random Put/Has/Retrans sequences, on lengths either side of a
// page boundary, with seqs that wrap the ring several times and sometimes
// jump or step back.
func TestHistoryMatchesRing(t *testing.T) {
	for _, n := range []int{1, 1023, 1024, 1025, 16384} {
		rng := rand.New(rand.NewSource(int64(n)))
		h := transport.NewHistory(n)
		o := &ringOracle{ring: make([]wire.Packet, n)}
		var cur uint64
		ops := 5*n + 4000
		for op := 0; op < ops; op++ {
			switch r := rng.Intn(10); {
			case r < 6: // publish the next seq, now and then a jump or a step back
				switch rng.Intn(50) {
				case 0:
					cur += uint64(rng.Intn(3 * n))
				case 1:
					cur -= min(cur, uint64(rng.Intn(n+1)))
				default:
					cur++
				}
				pkt := &wire.Packet{Type: wire.TypeData, Src: wire.NodeID(rng.Intn(3)), Stream: wire.StreamID(1 + rng.Intn(2)),
					Seq: cur, SentAt: sim.Epoch.Add(time.Duration(op)), Payload: []byte{byte(op), byte(op >> 8), byte(op >> 16)}}
				h.Put(pkt)
				o.put(pkt)
			default: // ask about a seq near the head, far behind it, or 0
				seq := cur + 2 - min(cur+2, uint64(rng.Intn(3*n+3)))
				if got, want := h.Has(seq), o.has(seq); got != want {
					t.Fatalf("n=%d op %d: Has(%d) = %v, ring says %v", n, op, seq, got, want)
				}
				got := h.Retrans(seq)
				if !o.has(seq) {
					if got != nil {
						t.Fatalf("n=%d op %d: Retrans(%d) = %+v for a seq not held", n, op, seq, got)
					}
					continue
				}
				e := o.ring[seq%uint64(n)]
				if got == nil || got.Type != wire.TypeRetrans || got.Src != o.src || got.Stream != o.stream ||
					got.Seq != seq || !got.SentAt.Equal(e.SentAt) || !bytes.Equal(got.Payload, e.Payload) {
					t.Fatalf("n=%d op %d: Retrans(%d) = %+v, ring holds %+v from %d/%d", n, op, seq, got, e, o.src, o.stream)
				}
			}
		}
		if cur < 3*uint64(n) {
			t.Fatalf("n=%d: seqs reached only %d, not several wraps", n, cur)
		}
	}
}
