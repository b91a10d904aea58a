package fountcast_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"adamant/internal/wire"
)

// TestBandwidthOverheadInvariant pins the headline bandwidth claim: the
// bytes spent on repair symbols stay within 1.15x of the configured
// overhead rate relative to the bytes spent on source data, across
// overhead settings and payload seeds. The 15% slack covers the symbol
// body's fixed framing (block id, seed, XOR-folded metadata) relative to
// a data packet of the same payload size; a regression that emits extra
// symbols, over-sized masks, or duplicate repair rounds blows through it
// immediately. Recovery state must also stay bounded the whole time.
func TestBandwidthOverheadInvariant(t *testing.T) {
	const (
		samples     = 96 // multiple of every K below: no forced tail repair
		payloadSize = 256
	)
	for _, oh := range []int{10, 25, 50, 100} {
		for seed := int64(1); seed <= 3; seed++ {
			h := newHarness(t, 2, fmt.Sprintf("fountcast(k=8,oh=%d)", oh))
			var dataBytes, symbolBytes int
			h.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool {
				if to != 1 { // count one receiver's copy of the multicast
					return false
				}
				switch pkt.Type {
				case wire.TypeData:
					dataBytes += pkt.EncodedSize()
				case wire.TypeSymbol:
					symbolBytes += pkt.EncodedSize()
				}
				return false
			}
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < samples; i++ {
				buf := make([]byte, payloadSize)
				rng.Read(buf)
				if err := h.sender.Publish(buf); err != nil {
					t.Fatal(err)
				}
				if err := h.k.RunFor(2 * time.Millisecond); err != nil {
					t.Fatal(err)
				}
			}
			h.finish(t)

			if dataBytes == 0 || symbolBytes == 0 {
				t.Fatalf("oh=%d seed=%d: no traffic counted (data=%d symbol=%d)",
					oh, seed, dataBytes, symbolBytes)
			}
			ratio := float64(symbolBytes) / float64(dataBytes)
			budget := 1.15 * float64(oh) / 100
			if ratio > budget {
				t.Errorf("oh=%d seed=%d: repair/source byte ratio %.4f exceeds budget %.4f (data=%d symbol=%d)",
					oh, seed, ratio, budget, dataBytes, symbolBytes)
			}
			// The rate must also not be silently under-provisioned: at
			// least the framing-free nominal share must have gone out.
			if nominal := float64(oh) / 100 * float64(samples) * payloadSize; float64(symbolBytes) < nominal {
				t.Errorf("oh=%d seed=%d: only %d repair bytes for a nominal %.0f-byte budget",
					oh, seed, symbolBytes, nominal)
			}
			for i, ds := range h.delivery {
				if len(ds) != samples {
					t.Errorf("oh=%d seed=%d: receiver %d delivered %d/%d", oh, seed, i, len(ds), samples)
				}
				checkOrdered(t, ds)
				if st := h.recvs[i].Stats(); st.MaxBuffered > samples+64 {
					t.Errorf("oh=%d seed=%d: receiver %d MaxBuffered=%d exceeds %d",
						oh, seed, i, st.MaxBuffered, samples+64)
				}
			}
		}
	}
}
