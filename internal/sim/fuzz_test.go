package sim

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// FuzzKernelOrder is the differential determinism proof for the 4-ary heap
// scheduler: it decodes the fuzz input into a randomized interleaving of
// At/After/ScheduleArg/Stop/Step operations, replays it through
// both the current kernel and the preserved container/heap reference queue
// (refqueue_test.go), and demands bit-identical fire orders, clocks, and
// pending counts at every step.
//
// The delay encoding spans near and far futures: scale 0-1 stays within
// ~16.8 ms, scale 2-3 reaches up to ~268 s, and op 5 schedules follow-ups
// from inside callbacks, exercising insertion at the instant currently
// being drained (the Post / After(0) storm case).
func FuzzKernelOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 10, 0, 0, 1, 0, 0, 0, 2, 10, 0, 0, 4, 0, 0, 0})
	// Same-instant FIFO: several ops with equal delays.
	f.Add(bytes.Repeat([]byte{0, 5, 0, 0}, 12))
	// Short, ~16.8 ms, and far delays interleaved with steps and cancels.
	f.Add([]byte{
		0, 1, 0, 0, 0x40, 0xff, 0xff, 0, 0x80, 0xff, 0xff, 0,
		0xc0, 0xff, 0xff, 0, 4, 1, 0, 0, 5, 50, 0, 0,
		3, 200, 0, 0, 6, 0, 0, 0, 6, 0, 0, 0,
	})
	// Chained callbacks at zero delay (Post storms).
	f.Add(bytes.Repeat([]byte{5, 0, 0, 0, 6, 0, 0, 0}, 8))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		k := New(1)
		r := newRefKernel()
		var gotK, gotR []uint64
		var handlesK []Timer
		var handlesR []*refEvent
		nextID := uint64(0)

		// record returns a pair of callbacks appending the same id to each
		// kernel's fire log.
		record := func() (func(), func()) {
			id := nextID
			nextID++
			return func() { gotK = append(gotK, id) },
				func() { gotR = append(gotR, id) }
		}

		for i := 0; i+3 < len(data); i += 4 {
			op := data[i] & 0x07
			scale := uint(data[i]>>6) * 4 // 0, 4, 8, 12 extra bits
			d := time.Duration(binary.LittleEndian.Uint16(data[i+1:i+3])) *
				time.Microsecond << scale
			switch op {
			case 0, 1: // After
				fk, fr := record()
				handlesK = append(handlesK, k.After(d, fk))
				handlesR = append(handlesR, r.After(d, fr))
			case 2: // At, absolute; Epoch-anchored times clamp once the clock moves
				at := Epoch.Add(d)
				fk, fr := record()
				handlesK = append(handlesK, k.At(at, fk))
				handlesR = append(handlesR, r.At(at, fr))
			case 3: // After with the handle dropped (fire-and-forget)
				fk, fr := record()
				k.After(d, fk)
				r.Schedule(d, fr)
			case 4: // ScheduleArg (closure-free path) vs reference closure
				id := nextID
				nextID++
				k.ScheduleArg(d, func(a any) { gotK = append(gotK, a.(uint64)) }, id)
				r.Schedule(d, func() { gotR = append(gotR, id) })
			case 5: // chained: callback schedules a follow-up at half the delay
				id := nextID
				nextID++
				k.After(d, func() {
					gotK = append(gotK, id)
					k.After(d/2, func() { gotK = append(gotK, ^id) })
				})
				r.Schedule(d, func() {
					gotR = append(gotR, id)
					r.Schedule(d/2, func() { gotR = append(gotR, ^id) })
				})
			case 6: // Step both
				sk, sr := k.Step(), r.Step()
				if sk != sr {
					t.Fatalf("op %d: Step() = %v (kernel) vs %v (reference)", i/4, sk, sr)
				}
			case 7: // Stop a pseudo-random handle against the reference Cancel
				if len(handlesK) == 0 {
					continue
				}
				j := int(binary.LittleEndian.Uint16(data[i+1:i+3])) % len(handlesK)
				ck, cr := handlesK[j].Stop(), handlesR[j].Cancel()
				if ck != cr {
					t.Fatalf("op %d: Stop(%d) = %v (kernel) vs Cancel %v (reference)", i/4, j, ck, cr)
				}
			}
			if k.Pending() != r.Pending() {
				t.Fatalf("op %d: Pending() = %d (kernel) vs %d (reference)", i/4, k.Pending(), r.Pending())
			}
		}

		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		r.Run()

		if len(gotK) != len(gotR) {
			t.Fatalf("fired %d events (kernel) vs %d (reference)", len(gotK), len(gotR))
		}
		for i := range gotK {
			if gotK[i] != gotR[i] {
				t.Fatalf("fire order diverged at event %d: kernel %d, reference %d\nkernel:    %v\nreference: %v",
					i, gotK[i], gotR[i], gotK, gotR)
			}
		}
		if k.Fired() != r.Fired() {
			t.Fatalf("Fired() = %d (kernel) vs %d (reference)", k.Fired(), r.Fired())
		}
		if !k.Now().Equal(r.Now()) {
			t.Fatalf("Now() = %v (kernel) vs %v (reference)", k.Now(), r.Now())
		}
	})
}
