package transport

import (
	"slices"
	"testing"
)

// refWindow is the oracle FuzzWindow holds Window against: the same
// contract kept in a Go map, the representation every receiver used before
// the ring, with nothing clever in it.
type refWindow struct {
	low, limit uint64
	slots      map[uint64]refSlot // non-empty slots only
}

type refSlot struct {
	state SlotState
	v     int
}

func newRefWindow(low uint64, limit int) *refWindow {
	return &refWindow{low: low, limit: uint64(limit), slots: map[uint64]refSlot{}}
}

func (r *refWindow) fits(seq uint64) bool { return seq >= r.low && seq-r.low < r.limit }

func (r *refWindow) set(seq uint64, st SlotState, v int) {
	if !r.fits(seq) {
		r.slideTo(seq - r.limit + 1)
	}
	if st == SlotEmpty {
		delete(r.slots, seq)
		return
	}
	r.slots[seq] = refSlot{state: st, v: v}
}

func (r *refWindow) count(st SlotState) int {
	n := 0
	for _, s := range r.slots {
		if s.state == st {
			n++
		}
	}
	return n
}

func (r *refWindow) slideTo(seq uint64) {
	if seq <= r.low {
		return
	}
	for s := range r.slots {
		if s < seq {
			delete(r.slots, s)
		}
	}
	r.low = seq
}

func (r *refWindow) each(st SlotState) []uint64 {
	var seqs []uint64
	for s, sl := range r.slots {
		if s >= r.low && sl.state == st {
			seqs = append(seqs, s)
		}
	}
	slices.Sort(seqs)
	return seqs
}

func (r *refWindow) drain() []uint64 {
	var out []uint64
	for {
		s, ok := r.slots[r.low]
		if !ok || (s.state != SlotHeld && s.state != SlotAbandoned) {
			return out
		}
		if s.state == SlotHeld {
			out = append(out, r.low)
		}
		r.slideTo(r.low + 1)
	}
}

// checkWindow compares every observable of w against the oracle over the
// window's span plus a margin past the cap.
func checkWindow(t *testing.T, w *Window[int], ref *refWindow) {
	t.Helper()
	if w.Low() != ref.low {
		t.Fatalf("Low = %d, oracle %d", w.Low(), ref.low)
	}
	for st := SlotHeld; st < numSlotStates; st++ {
		if got, want := w.Count(st), ref.count(st); got != want {
			t.Fatalf("Count(%d) = %d, oracle %d", st, got, want)
		}
	}
	from := ref.low
	if from > 4 {
		from -= 4
	}
	for seq := from; seq < ref.low+ref.limit+4; seq++ {
		want := ref.slots[seq]
		if got := w.State(seq); got != want.state {
			t.Fatalf("State(%d) = %d, oracle %d", seq, got, want.state)
		}
		if w.Fits(seq) != ref.fits(seq) {
			t.Fatalf("Fits(%d) = %t, oracle %t", seq, w.Fits(seq), ref.fits(seq))
		}
		if got := w.Get(seq); got != want.v {
			t.Fatalf("Get(%d) = %d, oracle %d", seq, got, want.v)
		}
	}
}

// FuzzWindow drives Window and the map oracle through the same random
// offer / abandon / drain / slide / iterate sequence — across ring growth,
// at and past the span cap — and demands identical delivered order, per-state
// counts, and in-window and duplicate verdicts after every step.
func FuzzWindow(f *testing.F) {
	f.Add(uint16(7), uint8(40), []byte{0, 1, 0, 2, 0, 3, 2, 0, 1, 4, 3, 9, 5, 5, 1, 200, 0, 39, 0, 40})
	f.Add(uint16(0), uint8(1), []byte{0, 0, 2, 0, 0, 0, 3, 0})
	f.Add(uint16(1000), uint8(255), []byte{0, 17, 0, 16, 0, 15, 6, 33, 0, 100, 0, 254, 0, 255, 2, 0, 4, 120})
	f.Fuzz(func(t *testing.T, low uint16, limit uint8, ops []byte) {
		if limit == 0 {
			return
		}
		w := NewWindow[int](uint64(low), int(limit))
		ref := newRefWindow(uint64(low), int(limit))
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%7, uint64(ops[i+1])
			seq := ref.low + arg
			switch op {
			case 0, 1, 2: // offer as held, note missing, abandon (past the cap: slide)
				st := [...]SlotState{SlotHeld, SlotMissing, SlotAbandoned}[op]
				*w.Set(seq, st) = i
				ref.set(seq, st, i)
			case 3: // mark delivered (bemcast's seen set) or clear
				st := SlotDelivered
				if arg%2 == 1 {
					st = SlotEmpty
				}
				if p := w.Set(seq, st); st != SlotEmpty {
					*p = i
				}
				ref.set(seq, st, i)
			case 4:
				w.SlideTo(seq)
				ref.slideTo(seq)
			case 5:
				var got []uint64
				w.Drain(func(seq uint64, v *int) {
					if want := ref.slots[seq].v; *v != want {
						t.Fatalf("Drain handed seq %d payload %d, oracle %d", seq, *v, want)
					}
					got = append(got, seq)
				})
				if want := ref.drain(); !slices.Equal(got, want) {
					t.Fatalf("Drain delivered %v, oracle %v", got, want)
				}
			case 6:
				st := SlotState(arg%4) + SlotHeld
				var got []uint64
				w.Each(st, func(seq uint64, _ *int) { got = append(got, seq) })
				if want := ref.each(st); !slices.Equal(got, want) {
					t.Fatalf("Each(state %d) visited %v, oracle %v", st, got, want)
				}
			}
			checkWindow(t, &w, ref)
		}
	})
}

func TestWindowAllocatesLazily(t *testing.T) {
	w := NewWindow[[]byte](100, 1<<15)
	if w.ring != nil {
		t.Fatal("NewWindow allocated a ring")
	}
	w.Set(100, SlotHeld)
	if len(w.ring) != 16 {
		t.Fatalf("first write sized the ring %d, want 16", len(w.ring))
	}
	w.Set(100+999, SlotMissing)
	if len(w.ring) != 1024 {
		t.Fatalf("ring %d after a write 999 past Low, want 1024", len(w.ring))
	}
}
