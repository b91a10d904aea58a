package transport

// SlotState is what a receive Window knows about one sequence number. A
// held slot carries a sample not yet handed up (or a packet kept for
// decoding), a missing one a gap being recovered, an abandoned one a gap
// given up on, a delivered one a sample handed up and kept only so a late
// copy reads as a duplicate.
type SlotState uint8

// Slot states.
const (
	SlotEmpty SlotState = iota
	SlotHeld
	SlotMissing
	SlotAbandoned
	SlotDelivered
	numSlotStates
)

// Window is a receiver's sequence-indexed state: a power-of-two ring
// covering [Low, Low+len(ring)), each slot a state and a payload of the
// receiver's choosing. It spans at most limit sequence numbers (the span
// cap), allocates nothing until the first write and then grows by doubling,
// and keeps one count per state, so a receiver's recovery-state size is a
// sum of counts rather than a walk. Build one with NewWindow; like the
// receivers that own it, it is not safe for concurrent use.
type Window[T any] struct {
	ring  []windowSlot[T]
	low   uint64
	limit uint64
	n     [numSlotStates]int
}

type windowSlot[T any] struct {
	state SlotState
	v     T
}

// NewWindow returns an empty window over [low, low+limit).
func NewWindow[T any](low uint64, limit int) Window[T] {
	return Window[T]{low: low, limit: uint64(limit)}
}

// Low returns the lowest sequence number the window covers.
func (w *Window[T]) Low() uint64 { return w.low }

// Fits reports whether seq lies within [Low, Low+limit).
func (w *Window[T]) Fits(seq uint64) bool { return seq >= w.low && seq-w.low < w.limit }

// Count returns how many slots are in state st (st != SlotEmpty).
func (w *Window[T]) Count(st SlotState) int { return w.n[st] }

func (w *Window[T]) slot(seq uint64) *windowSlot[T] {
	if seq < w.low || seq-w.low >= uint64(len(w.ring)) {
		return nil
	}
	return &w.ring[seq&uint64(len(w.ring)-1)]
}

// State returns seq's state; anything outside the ring is empty.
func (w *Window[T]) State(seq uint64) SlotState {
	if s := w.slot(seq); s != nil {
		return s.state
	}
	return SlotEmpty
}

// Get returns seq's payload, the zero value for an empty slot.
func (w *Window[T]) Get(seq uint64) (v T) {
	if s := w.slot(seq); s != nil {
		v = s.v
	}
	return v
}

// Set moves seq (at or above Low) to state st and returns its payload for
// the caller to fill; the pointer is valid until the ring next grows. A seq
// past the span cap first slides the window up to it, forgetting the
// oldest slots. Clearing a slot zeroes its payload (and returns nil
// outside the ring).
func (w *Window[T]) Set(seq uint64, st SlotState) *T {
	if seq < w.low {
		panic("transport: Window.Set below Low")
	}
	if seq-w.low >= w.limit {
		w.SlideTo(seq - w.limit + 1)
	}
	s := w.slot(seq)
	if s == nil {
		if st == SlotEmpty {
			return nil
		}
		w.grow(seq - w.low + 1)
		s = w.slot(seq)
	}
	if s.state != SlotEmpty {
		w.n[s.state]--
	}
	if st != SlotEmpty {
		w.n[st]++
	} else {
		*s = windowSlot[T]{}
	}
	s.state = st
	return &s.v
}

// grow doubles the ring until it covers need slots from Low.
func (w *Window[T]) grow(need uint64) {
	size := uint64(max(len(w.ring), 16)) // 16 slots on the first write
	for size < need {
		size *= 2
	}
	ring := make([]windowSlot[T], size)
	for seq := w.low; seq < w.low+uint64(len(w.ring)); seq++ {
		ring[seq&(size-1)] = *w.slot(seq)
	}
	w.ring = ring
}

// SlideTo raises Low to seq, clearing every slot below it. It stops
// walking once the window holds nothing, so a long slide is cheap.
func (w *Window[T]) SlideTo(seq uint64) {
	for ; w.low < seq && w.n != [numSlotStates]int{}; w.low++ {
		w.Set(w.low, SlotEmpty)
	}
	w.low = max(w.low, seq)
}

// Each calls fn on every slot in state st, in ascending sequence order. fn
// may change the state of the slot it is given but must not otherwise
// write to the window.
func (w *Window[T]) Each(st SlotState, fn func(seq uint64, v *T)) {
	left := w.n[st]
	for seq := w.low; left > 0 && seq-w.low < uint64(len(w.ring)); seq++ {
		if s := w.slot(seq); s.state == st {
			left--
			fn(seq, &s.v)
		}
	}
}

// Drain advances Low over the window's in-order prefix: each held slot at
// Low is handed to fn, each abandoned one passed over, and both are
// cleared; it stops at the first slot in any other state. fn must copy
// what it keeps of the payload.
func (w *Window[T]) Drain(fn func(seq uint64, v *T)) {
	for {
		switch s := w.slot(w.low); {
		case s == nil:
			return
		case s.state == SlotHeld:
			fn(w.low, &s.v)
		case s.state != SlotAbandoned:
			return
		}
		w.SlideTo(w.low + 1)
	}
}
