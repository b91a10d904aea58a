package sim

// The kernel's pending-event set is one index-tracked 4-ary min-heap
// ordered by the (key, seq) total order. Packet-hop arrivals, CPU-done
// callbacks, protocol timers and experiment deadlines all share it, so the
// global minimum is always ev[0].
//
// Everything is keyed on int64 UnixNano. Within the range of times a
// simulation can reach (the epoch is 2010; UnixNano is valid until 2262)
// this ordering is identical to time.Time.Before/Equal on wall-clock
// times, which is what the previous container/heap implementation used.

// evLess is the scheduler's total order: time, then FIFO by sequence.
func evLess(a, b *event) bool {
	return a.key < b.key || (a.key == b.key && a.seq < b.seq)
}

// evHeap is a monomorphic 4-ary min-heap of events. Four-way branching
// halves the tree depth of a binary heap, and sifting compares inline int64
// keys instead of going through heap.Interface with any-boxed Push/Pop.
// Each event records its heap index so Stop stays O(log n).
type evHeap struct {
	ev []*event
}

func (h *evHeap) push(e *event) {
	i := len(h.ev)
	h.ev = append(h.ev, e)
	h.up(i, e)
}

// up sifts e toward the root from position i, moving blockers down.
func (h *evHeap) up(i int, e *event) {
	for i > 0 {
		p := (i - 1) >> 2
		if !evLess(e, h.ev[p]) {
			break
		}
		h.ev[i] = h.ev[p]
		h.ev[i].index = int32(i)
		i = p
	}
	h.ev[i] = e
	e.index = int32(i)
}

// down sifts e toward the leaves from position i.
func (h *evHeap) down(i int, e *event) {
	n := len(h.ev)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if evLess(h.ev[j], h.ev[m]) {
				m = j
			}
		}
		if !evLess(h.ev[m], e) {
			break
		}
		h.ev[i] = h.ev[m]
		h.ev[i].index = int32(i)
		i = m
	}
	h.ev[i] = e
	e.index = int32(i)
}

// pop removes and returns the minimum event.
func (h *evHeap) pop() *event {
	e := h.ev[0]
	n := len(h.ev) - 1
	last := h.ev[n]
	h.ev[n] = nil
	h.ev = h.ev[:n]
	if n > 0 {
		h.down(0, last)
	}
	e.index = -1
	return e
}

// remove deletes the event at index i (Stop path).
func (h *evHeap) remove(i int32) {
	e := h.ev[i]
	n := len(h.ev) - 1
	last := h.ev[n]
	h.ev[n] = nil
	h.ev = h.ev[:n]
	if int(i) < n {
		// Reinsert the displaced last element at i: it may need to move
		// either direction, so sift down then up (one of the two is a no-op).
		h.down(int(i), last)
		h.up(int(i), h.ev[i])
	}
	e.index = -1
}
