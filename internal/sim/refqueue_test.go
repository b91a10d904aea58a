package sim

import (
	"container/heap"
	"time"
)

// This file preserves the kernel's previous event queue — container/heap
// over any-boxed *refEvent, ordered by (time, seq) — verbatim as a
// reference model. FuzzKernelOrder and the differential tests replay
// randomized schedules through both this queue and the 4-ary heap scheduler
// and demand identical fire orders, which is the determinism proof for the
// scheduler overhaul.

type refEvent struct {
	at    time.Time
	seq   uint64
	fn    func()
	index int
	owner *refKernel
}

func (e *refEvent) Cancel() bool {
	if e == nil || e.index < 0 || e.fn == nil {
		return false
	}
	h := e.owner
	if h != nil && e.index >= 0 {
		heap.Remove(&h.queue, e.index)
		e.index = -1
		e.fn = nil
	}
	return true
}

type refKernel struct {
	now    time.Time
	queue  refQueue
	nextID uint64
	fired  uint64
}

func newRefKernel() *refKernel { return &refKernel{now: Epoch} }

func (k *refKernel) Now() time.Time { return k.now }
func (k *refKernel) Pending() int   { return k.queue.Len() }
func (k *refKernel) Fired() uint64  { return k.fired }

func (k *refKernel) At(t time.Time, fn func()) *refEvent {
	if t.Before(k.now) {
		t = k.now
	}
	e := &refEvent{at: t, seq: k.nextID, fn: fn, owner: k}
	k.nextID++
	heap.Push(&k.queue, e)
	return e
}

func (k *refKernel) After(d time.Duration, fn func()) *refEvent {
	return k.At(k.now.Add(d), fn)
}

func (k *refKernel) Schedule(d time.Duration, fn func()) {
	k.After(d, fn)
}

func (k *refKernel) Step() bool {
	if k.queue.Len() == 0 {
		return false
	}
	e := heap.Pop(&k.queue).(*refEvent)
	k.now = e.at
	fn := e.fn
	e.fn = nil
	e.index = -1
	k.fired++
	fn()
	return true
}

func (k *refKernel) Run() {
	for k.Step() {
	}
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }

func (q refQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}

func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *refQueue) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*q)
	*q = append(*q, e)
}

func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}
