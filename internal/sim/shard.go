package sim

// shard.go is the lane-sharded conservative-time execution engine: the
// parallel counterpart of the single Kernel, built for 500+ node emulations
// whose event load no longer fits one core.
//
// The model is classic conservative PDES (parallel discrete-event
// simulation) specialized to the netem topology:
//
//   - The simulated world is partitioned into *lanes* (one per emulated
//     node, or per link domain). Each lane owns a full Kernel — its own
//     event heap, clock, sequence counter, and event free list — and every
//     piece of per-node state is only ever touched by its own lane's
//     callbacks.
//
//   - Cross-lane interaction (a packet arriving at another node) goes
//     through Send, which requires a *lookahead*: the event must fire at
//     least Lookahead after the sending lane's current time. For netem the
//     lookahead is the link propagation delay (netem.DefaultPropDelay,
//     30µs) — no packet can affect another node sooner than one
//     propagation time.
//
//   - Execution proceeds in conservative time windows of width Lookahead.
//     Window [W, W+L) is safe to run on every lane in parallel: no event
//     fired inside it can schedule a cross-lane event before W+L. At the
//     window barrier, buffered cross-lane messages are merged into their
//     destination kernels in a fixed total order — (fire time, source lane,
//     per-source sequence) — and restamped with the destination kernel's
//     own (time, seq) keys.
//
// Determinism contract: the merged event stream — and therefore every
// observable simulation output — is byte-identical for any worker count,
// including 1. The number of OS workers only decides which threads drain
// which lanes; every ordering decision is derived from lane-local values
// (virtual times, lane IDs, per-lane counters) that do not depend on thread
// interleaving. A Sharded with a single lane degenerates to exactly the
// plain Kernel: same heap, same (time, seq) order, same pools.
//
// Sharded is not safe for concurrent driving: Run/RunUntil/RunFor must be
// called from one goroutine, and lane kernels may only be touched from
// their own lane's callbacks or between runs.

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"
)

// xmsg is one buffered cross-lane event. Messages are merged into the
// destination kernel at window barriers ordered by (key, src, srcSeq) —
// all three are lane-local deterministic values, which is what makes the
// merge independent of worker scheduling.
type xmsg struct {
	key    int64 // fire time, UnixNano
	at     time.Time
	dst    int32
	src    int32
	srcSeq uint64
	fn     func()
	argFn  func(any)
	arg    any
}

// Sharded executes a lane-partitioned simulation under a conservative
// time-window barrier. Create one with NewSharded, add lanes, then drive it
// with the same Run/RunUntil/RunFor/Pending surface as a Kernel.
type Sharded struct {
	seed      int64
	lookahead int64 // ns; also the window width

	lanes   []*Kernel
	outbox  [][]xmsg // per source lane, appended only by the owning worker
	msgSeq  []uint64 // per source lane Send counter
	staging [][]xmsg // per destination lane, reused merge buffer

	workers   int
	now       time.Time
	nowKey    int64
	maxEvents uint64

	// Window state shared with workers during a phase; written by the
	// coordinator strictly before the phase broadcast.
	winEnd  int64
	budget  uint64
	windows uint64

	// Worker pool, alive only inside run().
	cmd  []chan int
	done sync.WaitGroup
}

const laneEmpty = math.MaxInt64

// Worker phase codes.
const (
	phaseRun = iota + 1
	phaseMerge
)

// NewSharded returns an engine with no lanes, deriving all randomness from
// seed. lookahead is the conservative window width: every cross-lane Send
// must fire at least lookahead after the sending lane's current time.
func NewSharded(seed int64, lookahead time.Duration) *Sharded {
	if lookahead <= 0 {
		panic("sim: non-positive sharded lookahead")
	}
	return &Sharded{
		seed:      seed,
		lookahead: int64(lookahead),
		workers:   1,
		now:       Epoch,
		nowKey:    Epoch.UnixNano(),
	}
}

// AddLane creates a new lane and returns its index. Lanes must be added
// before the first run.
func (s *Sharded) AddLane() int {
	k := New(s.seed)
	s.lanes = append(s.lanes, k)
	s.outbox = append(s.outbox, nil)
	s.msgSeq = append(s.msgSeq, 0)
	s.staging = append(s.staging, nil)
	return len(s.lanes) - 1
}

// Lanes returns the number of lanes.
func (s *Sharded) Lanes() int { return len(s.lanes) }

// LaneKernel returns lane i's kernel. It may only be used from lane i's own
// callbacks or between runs — the same single-threaded contract as Kernel.
func (s *Sharded) LaneKernel(i int) *Kernel { return s.lanes[i] }

// Seed returns the seed the engine was created with.
func (s *Sharded) Seed() int64 { return s.seed }

// Lookahead returns the conservative window width.
func (s *Sharded) Lookahead() time.Duration { return time.Duration(s.lookahead) }

// SetWorkers sets the number of OS workers that drain lanes in parallel.
// The worker count never changes simulation output — only wall-clock time.
func (s *Sharded) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	s.workers = n
}

// SetEventLimit bounds the total number of events across all lanes; 0 means
// unlimited. Exceeding the limit makes the run methods return ErrEventLimit.
func (s *Sharded) SetEventLimit(n uint64) { s.maxEvents = n }

// Now returns the global virtual time: the deadline reached by the last
// RunUntil/RunFor, or Epoch before the first run.
func (s *Sharded) Now() time.Time { return s.now }

// Fired returns the total number of events executed across all lanes.
func (s *Sharded) Fired() uint64 {
	var n uint64
	for _, k := range s.lanes {
		n += k.fired
	}
	return n
}

// Windows returns the number of conservative time windows executed so
// far — the barrier count. events/windows is the parallelism grain: how
// much work each barrier crossing amortizes.
func (s *Sharded) Windows() uint64 { return s.windows }

// Pending returns the number of queued events plus buffered cross-lane
// messages.
func (s *Sharded) Pending() int {
	n := 0
	for _, k := range s.lanes {
		n += k.Pending()
	}
	for _, ob := range s.outbox {
		n += len(ob)
	}
	return n
}

// Send schedules fn(arg) (or fn() when argFn is nil) on lane dst at
// absolute time at. It must be called from lane src's executing callback
// (or between runs), and at must be at least Lookahead after lane src's
// current time — the conservative guarantee the window barrier relies on.
// Sends to the source's own lane are ordinary local scheduling.
func (s *Sharded) Send(src, dst int, at time.Time, argFn func(any), arg any, fn func()) {
	key := at.UnixNano()
	if dst == src {
		s.lanes[src].insertAt(key, at, fn, argFn, arg)
		return
	}
	if min := s.lanes[src].nowKey + s.lookahead; key < min {
		panic(fmt.Sprintf("sim: cross-lane send violates lookahead: fires %s early",
			time.Duration(min-key)))
	}
	s.msgSeq[src]++
	s.outbox[src] = append(s.outbox[src], xmsg{
		key: key, at: at, dst: int32(dst), src: int32(src),
		srcSeq: s.msgSeq[src], fn: fn, argFn: argFn, arg: arg,
	})
}

// globalMin returns the earliest pending key across lanes. It runs on the
// coordinator after the merge, when every outbox is empty.
func (s *Sharded) globalMin() int64 {
	min := int64(laneEmpty)
	for _, k := range s.lanes {
		if key, ok := k.peekKey(); ok && key < min {
			min = key
		}
	}
	return min
}

// runLanes is the worker body for phaseRun: drain every owned lane's events
// inside the current window. Lane l is owned by worker l mod stride in every
// phase — ownership never migrates, so per-lane state is only ever touched
// by one worker between barriers.
func (s *Sharded) runLanes(w, stride int) {
	for l := w; l < len(s.lanes); l += stride {
		s.lanes[l].runWindow(s.winEnd, s.budget)
	}
}

// mergeLanes is the worker body for phaseMerge: order each owned lane's
// staged batch by (key, src, srcSeq) and insert it into the lane kernel —
// the (time, seq) restamping that makes the merged stream independent of
// worker interleaving. Staging was filled by distribute() on the
// coordinator; the dispatch barrier publishes it to the owning worker.
func (s *Sharded) mergeLanes(w, stride int) {
	for l := w; l < len(s.lanes); l += stride {
		stg := s.staging[l]
		if len(stg) == 0 {
			continue
		}
		// Distribution order is (src, srcSeq); a stable sort by key yields
		// the full (key, src, srcSeq) order.
		slices.SortStableFunc(stg, func(a, b xmsg) int {
			switch {
			case a.key < b.key:
				return -1
			case a.key > b.key:
				return 1
			}
			return 0
		})
		k := s.lanes[l]
		for i := range stg {
			m := &stg[i]
			k.insertAt(m.key, m.at, m.fn, m.argFn, m.arg)
			stg[i] = xmsg{}
		}
		s.staging[l] = stg[:0]
	}
}

// dispatch runs one phase across all workers and waits for the barrier.
// With a single worker the coordinator does the work inline — the
// single-threaded reference execution has zero synchronization.
func (s *Sharded) dispatch(phase int) {
	if s.cmd == nil {
		s.work(0, 1, phase)
		return
	}
	s.done.Add(len(s.cmd))
	for _, c := range s.cmd {
		c <- phase
	}
	s.done.Wait()
}

func (s *Sharded) work(w, stride, phase int) {
	switch phase {
	case phaseRun:
		s.runLanes(w, stride)
	case phaseMerge:
		s.mergeLanes(w, stride)
	}
}

// startWorkers spins up the pool for one run; stopWorkers tears it down.
func (s *Sharded) startWorkers() {
	n := s.workers
	if n > len(s.lanes) {
		n = len(s.lanes)
	}
	if n <= 1 {
		return
	}
	s.cmd = make([]chan int, n)
	for w := range s.cmd {
		c := make(chan int, 1)
		s.cmd[w] = c
		go func(w int, c chan int) {
			for phase := range c {
				s.work(w, n, phase)
				s.done.Done()
			}
		}(w, c)
	}
}

func (s *Sharded) stopWorkers() {
	for _, c := range s.cmd {
		close(c)
	}
	s.cmd = nil
}

// distribute routes every buffered cross-lane message to its destination
// lane's staging slice and empties the outboxes. It runs single-threaded
// on the coordinator between the run and merge barriers: one O(messages)
// pass, instead of every destination scanning every source's outbox.
// Outboxes are consumed immediately, so a message can never survive into
// a later merge and be delivered twice. Iterating sources in lane order
// keeps each staging batch in (src, srcSeq) order for the merge sort.
func (s *Sharded) distribute() bool {
	staged := false
	for src := range s.outbox {
		ob := s.outbox[src]
		if len(ob) == 0 {
			continue
		}
		staged = true
		for i := range ob {
			m := &ob[i]
			s.staging[m.dst] = append(s.staging[m.dst], *m)
			ob[i] = xmsg{}
		}
		s.outbox[src] = ob[:0]
	}
	return staged
}

// run executes conservative windows until no event at or before limitKey
// remains. The caller owns clock advancement past the deadline.
func (s *Sharded) run(limitKey int64) error {
	if len(s.lanes) == 0 {
		return nil
	}
	// Route messages staged between runs (e.g. a harness closing components
	// from the driving goroutine).
	if s.distribute() {
		// Merge serially: between runs there is no worker pool.
		s.mergeLanes(0, 1)
	}
	s.startWorkers()
	defer s.stopWorkers()
	for {
		min := s.globalMin()
		if min == laneEmpty || min > limitKey {
			return nil
		}
		winEnd := min + s.lookahead
		if winEnd < min {
			winEnd = math.MaxInt64 // overflow guard
		}
		if limitKey != math.MaxInt64 && winEnd > limitKey+1 {
			winEnd = limitKey + 1
		}
		s.winEnd = winEnd
		s.budget = math.MaxUint64
		if s.maxEvents > 0 {
			fired := s.Fired()
			if fired > s.maxEvents {
				return fmt.Errorf("%w: %d events", ErrEventLimit, fired)
			}
			s.budget = s.maxEvents - fired + 1
		}
		s.windows++
		s.dispatch(phaseRun)
		if s.distribute() {
			s.dispatch(phaseMerge)
		}
	}
}

// Run executes events until every lane is empty.
func (s *Sharded) Run() error {
	if err := s.run(math.MaxInt64); err != nil {
		return err
	}
	// Bring the global clock to the latest lane time so a subsequent
	// RunFor measures from the end of the drained work.
	for _, k := range s.lanes {
		if k.nowKey > s.nowKey {
			s.nowKey = k.nowKey
			s.now = k.now
		}
	}
	return nil
}

// RunUntil executes events with time <= deadline, then advances every
// lane's clock (and the global clock) to the deadline.
func (s *Sharded) RunUntil(deadline time.Time) error {
	dk := deadline.UnixNano()
	if err := s.run(dk); err != nil {
		return err
	}
	for _, k := range s.lanes {
		if k.nowKey < dk {
			k.now = deadline
			k.nowKey = dk
		}
	}
	if s.nowKey < dk {
		s.now = deadline
		s.nowKey = dk
	}
	return nil
}

// RunFor executes events for virtual duration d from the global clock.
func (s *Sharded) RunFor(d time.Duration) error {
	return s.RunUntil(s.now.Add(d))
}

// runWindow fires lane events with key < endKey, up to budget events. The
// clock is left at the last fired event, exactly as Step leaves it.
func (k *Kernel) runWindow(endKey int64, budget uint64) {
	for budget > 0 {
		key, ok := k.peekKey()
		if !ok || key >= endKey {
			return
		}
		k.Step()
		budget--
	}
}

// insertAt enqueues a fire-and-forget event at an absolute key, assigning
// the kernel's next sequence number — the restamping step of the barrier
// merge. key must not precede the lane clock (the lookahead guarantees it).
func (k *Kernel) insertAt(key int64, at time.Time, fn func(), argFn func(any), arg any) {
	if key < k.nowKey {
		panic("sim: cross-lane insert into the past")
	}
	k.push(key, at, fn, argFn, arg)
}
