// Package load is the benchmark's traffic generator for the broker
// workloads: payloads that carry their own identity and checksum, readers
// that verify every delivery, raw-protocol connections, and the paced
// (open-loop) and windowed (closed-loop) publish drivers.
package load

import (
	"encoding/binary"
	"hash/crc32"
	"sync/atomic"
	"time"

	"adamant/benchmark/hist"
)

var clockBase = time.Now()

// Now is the generator's clock: monotonic nanoseconds since process start.
// Every stamp in a payload and every read time is on it.
func Now() int64 { return int64(time.Since(clockBase)) }

// HeaderBytes is the payload prefix every publish carries:
//
//	[0:8]   due: the time the publish was meant to be sent
//	[8:16]  publish id, 1-based, increasing over the whole run
//	[16:20] subject index
//	[20:28] per-subject sequence number, 1-based
//	[28:32] CRC-32C of the rest of the payload
//
// The remainder is filler drawn from the seed.
const HeaderBytes = 32

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func checksum(p []byte) uint32 {
	return crc32.Update(crc32.Checksum(p[:28], castagnoli), castagnoli, p[HeaderBytes:])
}

// Stamp writes the header into p, whose filler is already in place.
func Stamp(p []byte, due int64, id uint64, subject uint32, seq uint64) {
	binary.LittleEndian.PutUint64(p[0:], uint64(due))
	binary.LittleEndian.PutUint64(p[8:], id)
	binary.LittleEndian.PutUint32(p[16:], subject)
	binary.LittleEndian.PutUint64(p[20:], seq)
	binary.LittleEndian.PutUint32(p[28:], checksum(p))
}

// Windows is the number of equal consecutive windows a phase is cut into.
// A latency metric is the median over the windows of each window's
// percentile, so that one scheduler stall cannot own the number.
const Windows = 5

// RateSlice is the length of the slices a phase's throughput is counted in.
// The reference box flips between a fast and a slow state every second or
// so (a busy sibling hyperthread, by the look of it) and how much of a run
// is spent in each is the neighbours' doing; the rate of the best tenth of
// the slices repeats from run to run far better than the mean or the median
// (README.md has the numbers), so that is what PerSecond reports.
const RateSlice = 200 * time.Millisecond

// Phase is one timed stretch of a run. Deliveries are attributed to the
// window their publish was due in.
type Phase struct {
	Name  string
	Start int64 // on the Now clock
	Dur   int64
	// SampleEvery > 0 records a span for every delivery of one publish in
	// SampleEvery (traced runs).
	SampleEvery uint64
}

func (p *Phase) window(t int64) int {
	w := int((t - p.Start) * Windows / p.Dur)
	if w < 0 {
		return 0
	}
	if w >= Windows {
		return Windows - 1
	}
	return w
}

// DeliverySpan is one sampled delivery: which publish, which sid, when read.
type DeliverySpan struct {
	ID   uint64
	Sid  int32
	Read int64
}

// Probe kinds a reader keeps round-trip histograms for.
const (
	ProbePing = iota // PING -> PONG on an idle-or-loaded connection
	ProbeSub         // SUB + PING -> PONG: a trie write under load
	probeKinds
)

// PhaseStats is what one reader saw during one phase. The reader goroutine
// owns it until the phase has drained.
type PhaseStats struct {
	Phase      *Phase
	Latency    [Windows]hist.H // read time - due, by due window
	ReadCount  []uint64        // deliveries by read-time slice of RateSlice
	Deliveries uint64
	Probes     [probeKinds]hist.H
	Spans      []DeliverySpan
}

// sidState is the reader-owned record of one subscription.
type sidState struct {
	literal bool // subscribed to one literal subject: seq must be gapless
	// loose sids belong to set-up probes published before interest is
	// known to have arrived: only the first read time is kept, readable
	// from other goroutines.
	loose      bool
	firstRead  atomic.Int64
	lastID     uint64
	lastSeq    uint64
	count, sum uint64
}

// Group is a set of sids that must all receive (or, for a queue group,
// exactly one of which must receive) every publish on a set of subjects.
type Group struct {
	Sids  []int
	OneOf bool
	// Publisher-owned expectations.
	expected, expectedSum uint64
}

// Reader verifies the deliveries of one connection (one goroutine).
type Reader struct {
	sids []sidState // shared backing array; this reader touches only its own sids
	cur  atomic.Pointer[PhaseStats]
	// Delivered counts every delivery read, failed ones too, and is added to
	// after the sid state is updated, so a load of it orders that state.
	Delivered atomic.Uint64

	// Failed deliveries by kind.
	Corrupt, Reordered, Duplicated, SeqGaps, UnknownSid, ProtocolErrs uint64

	progress chan struct{} // cap 1: poked after each batch of deliveries
}

// Verifier owns the expectations of a whole run.
type Verifier struct {
	sids    []sidState
	Groups  []*Group
	Readers []*Reader
	// ExpectedTotal is the number of deliveries the publishes so far must
	// produce across all readers.
	ExpectedTotal uint64
	progress      chan struct{}
}

// NewVerifier prepares nSids subscriptions.
func NewVerifier(nSids int) *Verifier {
	return &Verifier{sids: make([]sidState, nSids), progress: make(chan struct{}, 1)}
}

// NewReader adds the reader for one connection.
func (v *Verifier) NewReader() *Reader {
	r := &Reader{sids: v.sids, progress: v.progress}
	v.Readers = append(v.Readers, r)
	return r
}

// NewGroup registers a group; literal marks sids bound to a single subject.
func (v *Verifier) NewGroup(sids []int, literal, oneOf bool) *Group {
	g := &Group{Sids: sids, OneOf: oneOf}
	for _, s := range sids {
		v.sids[s].literal = literal
	}
	v.Groups = append(v.Groups, g)
	return g
}

// Loosen marks sid as a set-up probe (see sidState.loose).
func (v *Verifier) Loosen(sid int) { v.sids[sid].loose = true }

// FirstRead reports when a loose sid first received anything (0: not yet).
func (v *Verifier) FirstRead(sid int) int64 { return v.sids[sid].firstRead.Load() }

// Expect records that publish id was sent to the subjects of g.
func (v *Verifier) Expect(g *Group, id uint64) {
	g.expected++
	g.expectedSum += id
	if g.OneOf {
		v.ExpectedTotal++
	} else {
		v.ExpectedTotal += uint64(len(g.Sids))
	}
}

// Delivered sums the deliveries every reader has verified.
func (v *Verifier) Delivered() uint64 {
	var n uint64
	for _, r := range v.Readers {
		n += r.Delivered.Load()
	}
	return n
}

// Progress is poked whenever a reader has verified more deliveries.
func (v *Verifier) Progress() <-chan struct{} { return v.progress }

// SetPhase starts a phase on every reader and returns their stats, reader
// by reader. The previous phase must have drained.
func (v *Verifier) SetPhase(p *Phase) []*PhaseStats {
	out := make([]*PhaseStats, len(v.Readers))
	for i, r := range v.Readers {
		out[i] = &PhaseStats{Phase: p, ReadCount: make([]uint64, p.Dur/int64(RateSlice))}
		r.cur.Store(out[i])
	}
	return out
}

// Failures is the end-of-run verdict.
type Failures struct {
	Missing, Extra                          uint64 // against the groups' expectations
	Corrupt, Reordered, Duplicated, SeqGaps uint64
	UnknownSid, ProtocolErrs, QueueNotOnce  uint64
}

// Total counts failed deliveries of every kind.
func (f Failures) Total() uint64 {
	return f.Missing + f.Extra + f.Corrupt + f.Reordered + f.Duplicated + f.SeqGaps + f.UnknownSid + f.ProtocolErrs
}

// Check compares what arrived with what was expected. Call it once every
// reader has drained (Delivered() == ExpectedTotal, or the deadline passed).
func (v *Verifier) Check() Failures {
	var f Failures
	for _, r := range v.Readers {
		f.Corrupt += r.Corrupt
		f.Reordered += r.Reordered
		f.Duplicated += r.Duplicated
		f.SeqGaps += r.SeqGaps
		f.UnknownSid += r.UnknownSid
		f.ProtocolErrs += r.ProtocolErrs
	}
	for _, g := range v.Groups {
		var count, sum uint64
		for _, s := range g.Sids {
			count += v.sids[s].count
			sum += v.sids[s].sum
		}
		want, wantSum := g.expected, g.expectedSum
		if !g.OneOf {
			want *= uint64(len(g.Sids))
			wantSum *= uint64(len(g.Sids))
		}
		switch {
		case count < want:
			f.Missing += want - count
		case count > want:
			f.Extra += count - want
		case sum != wantSum:
			f.Extra++ // right count, wrong publishes: one lost, one misdelivered
		}
		if g.OneOf && (count != want || sum != wantSum) {
			d := count - want
			if count < want {
				d = want - count
			}
			if d == 0 {
				d = 1
			}
			f.QueueNotOnce += d
		}
	}
	return f
}

// OnMsg verifies one delivery to sid read at time now. It reports whether
// the delivery counts toward Delivered: all do, failed ones too, except
// those to set-up probes.
func (r *Reader) OnMsg(sid int, payload []byte, now int64, ps *PhaseStats) (counted bool) {
	if ps == nil { // a delivery before the first phase: nothing was published yet
		r.ProtocolErrs++
		return true
	}
	if sid < 0 || sid >= len(r.sids) {
		r.UnknownSid++
		return true
	}
	if r.sids[sid].loose {
		r.sids[sid].firstRead.CompareAndSwap(0, now)
		return false
	}
	if len(payload) < HeaderBytes || binary.LittleEndian.Uint32(payload[28:]) != checksum(payload) {
		r.Corrupt++
		return true
	}
	due := int64(binary.LittleEndian.Uint64(payload[0:]))
	id := binary.LittleEndian.Uint64(payload[8:])
	seq := binary.LittleEndian.Uint64(payload[20:])
	st := &r.sids[sid]
	switch {
	case id == st.lastID:
		r.Duplicated++
		return true
	case id < st.lastID:
		r.Reordered++
		return true
	case st.literal && seq != st.lastSeq+1:
		r.SeqGaps++ // counted once; the group count reports how many went missing
	}
	st.lastID, st.lastSeq = id, seq
	st.count++
	st.sum += id

	p := ps.Phase
	ps.Latency[p.window(due)].Record(now - due)
	if i := int((now - p.Start) / int64(RateSlice)); i < len(ps.ReadCount) { // the drain tail belongs to no slice
		ps.ReadCount[i]++
	}
	ps.Deliveries++
	if p.SampleEvery > 0 && id%p.SampleEvery == 0 {
		ps.Spans = append(ps.Spans, DeliverySpan{ID: id, Sid: int32(sid), Read: now})
	}
	return true
}

// batchDone publishes that n more deliveries were read (verified or counted
// as failures) and wakes a waiting publisher.
func (r *Reader) batchDone(n uint64) {
	if n == 0 {
		return
	}
	r.Delivered.Add(n)
	select {
	case r.progress <- struct{}{}:
	default:
	}
}

// Deliver is OnMsg plus batchDone for readers that see one message at a
// time (the broker.Client handlers).
func (r *Reader) Deliver(sid int, payload []byte) {
	if r.OnMsg(sid, payload, Now(), r.cur.Load()) {
		r.batchDone(1)
	}
}
