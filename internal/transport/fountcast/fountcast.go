// This file is the transport built on the codec in code.go: the Fountcast
// sender symbolizes the stream into K-packet source blocks and multicasts
// repair symbols at a configured overhead rate; the receiver decodes each
// block by incremental Gaussian elimination and delivers in order.
//
// Where NAKcast pays a timeout plus a round trip for every loss and
// Ricochet's fixed XOR panels collapse when a burst takes out more than one
// packet per panel, Fountcast recovers any loss pattern up to the repair
// budget with zero feedback: every repair symbol is useful against every
// loss in its block. The cost is a fixed, tunable bandwidth overhead that
// is spent whether or not losses occur — which is exactly the trade the
// adaptation layer is there to arbitrate.
package fountcast

import (
	"fmt"
	"math/bits"
	"strconv"
	"time"

	"adamant/internal/transport"
	"adamant/internal/wire"
)

// Name is the protocol's registry/spec name.
const Name = "fountcast"

// Props advertises Fountcast's transport properties: multicast FEC with
// in-order delivery, best-effort class (no feedback channel, so no
// convergence guarantee after arbitrarily long faults).
const Props = transport.PropMulticast | transport.PropFEC | transport.PropOrdered

// Defaults for spec params left out.
const (
	DefaultK           = 8
	DefaultOverheadPct = 25
	// DefaultHold is how long a receiver keeps an undecodable block open
	// after learning the sender has moved past it, waiting for straggler
	// symbols, before abandoning its missing packets. There is no NAK to
	// retry, so this is the whole tail of the recovery latency
	// distribution: decode either happens as symbols arrive or never.
	DefaultHold = 40 * time.Millisecond

	// MaxOverheadPct bounds the configured overhead rate: 400% means four
	// repair symbols per source packet, far past any useful operating
	// point but room enough for stress experiments.
	MaxOverheadPct = 400

	// hbInterval is the sender heartbeat period, which reveals tail gaps.
	hbInterval = 100 * time.Millisecond
	// procCost models the reference-machine CPU time the receiver spends
	// per delivered packet on sequencing bookkeeping.
	procCost = 50 * time.Microsecond
	// symbolBuildWork is the sender CPU cost of folding one repair symbol.
	symbolBuildWork = 40 * time.Microsecond
	// decodeWork is the receiver CPU cost of reducing one repair symbol
	// into the block's elimination state.
	decodeWork = 60 * time.Microsecond

	// maxOpenBlocks is the span of the receiver's block window, counted
	// from the cursor's block, so a hostile sequence jump cannot balloon
	// the records; blocks past it are counted OutOfWindow and recovered
	// only by the abandon path.
	maxOpenBlocks = 1 << 12
)

// Options are Fountcast's tunables.
type Options struct {
	// K is the source-block size in packets (1..MaxBlock). Larger blocks
	// spread the repair budget across more loss patterns but delay tail
	// decode until the block completes.
	K int
	// OverheadPct is the repair budget as a percentage of source packets:
	// 25 means one repair symbol per four source packets on average
	// (fractional credit carries across blocks). 0 disables repair
	// entirely, degenerating into ordered best-effort multicast.
	OverheadPct int
	// Hold is the straggler window before an undecodable closed block's
	// missing packets are abandoned.
	Hold time.Duration
}

// Spec returns the canonical transport.Spec for a (K, overhead%) point,
// e.g. Spec(8, 25) == "fountcast(k=8,oh=25)".
func Spec(k, overheadPct int) transport.Spec {
	return transport.Spec{Name: Name, Params: transport.Params{
		"k":  strconv.Itoa(k),
		"oh": strconv.Itoa(overheadPct),
	}}
}

// ParseOptions extracts Options from spec params.
func ParseOptions(p transport.Params) (Options, error) {
	var o Options
	if err := p.Read(
		transport.IntParam("k", &o.K, DefaultK),
		transport.IntParam("oh", &o.OverheadPct, DefaultOverheadPct),
		transport.DurationParam("hold", &o.Hold, DefaultHold),
	); err != nil {
		return o, err
	}
	if o.K < 1 || o.K > MaxBlock {
		return o, fmt.Errorf("fountcast: k=%d outside 1..%d", o.K, MaxBlock)
	}
	if o.OverheadPct < 0 || o.OverheadPct > MaxOverheadPct {
		return o, fmt.Errorf("fountcast: oh=%d outside 0..%d", o.OverheadPct, MaxOverheadPct)
	}
	if o.Hold <= 0 {
		return o, fmt.Errorf("fountcast: non-positive hold %v", o.Hold)
	}
	return o, nil
}

// span is the receiver's span cap in seqs: its block window's span.
func (o Options) span() uint64 { return maxOpenBlocks * uint64(o.K) }

// Factory returns the registry factory for Fountcast.
func Factory() *transport.Factory {
	return transport.NewFactory(Name, ParseOptions, func(Options) transport.Properties { return Props }, Options.span, NewSender, NewReceiver)
}

// blockSeedFor derives a block's coefficient seed as a pure function of the
// stream, the writer, and the block index. The seed also travels in every
// symbol body, so receivers never need to compute this — but a
// deterministic derivation (rather than a sender-side RNG) keeps the whole
// protocol replayable from its configuration alone.
func blockSeedFor(stream wire.StreamID, src wire.NodeID, block uint64) uint64 {
	x := uint64(stream)<<40 ^ uint64(src)<<24 ^ block
	x ^= 0xA5A5F00DD00DF7A3
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Sender is the writer-side Fountcast instance.
type Sender struct {
	transport.SenderCore
	opts Options

	// cur accumulates the in-progress source block; payloads are arena
	// copies that stay valid until the block's repairs are folded.
	cur []wire.Fold
	// credits is the fractional repair budget carried across blocks, in
	// percent-packets: each flushed block adds count*OverheadPct and each
	// emitted repair spends 100.
	credits int
}

// NewSender builds a Fountcast sender on cfg.Endpoint.
func NewSender(cfg transport.Config, opts Options) (*Sender, error) {
	core, err := transport.NewSenderCore(cfg)
	if err != nil {
		return nil, err
	}
	s := &Sender{SenderCore: core, opts: opts, cur: make([]wire.Fold, 0, opts.K)}
	// Close flushes the final (possibly partial) block's repairs, then
	// announces EOS so receivers can close tail blocks.
	s.BeforeEOS = func() { s.flushBlock(true) }
	s.StartHeartbeat(hbInterval)
	return s, nil
}

// Publish implements transport.Sender: multicast the sample as ordinary
// data (the code is systematic — source packets are source symbols), and
// flush the block's repair symbols when it fills.
func (s *Sender) Publish(payload []byte) error {
	pkt, err := s.Stamp(payload)
	if err != nil {
		return err
	}
	err = s.Cfg.Endpoint.Multicast(pkt)
	s.cur = append(s.cur, wire.FoldOf(pkt))
	if len(s.cur) == s.opts.K {
		s.flushBlock(false)
	}
	return err
}

// flushBlock emits the current block's repair symbols and resets the block.
// The repair count comes from the integer credit accumulator, so the
// long-run symbol rate is exactly OverheadPct/100 per source packet with no
// floating point. A final partial block gets at least one repair when any
// overhead is configured at all: the stream tail is where feedback-free
// protocols are weakest, and one symbol there is cheap insurance.
func (s *Sender) flushBlock(final bool) {
	n := len(s.cur)
	if n == 0 {
		return
	}
	idx := (s.Seq() - s.Cfg.BaseSeq - 1) / uint64(s.opts.K)
	seed := blockSeedFor(s.Cfg.Stream, s.Cfg.Endpoint.Local(), idx)
	s.credits += n * s.opts.OverheadPct
	nRep := s.credits / 100
	s.credits %= 100
	if final && nRep == 0 && s.opts.OverheadPct > 0 {
		nRep, s.credits = 1, 0
	}
	for id := 1; id <= nRep; id++ {
		s.Cfg.Endpoint.Work(symbolBuildWork)
		sym := MakeRepair(s.cur, seed, uint32(id))
		body, err := (&wire.SymbolBody{Block: idx, Count: uint16(n), SymbolID: uint32(id), Seed: seed,
			Fold: sym.Fold}).Encode(nil)
		if err != nil {
			break
		}
		// The header seq is the block's highest source seq, so a symbol
		// arriving ahead of (or instead of) its data packets still
		// advances the receiver's gap detection. A failed repair send
		// costs redundancy, not correctness.
		_ = s.Cfg.Endpoint.Multicast(s.Cfg.Packet(wire.TypeSymbol, s.Seq(), body))
	}
	s.cur = s.cur[:0]
}

// Receiver is the reader-side Fountcast instance.
type Receiver struct {
	transport.ReceiverCore
	opts Options

	nextDeliver uint64 // next seq to deliver in order (BaseSeq+1-based)
	maxSeen     uint64
	// blocks holds the block records by index, from the cursor's block up:
	// freeing a block slides the window past it, so a symbol for a block
	// below the cursor finds no record and is dropped.
	blocks  transport.Window[*blockState]
	eos     bool
	eosHigh uint64

	// held counts stored-but-undelivered packet entries, rows buffered
	// repair equations and lost abandoned seqs the cursor has not passed:
	// together the recovery state reported to ReceiverStats.NoteBuffered.
	held int
	rows int
	lost int
}

// blockState is one source block's receive state. entries is indexed by
// position within the block, each the fold of that one packet;
// have/recovered/lost are position bitmasks.
type blockState struct {
	lo         uint64 // first source seq of the block
	count      int    // source packets in the block
	countKnown bool   // count pinned by a symbol body or the EOS high seq
	have       uint64 // positions stored (direct or recovered)
	recovered  uint64 // of have, positions reconstructed by decode
	lost       uint64 // positions abandoned
	entries    []wire.Fold
	dec        *Decoder // built lazily on the first repair symbol
	decRows    int      // repair equations accepted into dec
	due        time.Time
	gaveUp     bool
}

// done reports whether every source packet of the block is stored.
func (b *blockState) done() bool {
	return bits.OnesCount64(b.have&loMask(b.count)) == b.count
}

func (b *blockState) hi() uint64 { return b.lo + uint64(b.count) - 1 }

func loMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}

// NewReceiver builds a Fountcast receiver on cfg.Endpoint.
func NewReceiver(cfg transport.Config, opts Options) (*Receiver, error) {
	core, err := transport.NewReceiverCore(cfg)
	if err != nil {
		return nil, err
	}
	r := &Receiver{
		ReceiverCore: core,
		opts:         opts,
		nextDeliver:  cfg.BaseSeq + 1,
		maxSeen:      cfg.BaseSeq,
		blocks:       transport.NewWindow[*blockState](0, maxOpenBlocks),
	}
	r.OnTimer(r.fireHold)
	r.Handle(wire.TypeData, r.onData)
	r.Handle(wire.TypeSymbol, r.onSymbol)
	r.Handle(wire.TypeHeartbeat, r.onHeartbeat)
	return r, nil
}

// OpenBlocks reports the number of per-block state records currently held.
// Records run from the cursor's block to the highest block seen, so the
// count never exceeds the blocks in flight.
func (r *Receiver) OpenBlocks() int { return r.blocks.Count(transport.SlotHeld) }

func (r *Receiver) blockIdx(seq uint64) uint64 {
	return (seq - r.Cfg.BaseSeq - 1) / uint64(r.opts.K)
}

func (r *Receiver) posOf(seq uint64) int {
	return int((seq - r.Cfg.BaseSeq - 1) % uint64(r.opts.K))
}

// block returns the state record for block idx, creating it if absent. It
// returns nil below the cursor's block and a span or more past it.
func (r *Receiver) block(idx uint64) *blockState {
	if b := r.blocks.Get(idx); b != nil {
		return b
	}
	if !r.blocks.Fits(idx) {
		return nil
	}
	b := &blockState{
		lo:      r.Cfg.BaseSeq + idx*uint64(r.opts.K) + 1,
		count:   r.opts.K,
		entries: make([]wire.Fold, r.opts.K),
	}
	r.shrinkToEOS(b)
	*r.blocks.Set(idx, transport.SlotHeld) = b
	return b
}

// each calls fn on every block record, lowest index first.
func (r *Receiver) each(fn func(b *blockState)) {
	r.blocks.Each(r.blocks.Low(), transport.SlotHeld, func(_ uint64, b **blockState) { fn(*b) })
}

// shrinkToEOS pins the tail block's true count once the stream end is
// known: the final block covers only the seqs up to the EOS high seq.
func (r *Receiver) shrinkToEOS(b *blockState) {
	if !r.eos || b.countKnown {
		return
	}
	if r.eosHigh >= b.hi() || r.eosHigh < b.lo {
		return
	}
	b.count = int(r.eosHigh - b.lo + 1)
	b.countKnown = true
}

func (r *Receiver) onData(src wire.NodeID, pkt *wire.Packet) {
	seq := pkt.Seq
	if seq <= r.Cfg.BaseSeq {
		return // below this instance's sequence space (covers bogus seq 0)
	}
	if seq < r.nextDeliver {
		r.Counts.Duplicates++
		return
	}
	b := r.block(r.blockIdx(seq))
	if b == nil {
		r.Counts.OutOfWindow++
		return
	}
	p := r.posOf(seq)
	if b.lost&(1<<uint(p)) != 0 {
		r.Counts.Duplicates++
		return
	}
	if p >= b.count {
		r.Counts.OutOfWindow++ // beyond a pinned tail block: no such sample
		return
	}
	if b.have&(1<<uint(p)) != 0 {
		r.Counts.Duplicates++
		return
	}
	b.entries[p] = wire.FoldOf(pkt)
	b.have |= 1 << uint(p)
	r.held++
	if b.dec != nil && !b.gaveUp {
		r.feedDirect(b, p)
		r.tryDecode(b)
	}
	r.noteHigh(seq)
	r.drain()
	r.noteBuffered()
}

// feedDirect offers a stored direct packet to the block's decoder as its
// singleton equation.
func (r *Receiver) feedDirect(b *blockState, p int) {
	b.dec.Add(SourceSymbol(p, b.entries[p]))
}

func (r *Receiver) onSymbol(src wire.NodeID, pkt *wire.Packet) {
	sb, err := wire.DecodeSymbol(pkt.Payload)
	if err != nil {
		return
	}
	count := int(sb.Count)
	if count > r.opts.K {
		return // block bigger than this spec's K: wrong config or corrupt
	}
	b := r.block(sb.Block)
	if b == nil {
		r.Counts.OutOfWindow++
		return
	}
	r.noteHigh(pkt.Seq)
	if b.gaveUp || b.done() {
		r.drain()
		return // late or redundant: nothing left to recover
	}
	if !b.countKnown {
		if count < b.count {
			b.count = count
		}
		b.countKnown = true
	} else if count != b.count {
		return // disagrees with the pinned count: corrupt
	}
	if b.dec == nil {
		dec, err := NewDecoder(b.count)
		if err != nil {
			return
		}
		b.dec = dec
		for p := 0; p < b.count; p++ {
			if b.have&(1<<uint(p)) != 0 {
				r.feedDirect(b, p)
			}
		}
	}
	r.Cfg.Endpoint.Work(decodeWork)
	// The decoder XOR-folds in place and the packet is read-only: the
	// symbol gets its own copy of the folded payload.
	sym := Symbol{Mask: Coefficients(sb.Seed, sb.SymbolID, b.count), Fold: sb.Fold}
	sym.Data = append([]byte(nil), sym.Data...)
	if b.dec.Add(sym) {
		b.decRows++
		r.rows++
	}
	r.tryDecode(b)
	r.drain()
	r.noteBuffered()
}

// tryDecode solves the block if the decoder has reached full rank, storing
// every missing packet as recovered.
func (r *Receiver) tryDecode(b *blockState) {
	if b.dec == nil || !b.dec.Complete() {
		return
	}
	out, err := b.dec.Decode()
	r.dropDecoder(b)
	if err != nil {
		// Inconsistent symbol set (corruption): leave the block to the
		// abandon path.
		return
	}
	for p := 0; p < b.count; p++ {
		if b.have&(1<<uint(p)) != 0 {
			continue
		}
		b.entries[p] = out[p]
		b.have |= 1 << uint(p)
		b.recovered |= 1 << uint(p)
		r.held++
	}
}

func (r *Receiver) onHeartbeat(src wire.NodeID, pkt *wire.Packet) {
	hb, err := wire.DecodeHeartbeat(pkt.Payload)
	if err != nil {
		return
	}
	if pkt.Flags&wire.FlagEOS != 0 {
		r.eos = true
		r.eosHigh = hb.HighSeq
		r.each(r.shrinkToEOS)
	}
	r.noteHigh(hb.HighSeq)
	r.closeBlocks() // EOS closes blocks even when the high seq is stale
	r.drain()
	r.noteBuffered()
}

// noteHigh records a new high watermark and re-evaluates block closure.
func (r *Receiver) noteHigh(seq uint64) {
	if seq <= r.maxSeen {
		return
	}
	r.maxSeen = seq
	r.closeBlocks()
}

// closeBlocks materializes records for every block from the high
// watermark's down to the cursor's (so wholly-lost blocks get an abandon
// deadline too) and arms the straggler deadline on each closed, incomplete
// block. A block is closed once the sender has demonstrably moved past it
// — a higher seq was seen — or the stream has ended. A high watermark past
// the window's span opens nothing: one corrupt far-future seq must not
// abandon the real stream a span at a time.
func (r *Receiver) closeBlocks() {
	if r.maxSeen <= r.Cfg.BaseSeq {
		return
	}
	for idx := r.blockIdx(r.maxSeen); r.block(idx) != nil && idx > r.blocks.Low(); idx-- {
	}
	now := r.Cfg.Env.Now()
	arm := false
	r.each(func(b *blockState) {
		if b.due.IsZero() && !b.gaveUp && !b.done() && (r.maxSeen > b.hi() || r.eos) {
			b.due = now.Add(r.opts.Hold)
			arm = true
		}
	})
	if arm {
		r.armHold()
	}
}

// armHold (re)schedules the core's timer, the straggler deadline, for the
// earliest due block.
func (r *Receiver) armHold() {
	var earliest time.Time
	r.each(func(b *blockState) {
		if !b.due.IsZero() && !b.gaveUp && !b.done() && (earliest.IsZero() || b.due.Before(earliest)) {
			earliest = b.due
		}
	})
	r.ArmAt(earliest)
}

func (r *Receiver) fireHold() {
	now := r.Cfg.Env.Now()
	// Due blocks are abandoned lowest first, so OnLost reports ascending
	// seqs.
	r.each(func(b *blockState) {
		if !b.due.IsZero() && !b.due.After(now) && !b.gaveUp && !b.done() {
			r.abandonBlock(b)
		}
	})
	r.drain()
	r.noteBuffered()
	r.armHold()
}

// abandonBlock gives up on the block's missing packets: no repair arrived
// in time to decode them and there is no feedback channel to ask again.
func (r *Receiver) abandonBlock(b *blockState) {
	b.gaveUp = true
	r.dropDecoder(b)
	for p := 0; p < b.count; p++ {
		if b.have&(1<<uint(p)) != 0 {
			continue
		}
		b.lost |= 1 << uint(p)
		r.lost++
		r.Lost(b.lo + uint64(p))
	}
}

// drain delivers in order from the cursor, passing abandoned seqs, and
// frees each block record once the cursor passes its end.
func (r *Receiver) drain() {
	for r.nextDeliver <= r.maxSeen {
		seq := r.nextDeliver
		idx := r.blockIdx(seq)
		b := r.blocks.Get(idx)
		if b == nil {
			break
		}
		p := r.posOf(seq)
		switch bit := uint64(1) << uint(p); {
		case b.lost&bit != 0:
			r.lost--
		case p < b.count && b.have&bit != 0:
			r.deliver(b, p, seq)
		default:
			return
		}
		r.nextDeliver++
		if r.nextDeliver > b.hi() {
			r.freeBlock(idx, b)
		}
	}
}

// dropDecoder releases the block's decoder and its buffered equations.
func (r *Receiver) dropDecoder(b *blockState) {
	r.rows -= b.decRows
	b.decRows = 0
	b.dec = nil
}

// freeBlock drops the cursor's block once the cursor passes its end, and
// the window's low end follows the cursor.
func (r *Receiver) freeBlock(idx uint64, b *blockState) {
	r.dropDecoder(b)
	r.blocks.SlideTo(idx + 1)
}

func (r *Receiver) deliver(b *blockState, p int, seq uint64) {
	// The entry stays in place after delivery: a repair symbol arriving
	// later needs every held source packet as a decoder equation, so the
	// block's payloads live until freeBlock drops the whole record.
	e := b.entries[p]
	r.held--
	r.Deliver(r.Cfg.Endpoint.Work(procCost), seq, e.Data, time.Unix(0, int64(e.SentAt)), b.recovered&(1<<uint(p)) != 0)
}

func (r *Receiver) noteBuffered() {
	r.Counts.NoteBuffered(r.held + r.rows + r.lost)
}
