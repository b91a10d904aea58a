// Package fountcast implements a rateless fountain-coded multicast
// transport: senders group consecutive data packets into fixed-size source
// blocks and multicast extra repair symbols — seeded random GF(2) linear
// combinations of the block — at a configurable overhead rate. Receivers
// decode missing packets by incremental Gaussian elimination as soon as any
// K linearly independent symbols (direct data or repairs) arrive, giving
// zero-RTT loss recovery with no feedback channel.
//
// This file is the pure codec: coefficient generation, symbol folding (on
// wire.Fold, the XOR Ricochet's repairs use too), and the incremental
// decoder. It has no dependency on the transport runtime so the properties
// ("any K independent symbols reconstruct the block byte-identically") can
// be tested and fuzzed in isolation.
package fountcast

import (
	"errors"
	"fmt"
	"math/bits"

	"adamant/internal/wire"
)

// MaxBlock bounds the source-block size: coefficient vectors are one 64-bit
// word, so a block covers at most 64 source packets.
const MaxBlock = 64

// Coefficients returns the deterministic coefficient bit vector for repair
// symbol symbolID of a count-packet block seeded with seed: bit i selects
// source packet i into the XOR. Every node derives the identical mask from
// the (seed, symbolID) pair carried on the wire, so repair packets never
// ship the vector itself.
//
// Symbol 1 is always the full-block XOR: one repair must deterministically
// cover ANY single loss (the common case), not just cover it with
// probability ~1/2, so the minimum overhead budget matches a Ricochet
// panel's single-loss guarantee. Symbols 2 and up are splitmix64-style
// draws over the pair, masked to count bits, with zero draws remapped by
// re-hashing. Dense random vectors make the decode matrix behave like a
// uniform random GF(2) matrix: the chance that m >= k received symbols fail
// to span the block decays as 2^-(m-k), with no correlated erasure pattern
// (e.g. a loss burst) able to target the code's structure the way it can
// wipe out a fixed XOR panel.
func Coefficients(seed uint64, symbolID uint32, count int) uint64 {
	if count <= 0 || count > MaxBlock {
		return 0
	}
	var mask uint64
	if count == 64 {
		mask = ^uint64(0)
	} else {
		mask = (uint64(1) << uint(count)) - 1
	}
	if symbolID == 1 {
		return mask
	}
	x := seed ^ (uint64(symbolID) * 0x9E3779B97F4A7C15)
	for {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		if v := z & mask; v != 0 {
			return v
		}
	}
}

// Symbol is one equation over a block: the wire.Fold of the source packets
// selected by Mask. A directly received data packet is the singleton
// equation Mask = 1<<i; a repair packet is a dense combination. Folding
// carries the send times through recovery, so end-to-end latency
// accounting is exact for decoded packets.
type Symbol struct {
	Mask uint64
	wire.Fold
}

// SourceSymbol returns source packet i of a block, the fold of that packet
// alone, as its singleton equation. The symbol owns a copy of the payload,
// as Decoder.Add needs.
func SourceSymbol(i int, src wire.Fold) Symbol {
	src.Data = append([]byte(nil), src.Data...)
	return Symbol{Mask: 1 << uint(i), Fold: src}
}

// MakeRepair folds the repair symbol symbolID for a block of sources, each
// the fold of one packet, under the given seed. The returned symbol owns
// its Data buffer.
func MakeRepair(sources []wire.Fold, seed uint64, symbolID uint32) Symbol {
	s := Symbol{Mask: Coefficients(seed, symbolID, len(sources))}
	for m := s.Mask; m != 0; m &= m - 1 {
		s.XOR(sources[bits.TrailingZeros64(m)])
	}
	return s
}

// ErrInconsistent is returned by Decode when the accepted symbols do not
// describe any block: a solved packet's folded length exceeds its folded
// data. This cannot happen for symbols produced by one honest sender; it
// flags corruption or cross-block mixing by the caller.
var ErrInconsistent = errors.New("fountcast: inconsistent symbol set")

// Decoder incrementally solves one block by Gaussian elimination over
// GF(2). Feed it symbols as they arrive with Add; once Complete reports
// true, Decode returns every source packet byte-identically.
//
// Rows are indexed by pivot — the lowest set bit of the row's reduced mask
// — so Add is O(k) XOR-fold operations and the full decode of a block is
// O(k^2) row operations, each O(symbol size) bytes. The decoder is
// deterministic: the final state depends only on the set of independent
// symbols accepted, not on arrival order (elimination over GF(2) yields the
// same row space, and back-substitution resolves each packet uniquely).
type Decoder struct {
	count int
	rank  int
	rows  [MaxBlock]*Symbol
}

// NewDecoder returns a decoder for a block of count source packets.
// count must be in [1, MaxBlock].
func NewDecoder(count int) (*Decoder, error) {
	if count <= 0 || count > MaxBlock {
		return nil, fmt.Errorf("fountcast: block of %d sources (want 1..%d)", count, MaxBlock)
	}
	return &Decoder{count: count}, nil
}

// Count returns the block size the decoder was built for.
func (d *Decoder) Count() int { return d.count }

// Rank returns the number of linearly independent symbols accepted so far.
func (d *Decoder) Rank() int { return d.rank }

// Complete reports whether the block is solvable (rank == count).
func (d *Decoder) Complete() bool { return d.rank == d.count }

// Add reduces sym against the accepted rows and keeps it if it is linearly
// independent, returning true. Dependent symbols (duplicates, or
// combinations already spanned) reduce to zero and are discarded, returning
// false. Symbols whose mask selects bits outside the block are rejected.
// The symbol's Data buffer is taken over by the decoder; callers must not
// reuse it.
func (d *Decoder) Add(sym Symbol) bool {
	if sym.Mask == 0 {
		return false
	}
	if d.count < 64 && sym.Mask>>uint(d.count) != 0 {
		return false
	}
	s := sym
	for s.Mask != 0 {
		p := bits.TrailingZeros64(s.Mask)
		r := d.rows[p]
		if r == nil {
			row := s
			d.rows[p] = &row
			d.rank++
			return true
		}
		s.Mask ^= r.Mask
		s.XOR(r.Fold)
	}
	return false
}

// Decode back-substitutes the solved system and returns the block's source
// packets in index order, each the fold of that packet alone. It must only
// be called when Complete() is true. Decode is idempotent: it leaves the
// rows fully reduced (each a singleton equation), so repeated calls return
// the same packets.
func (d *Decoder) Decode() ([]wire.Fold, error) {
	if !d.Complete() {
		return nil, fmt.Errorf("fountcast: decode at rank %d/%d", d.rank, d.count)
	}
	// Walk pivots high to low: rows above the current pivot are already
	// singletons, so XORing them out leaves this row a singleton too.
	for p := d.count - 1; p >= 0; p-- {
		r := d.rows[p]
		for m := r.Mask &^ (1 << uint(p)); m != 0; m &= m - 1 {
			q := bits.TrailingZeros64(m)
			o := d.rows[q]
			r.Mask ^= o.Mask
			r.XOR(o.Fold)
		}
	}
	out := make([]wire.Fold, d.count)
	for i := 0; i < d.count; i++ {
		r := d.rows[i]
		if int(r.Len) > len(r.Data) {
			// The folded length claims more bytes than any symbol
			// carried; see ErrInconsistent.
			return nil, fmt.Errorf("%w: packet %d length %d exceeds %d data bytes",
				ErrInconsistent, i, r.Len, len(r.Data))
		}
		out[i] = wire.Fold{SentAt: r.SentAt, Len: r.Len, Data: r.Data[:r.Len]}
	}
	return out, nil
}

// Has reports whether source packet i is already individually known — its
// row is a solved singleton. Direct data arrivals make their row a
// singleton immediately; repairs may solve packets only at Decode time.
func (d *Decoder) Has(i int) bool {
	if i < 0 || i >= d.count {
		return false
	}
	r := d.rows[i]
	return r != nil && r.Mask == 1<<uint(i)
}
