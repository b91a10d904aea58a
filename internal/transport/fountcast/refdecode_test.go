package fountcast

import (
	"bytes"
	"math/bits"

	"adamant/internal/wire"
)

// refDecoder is a deliberately naive reference implementation kept verbatim
// for differential testing of the incremental Decoder: it retains every
// symbol ever offered and re-solves the entire system from scratch by
// Gauss–Jordan elimination on each query — O(n³) row operations, no
// incremental state, no cleverness. Correctness of the fast decoder is
// defined as agreement with this one.
type refDecoder struct {
	count int
	syms  []Symbol
}

func newRefDecoder(count int) *refDecoder {
	return &refDecoder{count: count}
}

// add records a deep copy of the symbol (the reference never mutates or
// takes over caller buffers).
func (r *refDecoder) add(s Symbol) {
	c := s
	c.Data = append([]byte(nil), s.Data...)
	r.syms = append(r.syms, c)
}

// solve re-runs full Gauss–Jordan elimination over every recorded symbol.
// It returns the decoded sources and true iff the system has full rank and
// is consistent.
func (r *refDecoder) solve() ([]wire.Fold, bool) {
	rows := make([]Symbol, 0, len(r.syms))
	for _, s := range r.syms {
		if s.Mask == 0 {
			continue
		}
		if r.count < 64 && s.Mask>>uint(r.count) != 0 {
			continue
		}
		c := s
		c.Data = append([]byte(nil), s.Data...)
		rows = append(rows, c)
	}
	pivotRow := make([]int, r.count)
	used := make([]bool, len(rows))
	for col := 0; col < r.count; col++ {
		sel := -1
		for i := range rows {
			if !used[i] && rows[i].Mask&(1<<uint(col)) != 0 {
				sel = i
				break
			}
		}
		if sel < 0 {
			return nil, false
		}
		used[sel] = true
		pivotRow[col] = sel
		for i := range rows {
			if i == sel || rows[i].Mask&(1<<uint(col)) == 0 {
				continue
			}
			rows[i].Mask ^= rows[sel].Mask
			rows[i].XOR(rows[sel].Fold)
		}
	}
	out := make([]wire.Fold, r.count)
	for col := 0; col < r.count; col++ {
		s := rows[pivotRow[col]]
		if s.Mask != 1<<uint(col) || bits.OnesCount64(s.Mask) != 1 {
			return nil, false
		}
		if int(s.Len) > len(s.Data) {
			return nil, false
		}
		out[col] = wire.Fold{SentAt: s.SentAt, Len: s.Len, Data: s.Data[:s.Len]}
	}
	return out, true
}

// sourcesEqual reports byte-identical equality of two decoded blocks.
func sourcesEqual(a, b []wire.Fold) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].SentAt != b[i].SentAt || a[i].Len != b[i].Len || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}
