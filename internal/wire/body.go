package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"
)

// This file defines the typed payload bodies carried inside packets:
// Ricochet repairs and Fountcast symbols (both carrying a Fold), NAKcast
// NAK range lists, heartbeats and rebind chains. Each body encodes to/from
// the Packet.Payload bytes.

// Body encoding errors.
var (
	ErrBodyTruncated = errors.New("wire: truncated body")
	ErrBodyInvalid   = errors.New("wire: invalid body")
)

// Fold is the XOR of a set of data packets, the arithmetic both
// feedback-free recoveries share: a Ricochet repair folds the packets it
// covers, a Fountcast symbol the packets its coefficients select. SentAt
// folds their origination timestamps (Unix nanoseconds), Len their payload
// lengths (an XOR of lengths, not a length) and Data their payloads, each
// zero-padded to the longest. A fold of one packet is that packet, so a
// fold missing exactly one of its packets gives that packet back once the
// others are XORed out, send time included.
type Fold struct {
	SentAt uint64
	Len    uint16
	Data   []byte
}

// FoldOf returns the fold of one packet. Data aliases its payload.
func FoldOf(p *Packet) Fold {
	return Fold{SentAt: uint64(p.SentAt.UnixNano()), Len: uint16(len(p.Payload)), Data: p.Payload}
}

// XOR folds o into f. When o's Data is the longer, f's grows to it with
// zeros, in place while its capacity lasts: f must own Data's capacity.
func (f *Fold) XOR(o Fold) {
	f.SentAt ^= o.SentAt
	f.Len ^= o.Len
	if n := len(o.Data) - len(f.Data); n > 0 {
		f.Data = append(f.Data, make([]byte, n)...)
	}
	for i, b := range o.Data {
		f.Data[i] ^= b
	}
}

// foldTail is the fixed part of a fold's wire tail: SentAt, Len, and the
// length of Data, which follows.
const foldTail = 8 + 2 + 2

// appendTo appends f's wire tail to dst.
func (f *Fold) appendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, f.SentAt)
	dst = binary.BigEndian.AppendUint16(dst, f.Len)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(f.Data)))
	return append(dst, f.Data...)
}

// readFold parses a fold's wire tail. Data aliases buf.
func readFold(buf []byte) (Fold, error) {
	if len(buf) < foldTail {
		return Fold{}, ErrBodyTruncated
	}
	end := foldTail + int(binary.BigEndian.Uint16(buf[10:12]))
	if len(buf) < end {
		return Fold{}, ErrBodyTruncated
	}
	return Fold{
		SentAt: binary.BigEndian.Uint64(buf[0:8]),
		Len:    binary.BigEndian.Uint16(buf[8:10]),
		Data:   buf[foldTail:end:end],
	}, nil
}

// Repair is the payload of a TypeRepair packet (lateral error correction)
// read in place: the covered sequence numbers and the Fold of the covered
// packets. A receiver that holds all but one of them reconstructs the
// missing one. It aliases the body it was decoded from, which a receiver
// never writes (see Decode), so decoding one allocates nothing.
type Repair struct {
	seqs []byte // Count() big-endian sequence numbers
	Fold Fold
}

const maxRepairSeqs = 64

// Count returns the number of packets the repair covers.
func (r Repair) Count() int { return len(r.seqs) / 8 }

// Seq returns the i-th covered sequence number.
func (r Repair) Seq(i int) uint64 { return binary.BigEndian.Uint64(r.seqs[8*i:]) }

// AppendRepair appends the body of the repair covering pkts to dst in one
// pass: the body is sized once, and the payloads are XORed straight into it.
func AppendRepair(dst []byte, pkts []*Packet) ([]byte, error) {
	n := len(pkts)
	if n == 0 || n > maxRepairSeqs {
		return dst, fmt.Errorf("%w: repair covers %d seqs", ErrBodyInvalid, n)
	}
	plen := 0
	for _, p := range pkts {
		plen = max(plen, len(p.Payload))
	}
	dst = slices.Grow(dst, 1+8*n+foldTail+plen)
	dst = append(dst, byte(n))
	for _, p := range pkts {
		dst = binary.BigEndian.AppendUint64(dst, p.Seq)
	}
	// The fold's Data starts empty where the tail's payload goes, in dst's
	// spare capacity, and grows there, so appendTo's copy of it is in place.
	at := len(dst) + foldTail
	f := Fold{Data: dst[at:at]}
	for _, p := range pkts {
		f.XOR(FoldOf(p))
	}
	return f.appendTo(dst), nil
}

// Reconstruct XORs the held sibling packets out of the repair and returns
// the missing packet's send time and payload, in a buffer of its own. held
// must contain every covered packet except the missing one.
func (r Repair) Reconstruct(held []*Packet) (sentAt time.Time, payload []byte, err error) {
	if len(held) != r.Count()-1 {
		return time.Time{}, nil, fmt.Errorf("%w: need %d siblings, have %d",
			ErrBodyInvalid, r.Count()-1, len(held))
	}
	f := r.Fold
	f.Data = append([]byte(nil), f.Data...)
	for _, p := range held {
		if len(p.Payload) > len(f.Data) { // a sibling the repair cannot have covered
			return time.Time{}, nil, fmt.Errorf("%w: sibling payload %d exceeds repair payload %d",
				ErrBodyInvalid, len(p.Payload), len(f.Data))
		}
		f.XOR(FoldOf(p))
	}
	if int(f.Len) > len(f.Data) {
		return time.Time{}, nil, fmt.Errorf("%w: reconstructed length %d exceeds buffer %d",
			ErrBodyInvalid, f.Len, len(f.Data))
	}
	return time.Unix(0, int64(f.SentAt)), f.Data[:f.Len], nil
}

// DecodeRepair parses a Repair body in place.
func DecodeRepair(buf []byte) (Repair, error) {
	if len(buf) < 1 {
		return Repair{}, ErrBodyTruncated
	}
	n := int(buf[0])
	if n == 0 || n > maxRepairSeqs {
		return Repair{}, fmt.Errorf("%w: repair covers %d seqs", ErrBodyInvalid, n)
	}
	end := 1 + 8*n
	if len(buf) < end {
		return Repair{}, ErrBodyTruncated
	}
	f, err := readFold(buf[end:])
	if err != nil {
		return Repair{}, err
	}
	return Repair{seqs: buf[1:end:end], Fold: f}, nil
}

// SeqRange is a half-open-free inclusive range [From, To] of missing
// sequence numbers.
type SeqRange struct {
	From, To uint64
}

// Count returns the number of sequence numbers covered by the range.
func (r SeqRange) Count() uint64 {
	if r.To < r.From {
		return 0
	}
	return r.To - r.From + 1
}

// NakBody is the payload of a TypeNak packet: the ranges of sequence
// numbers a receiver is missing.
type NakBody struct {
	Ranges []SeqRange
}

const maxNakRanges = 255

// Encode appends the body encoding to dst.
func (nb *NakBody) Encode(dst []byte) ([]byte, error) {
	if len(nb.Ranges) == 0 || len(nb.Ranges) > maxNakRanges {
		return dst, fmt.Errorf("%w: %d NAK ranges", ErrBodyInvalid, len(nb.Ranges))
	}
	dst = slices.Grow(dst, 1+16*len(nb.Ranges))
	dst = append(dst, byte(len(nb.Ranges)))
	var b8 [8]byte
	for _, r := range nb.Ranges {
		if r.To < r.From {
			return dst, fmt.Errorf("%w: inverted range [%d,%d]", ErrBodyInvalid, r.From, r.To)
		}
		binary.BigEndian.PutUint64(b8[:], r.From)
		dst = append(dst, b8[:]...)
		binary.BigEndian.PutUint64(b8[:], r.To)
		dst = append(dst, b8[:]...)
	}
	return dst, nil
}

// DecodeNak parses a NakBody.
func DecodeNak(buf []byte) (*NakBody, error) {
	if len(buf) < 1 {
		return nil, ErrBodyTruncated
	}
	n := int(buf[0])
	if n == 0 {
		return nil, fmt.Errorf("%w: empty NAK", ErrBodyInvalid)
	}
	if len(buf) < 1+16*n {
		return nil, ErrBodyTruncated
	}
	nb := &NakBody{Ranges: make([]SeqRange, n)}
	off := 1
	for i := 0; i < n; i++ {
		nb.Ranges[i].From = binary.BigEndian.Uint64(buf[off : off+8])
		nb.Ranges[i].To = binary.BigEndian.Uint64(buf[off+8 : off+16])
		if nb.Ranges[i].To < nb.Ranges[i].From {
			return nil, fmt.Errorf("%w: inverted range", ErrBodyInvalid)
		}
		off += 16
	}
	return nb, nil
}

// HeartbeatBody is the payload of a TypeHeartbeat packet: the sender's
// highest published sequence number. The encoding is 12 bytes: the high
// seq, then four reserved bytes written as zero (a membership incarnation
// once), which keep the heartbeat's wire format.
type HeartbeatBody struct {
	HighSeq uint64
}

// Encode appends the body encoding to dst.
func (h *HeartbeatBody) Encode(dst []byte) ([]byte, error) {
	var b [12]byte
	binary.BigEndian.PutUint64(b[0:8], h.HighSeq)
	return append(dst, b[:]...), nil
}

// DecodeHeartbeat parses a HeartbeatBody.
func DecodeHeartbeat(buf []byte) (*HeartbeatBody, error) {
	if len(buf) < 12 {
		return nil, ErrBodyTruncated
	}
	return &HeartbeatBody{HighSeq: binary.BigEndian.Uint64(buf[0:8])}, nil
}

// SymbolBody is the payload of a TypeSymbol packet: one Fountcast repair
// symbol. A source block is Count consecutive data packets; the symbol is
// the Fold of the subset selected by a coefficient bit vector that every
// node regenerates deterministically from (Seed, SymbolID), so the packet
// carries only the block coordinates and the seed, never the mask itself.
// A decoded source symbol therefore reconstructs the original packet's send
// time, so latency accounting survives recovery.
type SymbolBody struct {
	// Block is the source-block index within the stream's sequence space.
	Block uint64
	// Count is the number of source packets in the block (1..64; the
	// stream's final block may be shorter than the configured block size).
	Count uint16
	// SymbolID is the repair symbol's index within the block, starting at
	// 1. Distinct IDs yield independent coefficient draws from the seed.
	SymbolID uint32
	// Seed is the block's coefficient seed.
	Seed uint64
	Fold Fold
}

// MaxSymbolCount bounds a source block's size: coefficient vectors are one
// 64-bit word.
const MaxSymbolCount = 64

// symbolHead is the block coordinates' size, before the fold's tail.
const symbolHead = 8 + 2 + 4 + 8

// Encode appends the body encoding to dst.
func (sb *SymbolBody) Encode(dst []byte) ([]byte, error) {
	if sb.Count == 0 || sb.Count > MaxSymbolCount {
		return dst, fmt.Errorf("%w: symbol block of %d sources", ErrBodyInvalid, sb.Count)
	}
	if sb.SymbolID == 0 {
		return dst, fmt.Errorf("%w: symbol id 0", ErrBodyInvalid)
	}
	dst = slices.Grow(dst, symbolHead+foldTail+len(sb.Fold.Data))
	dst = binary.BigEndian.AppendUint64(dst, sb.Block)
	dst = binary.BigEndian.AppendUint16(dst, sb.Count)
	dst = binary.BigEndian.AppendUint32(dst, sb.SymbolID)
	dst = binary.BigEndian.AppendUint64(dst, sb.Seed)
	return sb.Fold.appendTo(dst), nil
}

// DecodeSymbol parses a SymbolBody. Its Fold aliases buf, as in
// DecodeRepair.
func DecodeSymbol(buf []byte) (SymbolBody, error) {
	if len(buf) < symbolHead+foldTail {
		return SymbolBody{}, ErrBodyTruncated
	}
	sb := SymbolBody{
		Block:    binary.BigEndian.Uint64(buf[0:8]),
		Count:    binary.BigEndian.Uint16(buf[8:10]),
		SymbolID: binary.BigEndian.Uint32(buf[10:14]),
		Seed:     binary.BigEndian.Uint64(buf[14:22]),
	}
	if sb.Count == 0 || sb.Count > MaxSymbolCount {
		return SymbolBody{}, fmt.Errorf("%w: symbol block of %d sources", ErrBodyInvalid, sb.Count)
	}
	if sb.SymbolID == 0 {
		return SymbolBody{}, fmt.Errorf("%w: symbol id 0", ErrBodyInvalid)
	}
	// Fold.Len is the XOR of the covered payload lengths, not a length
	// itself, so it carries no bound the payload must satisfy here; the
	// decoder validates reconstructed lengths when it solves the block.
	var err error
	if sb.Fold, err = readFold(buf[symbolHead:]); err != nil {
		return SymbolBody{}, err
	}
	return sb, nil
}

// RebindRecord describes one completed or in-progress transport switch on a
// stream: the epoch that was opened, the cut sequence at which the previous
// epoch's sequence space ends (the new epoch publishes from Cut+1 onward),
// and the canonical spec string of the new epoch's protocol.
type RebindRecord struct {
	Epoch uint16
	Cut   uint64 // highest sequence owned by the previous epoch
	Spec  string // canonical transport spec, e.g. "nakcast(timeout=10ms)"
}

// RebindBody is the payload of a TypeRebind packet: the full chain of
// switches performed on the stream, oldest first. Carrying the whole chain
// (rather than just the latest switch) lets a receiver that was partitioned
// across several swaps reconstruct every generation it missed.
type RebindBody struct {
	Records []RebindRecord
}

const (
	maxRebindRecords = 32
	maxRebindSpec    = 255
)

// Encode appends the body encoding to dst.
func (rb *RebindBody) Encode(dst []byte) ([]byte, error) {
	if len(rb.Records) == 0 || len(rb.Records) > maxRebindRecords {
		return dst, fmt.Errorf("%w: %d rebind records", ErrBodyInvalid, len(rb.Records))
	}
	dst = append(dst, byte(len(rb.Records)))
	var b8 [8]byte
	var b2 [2]byte
	for _, r := range rb.Records {
		if len(r.Spec) == 0 || len(r.Spec) > maxRebindSpec {
			return dst, fmt.Errorf("%w: rebind spec length %d", ErrBodyInvalid, len(r.Spec))
		}
		binary.BigEndian.PutUint16(b2[:], r.Epoch)
		dst = append(dst, b2[:]...)
		binary.BigEndian.PutUint64(b8[:], r.Cut)
		dst = append(dst, b8[:]...)
		dst = append(dst, byte(len(r.Spec)))
		dst = append(dst, r.Spec...)
	}
	return dst, nil
}

// DecodeRebind parses a RebindBody.
func DecodeRebind(buf []byte) (*RebindBody, error) {
	if len(buf) < 1 {
		return nil, ErrBodyTruncated
	}
	n := int(buf[0])
	if n == 0 || n > maxRebindRecords {
		return nil, fmt.Errorf("%w: %d rebind records", ErrBodyInvalid, n)
	}
	rb := &RebindBody{Records: make([]RebindRecord, 0, n)}
	off := 1
	for i := 0; i < n; i++ {
		if len(buf) < off+11 {
			return nil, ErrBodyTruncated
		}
		var r RebindRecord
		r.Epoch = binary.BigEndian.Uint16(buf[off : off+2])
		r.Cut = binary.BigEndian.Uint64(buf[off+2 : off+10])
		slen := int(buf[off+10])
		off += 11
		if slen == 0 {
			return nil, fmt.Errorf("%w: empty rebind spec", ErrBodyInvalid)
		}
		if len(buf) < off+slen {
			return nil, ErrBodyTruncated
		}
		r.Spec = string(buf[off : off+slen])
		off += slen
		rb.Records = append(rb.Records, r)
	}
	return rb, nil
}
