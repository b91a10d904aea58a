package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"
)

// This file defines the typed payload bodies carried inside packets:
// Ricochet repairs, NAKcast NAK range lists, and heartbeats. Each body
// encodes to/from the Packet.Payload bytes.

// Body encoding errors.
var (
	ErrBodyTruncated = errors.New("wire: truncated body")
	ErrBodyInvalid   = errors.New("wire: invalid body")
)

// Repair is the payload of a TypeRepair packet: the XOR of a set of data
// packets (lateral error correction). A receiver that holds all but one of
// the covered sequence numbers can reconstruct the missing sample by XOR.
//
// XORSentAt and XORPayload are the bitwise XOR of the covered packets'
// origination timestamps (as Unix nanoseconds) and payloads. Payloads
// shorter than the longest covered payload are treated as zero-padded;
// XORLen is the XOR of the individual payload lengths so the reconstructed
// length is recoverable when exactly one packet is missing.
type Repair struct {
	Seqs       []uint64
	XORSentAt  uint64
	XORLen     uint16
	XORPayload []byte
}

const maxRepairSeqs = 64

// AddPacket folds one data packet into the repair.
func (r *Repair) AddPacket(p *Packet) {
	r.Seqs = append(r.Seqs, p.Seq)
	r.XORSentAt ^= uint64(p.SentAt.UnixNano())
	r.XORLen ^= uint16(len(p.Payload))
	if len(p.Payload) > len(r.XORPayload) {
		grown := make([]byte, len(p.Payload))
		copy(grown, r.XORPayload)
		r.XORPayload = grown
	}
	for i, b := range p.Payload {
		r.XORPayload[i] ^= b
	}
}

// Reconstruct XORs the held sibling packets out of the repair and returns
// the missing packet's send time and payload. held must contain every
// covered packet except the missing one.
func (r *Repair) Reconstruct(held []*Packet) (sentAt time.Time, payload []byte, err error) {
	if len(held) != len(r.Seqs)-1 {
		return time.Time{}, nil, fmt.Errorf("%w: need %d siblings, have %d",
			ErrBodyInvalid, len(r.Seqs)-1, len(held))
	}
	ts := r.XORSentAt
	ln := r.XORLen
	buf := append([]byte(nil), r.XORPayload...)
	for _, p := range held {
		if len(p.Payload) > len(buf) { // a sibling the repair cannot have covered
			return time.Time{}, nil, fmt.Errorf("%w: sibling payload %d exceeds repair payload %d",
				ErrBodyInvalid, len(p.Payload), len(buf))
		}
		ts ^= uint64(p.SentAt.UnixNano())
		ln ^= uint16(len(p.Payload))
		for i, b := range p.Payload {
			buf[i] ^= b
		}
	}
	if int(ln) > len(buf) {
		return time.Time{}, nil, fmt.Errorf("%w: reconstructed length %d exceeds buffer %d",
			ErrBodyInvalid, ln, len(buf))
	}
	return time.Unix(0, int64(ts)), buf[:ln], nil
}

// Encode appends the body encoding to dst.
func (r *Repair) Encode(dst []byte) ([]byte, error) {
	if len(r.Seqs) == 0 || len(r.Seqs) > maxRepairSeqs {
		return dst, fmt.Errorf("%w: repair covers %d seqs", ErrBodyInvalid, len(r.Seqs))
	}
	dst = slices.Grow(dst, 1+8*len(r.Seqs)+8+2+2+len(r.XORPayload))
	dst = append(dst, byte(len(r.Seqs)))
	var b8 [8]byte
	for _, s := range r.Seqs {
		binary.BigEndian.PutUint64(b8[:], s)
		dst = append(dst, b8[:]...)
	}
	binary.BigEndian.PutUint64(b8[:], r.XORSentAt)
	dst = append(dst, b8[:]...)
	var b2 [2]byte
	binary.BigEndian.PutUint16(b2[:], r.XORLen)
	dst = append(dst, b2[:]...)
	binary.BigEndian.PutUint16(b2[:], uint16(len(r.XORPayload)))
	dst = append(dst, b2[:]...)
	dst = append(dst, r.XORPayload...)
	return dst, nil
}

// DecodeRepair parses a Repair body. XORPayload aliases buf, as Decode's
// Payload does: a received packet is never written again, and Reconstruct
// works on a copy.
func DecodeRepair(buf []byte) (*Repair, error) {
	if len(buf) < 1 {
		return nil, ErrBodyTruncated
	}
	n := int(buf[0])
	if n == 0 || n > maxRepairSeqs {
		return nil, fmt.Errorf("%w: repair covers %d seqs", ErrBodyInvalid, n)
	}
	need := 1 + 8*n + 8 + 2 + 2
	if len(buf) < need {
		return nil, ErrBodyTruncated
	}
	r := &Repair{Seqs: make([]uint64, n)}
	off := 1
	for i := 0; i < n; i++ {
		r.Seqs[i] = binary.BigEndian.Uint64(buf[off : off+8])
		off += 8
	}
	r.XORSentAt = binary.BigEndian.Uint64(buf[off : off+8])
	off += 8
	r.XORLen = binary.BigEndian.Uint16(buf[off : off+2])
	off += 2
	plen := int(binary.BigEndian.Uint16(buf[off : off+2]))
	off += 2
	if len(buf) < off+plen {
		return nil, ErrBodyTruncated
	}
	r.XORPayload = buf[off : off+plen : off+plen]
	return r, nil
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
// highest published sequence number and its membership incarnation.
type HeartbeatBody struct {
	HighSeq     uint64
	Incarnation uint32
}

// Encode appends the body encoding to dst.
func (h *HeartbeatBody) Encode(dst []byte) ([]byte, error) {
	var b [12]byte
	binary.BigEndian.PutUint64(b[0:8], h.HighSeq)
	binary.BigEndian.PutUint32(b[8:12], h.Incarnation)
	return append(dst, b[:]...), nil
}

// DecodeHeartbeat parses a HeartbeatBody.
func DecodeHeartbeat(buf []byte) (*HeartbeatBody, error) {
	if len(buf) < 12 {
		return nil, ErrBodyTruncated
	}
	return &HeartbeatBody{
		HighSeq:     binary.BigEndian.Uint64(buf[0:8]),
		Incarnation: binary.BigEndian.Uint32(buf[8:12]),
	}, nil
}

// SymbolBody is the payload of a TypeSymbol packet: one Fountcast repair
// symbol. A source block is Count consecutive data packets; the symbol is
// the XOR of the subset selected by a coefficient bit vector that every
// node regenerates deterministically from (Seed, SymbolID), so the packet
// carries only the block coordinates and the seed, never the mask itself.
//
// XORSentAt, XORLen, and XORPayload fold the selected packets' origination
// timestamps (Unix nanoseconds), payload lengths, and zero-padded payloads,
// exactly like Repair — a decoded source symbol therefore reconstructs the
// original packet's send time, so latency accounting survives recovery.
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
	Seed       uint64
	XORSentAt  uint64
	XORLen     uint16
	XORPayload []byte
}

// MaxSymbolCount bounds a source block's size: coefficient vectors are one
// 64-bit word.
const MaxSymbolCount = 64

// Encode appends the body encoding to dst.
func (sb *SymbolBody) Encode(dst []byte) ([]byte, error) {
	if sb.Count == 0 || sb.Count > MaxSymbolCount {
		return dst, fmt.Errorf("%w: symbol block of %d sources", ErrBodyInvalid, sb.Count)
	}
	if sb.SymbolID == 0 {
		return dst, fmt.Errorf("%w: symbol id 0", ErrBodyInvalid)
	}
	dst = slices.Grow(dst, symbolFixedSize+len(sb.XORPayload))
	var b8 [8]byte
	var b4 [4]byte
	var b2 [2]byte
	binary.BigEndian.PutUint64(b8[:], sb.Block)
	dst = append(dst, b8[:]...)
	binary.BigEndian.PutUint16(b2[:], sb.Count)
	dst = append(dst, b2[:]...)
	binary.BigEndian.PutUint32(b4[:], sb.SymbolID)
	dst = append(dst, b4[:]...)
	binary.BigEndian.PutUint64(b8[:], sb.Seed)
	dst = append(dst, b8[:]...)
	binary.BigEndian.PutUint64(b8[:], sb.XORSentAt)
	dst = append(dst, b8[:]...)
	binary.BigEndian.PutUint16(b2[:], sb.XORLen)
	dst = append(dst, b2[:]...)
	binary.BigEndian.PutUint16(b2[:], uint16(len(sb.XORPayload)))
	dst = append(dst, b2[:]...)
	dst = append(dst, sb.XORPayload...)
	return dst, nil
}

// symbolFixedSize is the fixed prefix of a SymbolBody encoding.
const symbolFixedSize = 8 + 2 + 4 + 8 + 8 + 2 + 2

// DecodeSymbol parses a SymbolBody. XORPayload aliases buf, as in
// DecodeRepair.
func DecodeSymbol(buf []byte) (*SymbolBody, error) {
	if len(buf) < symbolFixedSize {
		return nil, ErrBodyTruncated
	}
	sb := &SymbolBody{
		Block:     binary.BigEndian.Uint64(buf[0:8]),
		Count:     binary.BigEndian.Uint16(buf[8:10]),
		SymbolID:  binary.BigEndian.Uint32(buf[10:14]),
		Seed:      binary.BigEndian.Uint64(buf[14:22]),
		XORSentAt: binary.BigEndian.Uint64(buf[22:30]),
		XORLen:    binary.BigEndian.Uint16(buf[30:32]),
	}
	if sb.Count == 0 || sb.Count > MaxSymbolCount {
		return nil, fmt.Errorf("%w: symbol block of %d sources", ErrBodyInvalid, sb.Count)
	}
	if sb.SymbolID == 0 {
		return nil, fmt.Errorf("%w: symbol id 0", ErrBodyInvalid)
	}
	// XORLen is the XOR of the covered payload lengths, not a length
	// itself, so it carries no bound the payload must satisfy here; the
	// decoder validates reconstructed lengths when it solves the block.
	plen := int(binary.BigEndian.Uint16(buf[32:34]))
	if len(buf) < symbolFixedSize+plen {
		return nil, ErrBodyTruncated
	}
	sb.XORPayload = buf[symbolFixedSize : symbolFixedSize+plen : symbolFixedSize+plen]
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
