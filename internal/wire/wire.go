// Package wire defines the binary on-the-wire packet formats shared by every
// ANT transport protocol (Ricochet, NAKcast, Fountcast and best-effort
// multicast).
//
// A packet is a fixed header followed by a type-specific payload and a CRC32
// trailer. All integers are big-endian. The format is versioned so that
// incompatible changes can be detected rather than silently misparsed.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"time"
)

// NodeID identifies a node (a data writer or data reader host) inside one
// dissemination group. IDs are assigned by the group configuration and are
// dense small integers.
type NodeID uint16

// StreamID identifies a logical data stream (a DDS topic instance) so that
// several topics can share one endpoint.
type StreamID uint32

// ControlStream is the reserved stream ID used by control-plane traffic
// (membership heartbeats, joins, leaves). Data streams must use IDs >= 1.
const ControlStream StreamID = 0

// Type enumerates the packet kinds used by the transport protocols.
type Type uint8

// Packet type values. They start at 1 so that the zero value is invalid and
// an all-zero buffer cannot decode successfully.
const (
	// TypeData carries one application sample published by a data writer.
	TypeData Type = iota + 1
	// TypeRepair carries a Ricochet lateral-error-correction repair: the
	// XOR of a set of data packets, sent receiver-to-receiver.
	TypeRepair
	// TypeNak is a NAKcast negative acknowledgment listing missing
	// sequence ranges, sent receiver-to-sender.
	TypeNak
	// TypeRetrans carries a retransmitted data sample in response to a NAK.
	// It preserves the original send timestamp of the sample.
	TypeRetrans
	// Type 5 is reserved: it carried the cumulative acknowledgment of an
	// ACK-based protocol no longer implemented. Decode rejects it, and
	// keeping the slot keeps every later type's byte.
	_
	// TypeHeartbeat announces liveness and the sender's highest sequence
	// number; used for gap detection at stream tail and failure detection.
	TypeHeartbeat
	// TypeJoin announces a node joining a group.
	TypeJoin
	// TypeLeave announces a graceful departure from a group.
	TypeLeave
	// TypeRebind announces the binding's epoch chain: every transport
	// switch performed on the stream, as (epoch, cut, spec) records.
	// Receivers use it to instantiate protocol generations they missed and
	// to learn where each generation's sequence space ends.
	TypeRebind
	// TypeSymbol carries one Fountcast repair symbol: a seeded random
	// GF(2) linear combination of a source block's data packets. The body
	// names the block, the symbol index, and the coefficient seed, so any
	// receiver can regenerate the combination mask deterministically.
	TypeSymbol
)

var typeNames = [...]string{
	TypeData:      "DATA",
	TypeRepair:    "REPAIR",
	TypeNak:       "NAK",
	TypeRetrans:   "RETRANS",
	TypeHeartbeat: "HEARTBEAT",
	TypeJoin:      "JOIN",
	TypeLeave:     "LEAVE",
	TypeRebind:    "REBIND",
	TypeSymbol:    "SYMBOL",
}

// String implements fmt.Stringer.
func (t Type) String() string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Valid reports whether t is a known packet type.
func (t Type) Valid() bool { return int(t) < len(typeNames) && typeNames[t] != "" }

// Flag bits carried in the packet header.
const (
	// FlagRecovered marks a sample that was reconstructed from a repair
	// rather than received directly. Set only on locally synthesized
	// packets, never on the wire, but reserved here so headers round-trip.
	FlagRecovered uint8 = 1 << iota
	// FlagEOS marks the final sample of a stream, letting receivers
	// terminate tail-loss recovery deterministically.
	FlagEOS
)

// Version is the current wire protocol version. Version 2 added the
// 16-bit epoch field (binding generation) to the header.
const Version = 2

const (
	magic      = 0xAD
	headerSize = 1 + 1 + 1 + 1 + 2 + 4 + 8 + 8 + 2 + 2 // magic..payload length
	crcSize    = 4

	// MaxPayload bounds the payload of a single packet. Experiments use
	// 12-byte samples; the bound exists to keep buffer allocation sane.
	MaxPayload = 1 << 16
)

// Packet is the decoded form of one wire packet.
//
// SentAt is the origination timestamp of the data carried by the packet. For
// TypeData it is stamped by the writer at publish time; for TypeRetrans it
// preserves the original publish time so end-to-end latency accounting is
// correct for recovered samples.
//
// Epoch is the binding generation the packet belongs to. A stream that has
// never been rebound uses epoch 0; every live transport swap increments it.
// Receivers route packets to the protocol instance of the matching epoch.
type Packet struct {
	Type    Type
	Flags   uint8
	Src     NodeID
	Stream  StreamID
	Seq     uint64
	Epoch   uint16
	SentAt  time.Time
	Payload []byte
}

// Errors returned by Decode.
var (
	ErrTooShort    = errors.New("wire: packet too short")
	ErrBadMagic    = errors.New("wire: bad magic byte")
	ErrBadVersion  = errors.New("wire: unsupported version")
	ErrBadType     = errors.New("wire: unknown packet type")
	ErrBadChecksum = errors.New("wire: checksum mismatch")
	ErrTruncated   = errors.New("wire: truncated payload")
	ErrOversize    = errors.New("wire: payload exceeds MaxPayload")
)

// crcTable builds the Castagnoli table on first use, not at package init:
// building it costs a fraction of a millisecond, which a process that never
// encodes or decodes a packet should not pay at start.
var crcTable = sync.OnceValue(func() *crc32.Table { return crc32.MakeTable(crc32.Castagnoli) })

// EncodedSize returns the number of bytes Encode will produce for p.
func (p *Packet) EncodedSize() int { return headerSize + len(p.Payload) + crcSize }

// Encode appends the wire encoding of p to dst and returns the extended
// slice. It returns an error if the payload exceeds MaxPayload.
func (p *Packet) Encode(dst []byte) ([]byte, error) {
	if len(p.Payload) > MaxPayload {
		return dst, fmt.Errorf("%w: %d bytes", ErrOversize, len(p.Payload))
	}
	if !p.Type.Valid() {
		return dst, fmt.Errorf("%w: %d", ErrBadType, uint8(p.Type))
	}
	start := len(dst)
	var hdr [headerSize]byte
	hdr[0] = magic
	hdr[1] = Version
	hdr[2] = uint8(p.Type)
	hdr[3] = p.Flags
	binary.BigEndian.PutUint16(hdr[4:6], uint16(p.Src))
	binary.BigEndian.PutUint32(hdr[6:10], uint32(p.Stream))
	binary.BigEndian.PutUint64(hdr[10:18], p.Seq)
	binary.BigEndian.PutUint64(hdr[18:26], uint64(p.SentAt.UnixNano()))
	binary.BigEndian.PutUint16(hdr[26:28], p.Epoch)
	binary.BigEndian.PutUint16(hdr[28:30], uint16(len(p.Payload)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, p.Payload...)
	sum := crc32.Checksum(dst[start:], crcTable())
	var tail [crcSize]byte
	binary.BigEndian.PutUint32(tail[:], sum)
	dst = append(dst, tail[:]...)
	return dst, nil
}

// Marshal is a convenience wrapper around Encode that allocates a fresh
// buffer of exactly the right size.
func (p *Packet) Marshal() ([]byte, error) {
	buf := make([]byte, 0, p.EncodedSize())
	return p.Encode(buf)
}

// Decode parses one packet from buf. The returned packet's Payload aliases
// buf; callers that retain the packet beyond the lifetime of buf must copy.
func Decode(buf []byte) (*Packet, error) {
	if len(buf) < headerSize+crcSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooShort, len(buf))
	}
	if buf[0] != magic {
		return nil, ErrBadMagic
	}
	if buf[1] != Version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, buf[1])
	}
	t := Type(buf[2])
	if !t.Valid() {
		return nil, fmt.Errorf("%w: %d", ErrBadType, buf[2])
	}
	plen := int(binary.BigEndian.Uint16(buf[28:30]))
	total := headerSize + plen + crcSize
	if len(buf) < total {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrTruncated, len(buf), total)
	}
	body := buf[:headerSize+plen]
	want := binary.BigEndian.Uint32(buf[headerSize+plen : total])
	if got := crc32.Checksum(body, crcTable()); got != want {
		return nil, fmt.Errorf("%w: got %08x want %08x", ErrBadChecksum, got, want)
	}
	p := &Packet{
		Type:   t,
		Flags:  buf[3],
		Src:    NodeID(binary.BigEndian.Uint16(buf[4:6])),
		Stream: StreamID(binary.BigEndian.Uint32(buf[6:10])),
		Seq:    binary.BigEndian.Uint64(buf[10:18]),
		Epoch:  binary.BigEndian.Uint16(buf[26:28]),
		SentAt: time.Unix(0, int64(binary.BigEndian.Uint64(buf[18:26]))),
	}
	if plen > 0 {
		p.Payload = buf[headerSize : headerSize+plen]
	}
	return p, nil
}

// Clone returns a deep copy of p, including the payload. Use it when a
// decoded packet must outlive the receive buffer it aliases.
func (p *Packet) Clone() *Packet {
	c := *p
	if p.Payload != nil {
		c.Payload = append([]byte(nil), p.Payload...)
	}
	return &c
}
