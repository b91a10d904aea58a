package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func samplePacket() *Packet {
	return &Packet{
		Type:    TypeData,
		Flags:   FlagEOS,
		Src:     7,
		Stream:  42,
		Seq:     123456789,
		Epoch:   3,
		SentAt:  time.Unix(0, 1_600_000_000_123_456_789),
		Payload: []byte("hello, adamant"),
	}
}

func TestPacketRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		pkt  *Packet
	}{
		{"data with payload", samplePacket()},
		{"empty payload", &Packet{Type: TypeHeartbeat, Src: 1, Stream: 9, Seq: 5, SentAt: time.Unix(12, 34)}},
		{"zero seq", &Packet{Type: TypeNak, Src: 0, Stream: 0, Seq: 0, SentAt: time.Unix(0, 0), Payload: []byte{1}}},
		{"max node id", &Packet{Type: TypeLeave, Src: 65535, Stream: 1, Seq: 1, SentAt: time.Unix(0, 99)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			buf, err := tt.pkt.Marshal()
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			if len(buf) != tt.pkt.EncodedSize() {
				t.Errorf("EncodedSize = %d, Marshal produced %d", tt.pkt.EncodedSize(), len(buf))
			}
			got, err := Decode(buf)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if got.Type != tt.pkt.Type || got.Flags != tt.pkt.Flags || got.Src != tt.pkt.Src ||
				got.Stream != tt.pkt.Stream || got.Seq != tt.pkt.Seq || got.Epoch != tt.pkt.Epoch {
				t.Errorf("header mismatch: got %+v want %+v", got, tt.pkt)
			}
			if !got.SentAt.Equal(tt.pkt.SentAt) {
				t.Errorf("SentAt = %v, want %v", got.SentAt, tt.pkt.SentAt)
			}
			if !bytes.Equal(got.Payload, tt.pkt.Payload) {
				t.Errorf("payload = %q, want %q", got.Payload, tt.pkt.Payload)
			}
		})
	}
}

func TestPacketRoundTripProperty(t *testing.T) {
	f := func(flags uint8, src uint16, stream uint32, seq uint64, epoch uint16, nanos int64, payload []byte) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		p := &Packet{
			Type:    TypeData,
			Flags:   flags,
			Src:     NodeID(src),
			Stream:  StreamID(stream),
			Seq:     seq,
			Epoch:   epoch,
			SentAt:  time.Unix(0, nanos),
			Payload: payload,
		}
		buf, err := p.Marshal()
		if err != nil {
			return false
		}
		got, err := Decode(buf)
		if err != nil {
			return false
		}
		return got.Flags == flags && got.Src == NodeID(src) && got.Stream == StreamID(stream) &&
			got.Seq == seq && got.Epoch == epoch && got.SentAt.UnixNano() == nanos &&
			bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	good, err := samplePacket().Marshal()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("too short", func(t *testing.T) {
		if _, err := Decode(good[:10]); !errors.Is(err, ErrTooShort) {
			t.Errorf("err = %v, want ErrTooShort", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] = 0x00
		if _, err := Decode(bad); !errors.Is(err, ErrBadMagic) {
			t.Errorf("err = %v, want ErrBadMagic", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[1] = 99
		if _, err := Decode(bad); !errors.Is(err, ErrBadVersion) {
			t.Errorf("err = %v, want ErrBadVersion", err)
		}
	})
	t.Run("bad type", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[2] = 200
		if _, err := Decode(bad); !errors.Is(err, ErrBadType) {
			t.Errorf("err = %v, want ErrBadType", err)
		}
	})
	t.Run("zero type", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[2] = 0
		if _, err := Decode(bad); !errors.Is(err, ErrBadType) {
			t.Errorf("err = %v, want ErrBadType", err)
		}
	})
	t.Run("corrupt payload", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[len(bad)-6] ^= 0xFF
		if _, err := Decode(bad); !errors.Is(err, ErrBadChecksum) {
			t.Errorf("err = %v, want ErrBadChecksum", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		if _, err := Decode(good[:len(good)-5]); !errors.Is(err, ErrTruncated) {
			t.Errorf("err = %v, want ErrTruncated", err)
		}
	})
}

func TestEncodeRejectsOversize(t *testing.T) {
	p := &Packet{Type: TypeData, Payload: make([]byte, MaxPayload+1)}
	if _, err := p.Marshal(); !errors.Is(err, ErrOversize) {
		t.Errorf("err = %v, want ErrOversize", err)
	}
}

func TestEncodeRejectsInvalidType(t *testing.T) {
	p := &Packet{Type: 0}
	if _, err := p.Marshal(); !errors.Is(err, ErrBadType) {
		t.Errorf("err = %v, want ErrBadType", err)
	}
}

func TestTypeString(t *testing.T) {
	if got := TypeData.String(); got != "DATA" {
		t.Errorf("TypeData.String() = %q", got)
	}
	if got := Type(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown type string = %q", got)
	}
}

// TestTypeValues pins every packet type's byte on the wire, and that the
// reserved type 5 is unknown: Decode rejects it even in a packet whose
// checksum holds, as it rejects any other unknown type.
func TestTypeValues(t *testing.T) {
	for typ, want := range map[Type]uint8{
		TypeData: 1, TypeRepair: 2, TypeNak: 3, TypeRetrans: 4, TypeHeartbeat: 6,
		TypeJoin: 7, TypeLeave: 8, TypeRebind: 9, TypeSymbol: 10,
	} {
		if uint8(typ) != want || !typ.Valid() {
			t.Errorf("%v = %d (valid %v), want %d", typ, uint8(typ), typ.Valid(), want)
		}
	}
	reserved := Type(5)
	if reserved.Valid() || reserved.String() != "Type(5)" || Type(11).Valid() {
		t.Errorf("type 5: valid %v, %q; type 11 valid %v", reserved.Valid(), reserved.String(), Type(11).Valid())
	}
	if _, err := (&Packet{Type: reserved}).Marshal(); !errors.Is(err, ErrBadType) {
		t.Errorf("Encode of type 5: err = %v, want ErrBadType", err)
	}
	buf, err := samplePacket().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	buf[2] = uint8(reserved)
	binary.BigEndian.PutUint32(buf[len(buf)-crcSize:], crc32.Checksum(buf[:len(buf)-crcSize], crcTable()))
	if _, err := Decode(buf); !errors.Is(err, ErrBadType) {
		t.Errorf("Decode of type 5: err = %v, want ErrBadType", err)
	}
}

func TestClone(t *testing.T) {
	p := samplePacket()
	c := p.Clone()
	c.Payload[0] = 'X'
	if p.Payload[0] == 'X' {
		t.Error("Clone shares payload storage with original")
	}
}

func TestDecodeAliasesBuffer(t *testing.T) {
	buf, err := samplePacket().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	p, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	buf[headerSize] = 'Z'
	if p.Payload[0] != 'Z' {
		t.Error("Decode should alias the input buffer (documented contract)")
	}
}

func TestRepairReconstructSingleLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	group := make([]*Packet, 4)
	for i := range group {
		payload := make([]byte, 12)
		rng.Read(payload)
		group[i] = &Packet{
			Type:    TypeData,
			Seq:     uint64(100 + i),
			SentAt:  time.Unix(0, int64(1e9+i*1000)),
			Payload: payload,
		}
	}
	for missing := 0; missing < len(group); missing++ {
		var rep Repair
		for _, p := range group {
			rep.AddPacket(p)
		}
		var held []*Packet
		for i, p := range group {
			if i != missing {
				held = append(held, p)
			}
		}
		sentAt, payload, err := rep.Reconstruct(held)
		if err != nil {
			t.Fatalf("Reconstruct(missing=%d): %v", missing, err)
		}
		want := group[missing]
		if !sentAt.Equal(want.SentAt) {
			t.Errorf("missing=%d: sentAt = %v, want %v", missing, sentAt, want.SentAt)
		}
		if !bytes.Equal(payload, want.Payload) {
			t.Errorf("missing=%d: payload = %x, want %x", missing, payload, want.Payload)
		}
	}
}

func TestRepairReconstructVariableLengths(t *testing.T) {
	group := []*Packet{
		{Type: TypeData, Seq: 1, SentAt: time.Unix(0, 111), Payload: []byte("a")},
		{Type: TypeData, Seq: 2, SentAt: time.Unix(0, 222), Payload: []byte("longer payload")},
		{Type: TypeData, Seq: 3, SentAt: time.Unix(0, 333), Payload: []byte("mid")},
	}
	var rep Repair
	for _, p := range group {
		rep.AddPacket(p)
	}
	sentAt, payload, err := rep.Reconstruct([]*Packet{group[0], group[2]})
	if err != nil {
		t.Fatal(err)
	}
	if !sentAt.Equal(group[1].SentAt) || !bytes.Equal(payload, group[1].Payload) {
		t.Errorf("got (%v, %q), want (%v, %q)", sentAt, payload, group[1].SentAt, group[1].Payload)
	}
}

func TestRepairReconstructWrongSiblingCount(t *testing.T) {
	var rep Repair
	rep.AddPacket(&Packet{Seq: 1, SentAt: time.Unix(0, 1), Payload: []byte("x")})
	rep.AddPacket(&Packet{Seq: 2, SentAt: time.Unix(0, 2), Payload: []byte("y")})
	if _, _, err := rep.Reconstruct(nil); !errors.Is(err, ErrBodyInvalid) {
		t.Errorf("err = %v, want ErrBodyInvalid", err)
	}
}

// TestRepairReconstructShortBody feeds Reconstruct a repair whose XOR
// payload is shorter than a held sibling's payload, as a corrupt or hostile
// repair body can be: it is an error, not an index out of range.
func TestRepairReconstructShortBody(t *testing.T) {
	rep := Repair{Seqs: []uint64{1, 2}, XORLen: 1, XORPayload: []byte{7}}
	held := []*Packet{{Seq: 1, SentAt: time.Unix(0, 1), Payload: []byte("sample-00001")}}
	if _, _, err := rep.Reconstruct(held); !errors.Is(err, ErrBodyInvalid) {
		t.Errorf("err = %v, want ErrBodyInvalid", err)
	}
}

// Property: for any R in [2,8] and any single missing index, XOR repair
// reconstructs the missing packet exactly.
func TestRepairReconstructProperty(t *testing.T) {
	f := func(seed int64, rRaw uint8, missRaw uint8) bool {
		r := 2 + int(rRaw%7)
		missing := int(missRaw) % r
		rng := rand.New(rand.NewSource(seed))
		group := make([]*Packet, r)
		for i := range group {
			payload := make([]byte, 1+rng.Intn(32))
			rng.Read(payload)
			group[i] = &Packet{
				Seq:     rng.Uint64(),
				SentAt:  time.Unix(0, rng.Int63()),
				Payload: payload,
			}
		}
		var rep Repair
		for _, p := range group {
			rep.AddPacket(p)
		}
		var held []*Packet
		for i, p := range group {
			if i != missing {
				held = append(held, p)
			}
		}
		sentAt, payload, err := rep.Reconstruct(held)
		if err != nil {
			return false
		}
		return sentAt.Equal(group[missing].SentAt) && bytes.Equal(payload, group[missing].Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRepairBodyRoundTrip(t *testing.T) {
	rep := &Repair{
		Seqs:       []uint64{10, 11, 12, 13},
		XORSentAt:  0xDEADBEEF,
		XORLen:     12,
		XORPayload: []byte{1, 2, 3, 4, 5},
	}
	buf, err := rep.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRepair(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Seqs) != 4 || got.Seqs[0] != 10 || got.Seqs[3] != 13 {
		t.Errorf("seqs = %v", got.Seqs)
	}
	if got.XORSentAt != rep.XORSentAt || got.XORLen != rep.XORLen || !bytes.Equal(got.XORPayload, rep.XORPayload) {
		t.Errorf("body mismatch: %+v vs %+v", got, rep)
	}
}

func TestRepairBodyErrors(t *testing.T) {
	if _, err := (&Repair{}).Encode(nil); !errors.Is(err, ErrBodyInvalid) {
		t.Errorf("empty repair encode err = %v", err)
	}
	if _, err := DecodeRepair(nil); !errors.Is(err, ErrBodyTruncated) {
		t.Errorf("nil decode err = %v", err)
	}
	if _, err := DecodeRepair([]byte{0}); !errors.Is(err, ErrBodyInvalid) {
		t.Errorf("zero-count decode err = %v", err)
	}
	if _, err := DecodeRepair([]byte{4, 1, 2}); !errors.Is(err, ErrBodyTruncated) {
		t.Errorf("short decode err = %v", err)
	}
}

func TestSymbolBodyRoundTrip(t *testing.T) {
	sb := &SymbolBody{
		Block:      42,
		Count:      8,
		SymbolID:   3,
		Seed:       0xFEEDFACECAFEBEEF,
		XORSentAt:  0xDEADBEEF,
		XORLen:     15, // XOR of lengths, may exceed every covered length
		XORPayload: []byte{9, 8, 7, 6, 5},
	}
	buf, err := sb.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSymbol(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Block != sb.Block || got.Count != sb.Count || got.SymbolID != sb.SymbolID ||
		got.Seed != sb.Seed || got.XORSentAt != sb.XORSentAt || got.XORLen != sb.XORLen ||
		!bytes.Equal(got.XORPayload, sb.XORPayload) {
		t.Errorf("body mismatch: %+v vs %+v", got, sb)
	}
}

func TestSymbolBodyBounds(t *testing.T) {
	// Count = 1 (single-packet tail block) and Count = MaxSymbolCount are
	// both legal; empty payload is legal (all-empty source packets).
	for _, count := range []uint16{1, MaxSymbolCount} {
		sb := &SymbolBody{Block: 1, Count: count, SymbolID: 1}
		buf, err := sb.Encode(nil)
		if err != nil {
			t.Fatalf("count=%d: %v", count, err)
		}
		got, err := DecodeSymbol(buf)
		if err != nil {
			t.Fatalf("count=%d decode: %v", count, err)
		}
		if got.Count != count || len(got.XORPayload) != 0 {
			t.Errorf("count=%d: got %+v", count, got)
		}
	}
}

func TestSymbolBodyErrors(t *testing.T) {
	if _, err := (&SymbolBody{Count: 0, SymbolID: 1}).Encode(nil); !errors.Is(err, ErrBodyInvalid) {
		t.Errorf("zero count encode err = %v", err)
	}
	if _, err := (&SymbolBody{Count: MaxSymbolCount + 1, SymbolID: 1}).Encode(nil); !errors.Is(err, ErrBodyInvalid) {
		t.Errorf("oversize count encode err = %v", err)
	}
	if _, err := (&SymbolBody{Count: 4, SymbolID: 0}).Encode(nil); !errors.Is(err, ErrBodyInvalid) {
		t.Errorf("zero symbol id encode err = %v", err)
	}
	if _, err := DecodeSymbol(nil); !errors.Is(err, ErrBodyTruncated) {
		t.Errorf("nil decode err = %v", err)
	}
	good, err := (&SymbolBody{Block: 1, Count: 4, SymbolID: 1, XORPayload: []byte{1, 2, 3}}).Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSymbol(good[:len(good)-1]); !errors.Is(err, ErrBodyTruncated) {
		t.Errorf("short payload decode err = %v", err)
	}
	bad := append([]byte(nil), good...)
	bad[9] = 0 // Count -> 0
	if _, err := DecodeSymbol(bad); !errors.Is(err, ErrBodyInvalid) {
		t.Errorf("zero count decode err = %v", err)
	}
}

func TestNakBodyRoundTrip(t *testing.T) {
	nb := &NakBody{Ranges: []SeqRange{{From: 5, To: 9}, {From: 20, To: 20}}}
	buf, err := nb.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeNak(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ranges) != 2 || got.Ranges[0] != (SeqRange{5, 9}) || got.Ranges[1] != (SeqRange{20, 20}) {
		t.Errorf("ranges = %v", got.Ranges)
	}
}

func TestNakBodyErrors(t *testing.T) {
	if _, err := (&NakBody{}).Encode(nil); !errors.Is(err, ErrBodyInvalid) {
		t.Errorf("empty NAK encode err = %v", err)
	}
	inverted := &NakBody{Ranges: []SeqRange{{From: 9, To: 5}}}
	if _, err := inverted.Encode(nil); !errors.Is(err, ErrBodyInvalid) {
		t.Errorf("inverted range encode err = %v", err)
	}
	if _, err := DecodeNak([]byte{1, 0}); !errors.Is(err, ErrBodyTruncated) {
		t.Errorf("short NAK decode err = %v", err)
	}
}

func TestSeqRangeCount(t *testing.T) {
	tests := []struct {
		r    SeqRange
		want uint64
	}{
		{SeqRange{5, 9}, 5},
		{SeqRange{7, 7}, 1},
		{SeqRange{9, 5}, 0},
	}
	for _, tt := range tests {
		if got := tt.r.Count(); got != tt.want {
			t.Errorf("%+v.Count() = %d, want %d", tt.r, got, tt.want)
		}
	}
}

func TestHeartbeatBodyRoundTrip(t *testing.T) {
	h := &HeartbeatBody{HighSeq: 12345, Incarnation: 6}
	buf, err := h.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeHeartbeat(buf)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *h {
		t.Errorf("got %+v, want %+v", got, h)
	}
	if _, err := DecodeHeartbeat(buf[:4]); !errors.Is(err, ErrBodyTruncated) {
		t.Errorf("short heartbeat decode err = %v", err)
	}
}

func TestRebindBodyRoundTrip(t *testing.T) {
	rb := &RebindBody{Records: []RebindRecord{
		{Epoch: 1, Cut: 150, Spec: "nakcast(timeout=10ms)"},
		{Epoch: 2, Cut: 311, Spec: "ricochet(c=3,r=8)"},
	}}
	buf, err := rb.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRebind(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 2 || got.Records[0] != rb.Records[0] || got.Records[1] != rb.Records[1] {
		t.Errorf("records = %+v, want %+v", got.Records, rb.Records)
	}
}

func TestRebindBodyErrors(t *testing.T) {
	if _, err := (&RebindBody{}).Encode(nil); !errors.Is(err, ErrBodyInvalid) {
		t.Errorf("empty rebind encode err = %v", err)
	}
	long := &RebindBody{Records: []RebindRecord{{Epoch: 1, Cut: 1, Spec: strings.Repeat("x", 300)}}}
	if _, err := long.Encode(nil); !errors.Is(err, ErrBodyInvalid) {
		t.Errorf("oversize spec encode err = %v", err)
	}
	noSpec := &RebindBody{Records: []RebindRecord{{Epoch: 1, Cut: 1}}}
	if _, err := noSpec.Encode(nil); !errors.Is(err, ErrBodyInvalid) {
		t.Errorf("empty spec encode err = %v", err)
	}
	if _, err := DecodeRebind(nil); !errors.Is(err, ErrBodyTruncated) {
		t.Errorf("nil decode err = %v", err)
	}
	if _, err := DecodeRebind([]byte{0}); !errors.Is(err, ErrBodyInvalid) {
		t.Errorf("zero-count decode err = %v", err)
	}
	if _, err := DecodeRebind([]byte{1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 5, 'a'}); !errors.Is(err, ErrBodyTruncated) {
		t.Errorf("short spec decode err = %v", err)
	}
}

func BenchmarkPacketEncode(b *testing.B) {
	p := samplePacket()
	buf := make([]byte, 0, p.EncodedSize())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		if _, err := p.Encode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPacketDecode(b *testing.B) {
	buf, err := samplePacket().Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}
