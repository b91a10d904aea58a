package wire

import (
	"testing"
	"time"
)

// FuzzDecode asserts the codec never panics on arbitrary input, and that
// anything it accepts re-encodes to an equivalent packet.
func FuzzDecode(f *testing.F) {
	good, err := (&Packet{
		Type: TypeData, Src: 3, Stream: 9, Seq: 77,
		SentAt: time.Unix(0, 12345), Payload: []byte("seed"),
	}).Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{magic})
	f.Add(good[:len(good)-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return
		}
		back, err := p.Marshal()
		if err != nil {
			t.Fatalf("decoded packet failed to re-encode: %v", err)
		}
		p2, err := Decode(back)
		if err != nil {
			t.Fatalf("re-encoded packet failed to decode: %v", err)
		}
		if p2.Type != p.Type || p2.Seq != p.Seq || p2.Src != p.Src || p2.Stream != p.Stream {
			t.Fatal("round-trip changed header fields")
		}
	})
}

// FuzzDecodeRepair asserts the repair body parser is total.
func FuzzDecodeRepair(f *testing.F) {
	seed, err := AppendRepair(nil, []*Packet{
		{Seq: 1, SentAt: time.Unix(0, 9), Payload: []byte{1, 2, 3, 4}},
		{Seq: 2, SentAt: time.Unix(0, 3), Payload: []byte{5}},
		{Seq: 3, SentAt: time.Unix(0, 5)},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRepair(data)
		if err != nil {
			return
		}
		if r.Count() == 0 || r.Count() > maxRepairSeqs {
			t.Fatalf("accepted repair with %d seqs", r.Count())
		}
		for i := 0; i < r.Count(); i++ {
			_ = r.Seq(i)
		}
	})
}

// FuzzDecodeSymbol asserts the Fountcast symbol body parser is total and
// only accepts bodies the encoder could have produced.
func FuzzDecodeSymbol(f *testing.F) {
	sb := &SymbolBody{Block: 7, Count: 8, SymbolID: 2, Seed: 99, Fold: Fold{SentAt: 5, Len: 12, Data: []byte{1, 2, 3}}}
	seed, err := sb.Encode(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:symbolHead+foldTail])
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSymbol(data)
		if err != nil {
			return
		}
		if s.Count == 0 || s.Count > MaxSymbolCount {
			t.Fatalf("accepted symbol with count %d", s.Count)
		}
		if s.SymbolID == 0 {
			t.Fatal("accepted symbol id 0")
		}
		back, err := s.Encode(nil)
		if err != nil {
			t.Fatalf("accepted symbol failed to re-encode: %v", err)
		}
		s2, err := DecodeSymbol(back)
		if err != nil {
			t.Fatalf("re-encoded symbol failed to decode: %v", err)
		}
		if s2.Block != s.Block || s2.Count != s.Count || s2.SymbolID != s.SymbolID || s2.Seed != s.Seed {
			t.Fatal("round-trip changed symbol fields")
		}
	})
}

// FuzzDecodeNak asserts the NAK body parser is total and never returns
// inverted ranges.
func FuzzDecodeNak(f *testing.F) {
	nb := &NakBody{Ranges: []SeqRange{{From: 1, To: 5}}}
	seed, err := nb.Encode(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := DecodeNak(data)
		if err != nil {
			return
		}
		for _, r := range n.Ranges {
			if r.To < r.From {
				t.Fatalf("accepted inverted range %+v", r)
			}
		}
	})
}
