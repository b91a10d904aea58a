package fountcast

import (
	"math/rand"
	"testing"
	"testing/quick"

	"adamant/internal/wire"
)

// randomBlock builds count source packets with random payloads (lengths 0
// to 32 bytes, so variable- and empty-payload folding is exercised).
func randomBlock(rng *rand.Rand, count int) []wire.Fold {
	srcs := make([]wire.Fold, count)
	for i := range srcs {
		payload := make([]byte, rng.Intn(33))
		rng.Read(payload)
		srcs[i] = wire.Fold{SentAt: rng.Uint64(), Len: uint16(len(payload)), Data: payload}
	}
	return srcs
}

// copySym deep-copies a symbol so it can be offered to the buffer-stealing
// Decoder.Add without aliasing test state.
func copySym(s Symbol) Symbol {
	c := s
	c.Data = append([]byte(nil), s.Data...)
	return c
}

func TestCoefficientsDeterministicNonzeroBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		seed := rng.Uint64()
		id := rng.Uint32()
		count := 1 + rng.Intn(MaxBlock)
		m1 := Coefficients(seed, id, count)
		m2 := Coefficients(seed, id, count)
		if m1 != m2 {
			t.Fatalf("Coefficients(%d,%d,%d) not deterministic: %x vs %x", seed, id, count, m1, m2)
		}
		if m1 == 0 {
			t.Fatalf("Coefficients(%d,%d,%d) = 0", seed, id, count)
		}
		if count < 64 && m1>>uint(count) != 0 {
			t.Fatalf("Coefficients(%d,%d,%d) = %x exceeds %d bits", seed, id, count, m1, count)
		}
	}
	if Coefficients(1, 1, 0) != 0 || Coefficients(1, 1, 65) != 0 {
		t.Error("out-of-range count should yield 0")
	}
}

func TestDecoderAllDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, count := range []int{1, 2, 8, 63, 64} {
		srcs := randomBlock(rng, count)
		d, err := NewDecoder(count)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range srcs {
			if !d.Add(SourceSymbol(i, s)) {
				t.Fatalf("count=%d: direct symbol %d rejected", count, i)
			}
			if !d.Has(i) {
				t.Fatalf("count=%d: Has(%d) false after direct add", count, i)
			}
		}
		if !d.Complete() {
			t.Fatalf("count=%d: rank %d after all directs", count, d.Rank())
		}
		got, err := d.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if !sourcesEqual(got, srcs) {
			t.Fatalf("count=%d: decode mismatch", count)
		}
	}
}

// The core erasure property: drop any subset of source packets; as long as
// enough repair symbols are offered that K independent equations survive,
// the decode is byte-identical to the original block.
func TestDecoderErasureProperty(t *testing.T) {
	f := func(seed int64, countRaw uint8, lossRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := 1 + int(countRaw)%16
		lost := int(lossRaw) % (count + 1) // 0..count packets erased
		srcs := randomBlock(rng, count)
		blockSeed := rng.Uint64()

		d, err := NewDecoder(count)
		if err != nil {
			return false
		}
		erased := rng.Perm(count)[:lost]
		isErased := make(map[int]bool, lost)
		for _, i := range erased {
			isErased[i] = true
		}
		for i, s := range srcs {
			if !isErased[i] {
				d.Add(SourceSymbol(i, s))
			}
		}
		// Offer repairs until the decoder completes. Dense random
		// combinations make each new draw independent with probability
		// >= 1/2, so a small multiple of the deficit always suffices;
		// the hard cap only guards against an implementation bug.
		for id := uint32(1); !d.Complete(); id++ {
			if id > uint32(64*(lost+1)) {
				return false
			}
			d.Add(MakeRepair(srcs, blockSeed, id))
		}
		got, err := d.Decode()
		if err != nil {
			return false
		}
		return sourcesEqual(got, srcs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Arrival order must not matter: any permutation of the same symbol set
// decodes to the same block.
func TestDecoderOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const count = 10
	srcs := randomBlock(rng, count)
	blockSeed := rng.Uint64()
	syms := make([]Symbol, 0, count+6)
	for i := 0; i < count; i += 2 { // half the directs
		syms = append(syms, SourceSymbol(i, srcs[i]))
	}
	for id := uint32(1); id <= 12; id++ {
		syms = append(syms, MakeRepair(srcs, blockSeed, id))
	}
	var want []wire.Fold
	for trial := 0; trial < 20; trial++ {
		order := rng.Perm(len(syms))
		d, _ := NewDecoder(count)
		for _, i := range order {
			d.Add(copySym(syms[i]))
		}
		if !d.Complete() {
			t.Fatalf("trial %d: incomplete at rank %d", trial, d.Rank())
		}
		got, err := d.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			if !sourcesEqual(got, srcs) {
				t.Fatal("decode does not match sources")
			}
		} else if !sourcesEqual(got, want) {
			t.Fatalf("trial %d: order changed decode", trial)
		}
	}
}

func TestDecoderRejectsDependentAndInvalid(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	srcs := randomBlock(rng, 4)
	d, _ := NewDecoder(4)
	if d.Add(Symbol{Mask: 0}) {
		t.Error("accepted zero mask")
	}
	if d.Add(Symbol{Mask: 1 << 4}) {
		t.Error("accepted mask outside block")
	}
	if !d.Add(SourceSymbol(0, srcs[0])) {
		t.Fatal("rejected first direct")
	}
	if d.Add(SourceSymbol(0, srcs[0])) {
		t.Error("accepted duplicate direct")
	}
	if d.Rank() != 1 {
		t.Errorf("rank = %d, want 1", d.Rank())
	}
	// A repair covering only packet 0 is dependent too.
	dep := MakeRepair(srcs[:1], 99, 1)
	if dep.Mask != 1 {
		t.Fatalf("single-source repair mask = %x", dep.Mask)
	}
	if d.Add(dep) {
		t.Error("accepted dependent repair")
	}
	if _, err := d.Decode(); err == nil {
		t.Error("Decode succeeded before complete")
	}
}

func TestDecoderInconsistentLength(t *testing.T) {
	d, _ := NewDecoder(1)
	if !d.Add(Symbol{Mask: 1, Fold: wire.Fold{Len: 5, Data: []byte{1, 2}}}) {
		t.Fatal("symbol rejected")
	}
	if _, err := d.Decode(); err == nil {
		t.Error("Decode accepted len > data")
	}
}

func TestNewDecoderBounds(t *testing.T) {
	for _, bad := range []int{0, -1, 65} {
		if _, err := NewDecoder(bad); err == nil {
			t.Errorf("NewDecoder(%d) accepted", bad)
		}
	}
	for _, ok := range []int{1, 64} {
		if _, err := NewDecoder(ok); err != nil {
			t.Errorf("NewDecoder(%d): %v", ok, err)
		}
	}
}

func TestDecodeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	srcs := randomBlock(rng, 6)
	blockSeed := rng.Uint64()
	d, _ := NewDecoder(6)
	for i := 2; i < 6; i++ {
		d.Add(SourceSymbol(i, srcs[i]))
	}
	for id := uint32(1); !d.Complete(); id++ {
		d.Add(MakeRepair(srcs, blockSeed, id))
	}
	first, err := d.Decode()
	if err != nil {
		t.Fatal(err)
	}
	second, err := d.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !sourcesEqual(first, second) || !sourcesEqual(first, srcs) {
		t.Error("Decode not idempotent")
	}
	for i := 0; i < 6; i++ {
		if !d.Has(i) {
			t.Errorf("Has(%d) false after decode", i)
		}
	}
}

// Differential property: the incremental decoder agrees with the naive
// from-scratch Gauss–Jordan reference on both solvability and the decoded
// bytes, across random mixes of direct symbols, repairs, duplicates, and
// junk equations.
func TestDecoderDifferential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		count := 1 + rng.Intn(MaxBlock)
		srcs := randomBlock(rng, count)
		blockSeed := rng.Uint64()

		d, err := NewDecoder(count)
		if err != nil {
			return false
		}
		ref := newRefDecoder(count)
		nops := 1 + rng.Intn(3*count)
		for op := 0; op < nops; op++ {
			var sym Symbol
			switch rng.Intn(4) {
			case 0, 1: // direct source packet
				i := rng.Intn(count)
				sym = SourceSymbol(i, srcs[i])
			case 2: // repair
				sym = MakeRepair(srcs, blockSeed, uint32(1+rng.Intn(4*count)))
			case 3: // junk equation over the block (still consistent:
				// fold an arbitrary subset directly)
				mask := rng.Uint64()
				if count < 64 {
					mask &= (1 << uint(count)) - 1
				}
				sym = Symbol{Mask: mask}
				for m := mask; m != 0; m &= m - 1 {
					sym.XOR(srcs[trailing(m)])
				}
			}
			ref.add(sym)
			d.Add(copySym(sym))
		}
		refOut, refOK := ref.solve()
		if d.Complete() != refOK {
			return false
		}
		if !refOK {
			return true
		}
		got, err := d.Decode()
		if err != nil {
			return false
		}
		return sourcesEqual(got, refOut) && sourcesEqual(got, srcs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func trailing(m uint64) int {
	n := 0
	for m&1 == 0 {
		m >>= 1
		n++
	}
	return n
}

// FuzzFountDecode drives the decoder through random blocks with random
// symbol erasure, reordering, and duplication, checking the tentpole
// invariant: whenever at least K linearly independent symbols survive (the
// decoder reports Complete), the decoded block is byte-identical to the
// input — and the incremental decoder agrees with the naive reference on
// solvability either way.
func FuzzFountDecode(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(3), []byte("fountcast property seed"))
	f.Add(int64(42), uint8(1), uint8(0), []byte{})
	f.Add(int64(-7), uint8(64), uint8(200), []byte{0xFF, 0x00, 0xAB})
	f.Fuzz(func(t *testing.T, seed int64, countRaw, chaosRaw uint8, blob []byte) {
		rng := rand.New(rand.NewSource(seed))
		count := 1 + int(countRaw)%MaxBlock
		// Slice the fuzz blob into payloads so the corpus controls bytes.
		srcs := make([]wire.Fold, count)
		for i := range srcs {
			n := 0
			if len(blob) > 0 {
				n = int(blob[0]) % 24
				blob = blob[1:]
			}
			payload := make([]byte, n)
			for j := range payload {
				if len(blob) > 0 {
					payload[j] = blob[0]
					blob = blob[1:]
				} else {
					payload[j] = byte(rng.Intn(256))
				}
			}
			srcs[i] = wire.Fold{SentAt: rng.Uint64(), Len: uint16(len(payload)), Data: payload}
		}
		blockSeed := rng.Uint64()

		// Build the transmitted symbol stream: all directs plus repairs.
		nRepair := int(chaosRaw) % (count + 8)
		stream := make([]Symbol, 0, count+nRepair)
		for i, s := range srcs {
			stream = append(stream, SourceSymbol(i, s))
		}
		for id := 1; id <= nRepair; id++ {
			stream = append(stream, MakeRepair(srcs, blockSeed, uint32(id)))
		}
		// Random erasure, duplication, reorder.
		var received []Symbol
		for _, s := range stream {
			if rng.Intn(3) == 0 {
				continue // erased
			}
			received = append(received, s)
			if rng.Intn(5) == 0 {
				received = append(received, s) // duplicated
			}
		}
		rng.Shuffle(len(received), func(i, j int) {
			received[i], received[j] = received[j], received[i]
		})

		d, err := NewDecoder(count)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefDecoder(count)
		for _, s := range received {
			ref.add(s)
			d.Add(copySym(s))
		}
		refOut, refOK := ref.solve()
		if d.Complete() != refOK {
			t.Fatalf("solvability disagreement: incremental=%v reference=%v (rank %d/%d, %d symbols)",
				d.Complete(), refOK, d.Rank(), count, len(received))
		}
		if !d.Complete() {
			return
		}
		got, err := d.Decode()
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if !sourcesEqual(got, srcs) {
			t.Fatal("decoded block differs from input")
		}
		if !sourcesEqual(got, refOut) {
			t.Fatal("incremental and reference decoders disagree")
		}
	})
}
