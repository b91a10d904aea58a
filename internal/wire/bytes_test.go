package wire

import (
	"encoding/hex"
	"testing"
	"time"
)

// TestBodyBytes pins the wire bytes of the two XOR-folded bodies: a repair
// over three packets (payloads of 5, 12 and 0 bytes, distinct send times)
// and a symbol body folding the same three packets. A change to how either
// body is built or laid out that moves a byte fails here, not only through
// the crucible's digests.
func TestBodyBytes(t *testing.T) {
	pkts := []*Packet{
		{Type: TypeData, Seq: 7, SentAt: time.Unix(0, 1_000_000_007), Payload: []byte("hello")},
		{Type: TypeData, Seq: 8, SentAt: time.Unix(0, 2_000_000_008), Payload: []byte("sample-00008")},
		{Type: TypeData, Seq: 9, SentAt: time.Unix(0, 3_000_000_009)},
	}
	for _, tc := range []struct {
		name string
		got  []byte
		want string
	}{
		{"repair", repairBody(t, pkts), "0300000000000000070000000000000008000000000000000900000000fe7f00060009000c1b04011c03652d3030303038"},
		{"symbol", symbolBody(t, 3, 8, 2, 0x0123456789abcdef, pkts), "00000000000000030008000000020123456789abcdef00000000fe7f00060009000c1b04011c03652d3030303038"},
	} {
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Errorf("%s body = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// repairBody encodes the repair body covering pkts.
func repairBody(t *testing.T, pkts []*Packet) []byte {
	t.Helper()
	body, err := AppendRepair(nil, pkts)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// symbolBody encodes a symbol body of the given block coordinates that
// folds pkts.
func symbolBody(t *testing.T, block uint64, count uint16, id uint32, seed uint64, pkts []*Packet) []byte {
	t.Helper()
	sb := SymbolBody{Block: block, Count: count, SymbolID: id, Seed: seed}
	for _, p := range pkts {
		sb.Fold.XOR(FoldOf(p))
	}
	body, err := sb.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	return body
}
