package membership

import (
	"testing"
	"time"

	"adamant/internal/env"
	"adamant/internal/sim"
	"adamant/internal/transport/transporttest"
	"adamant/internal/wire"
)

// BenchmarkJoinLeave500 times one view change each way in a 500-member
// group: a member joins, then leaves. Every op builds two views.
func BenchmarkJoinLeave500(b *testing.B) {
	k := sim.New(1)
	fab := transporttest.New(env.NewSim(k), time.Millisecond)
	d, err := NewDetector(env.NewSim(k), fab.Endpoint(250), DetectorOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for id := wire.NodeID(0); id < 500; id++ {
		d.onJoin(id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.onJoin(1000)
		d.onLeave(1000)
	}
}
