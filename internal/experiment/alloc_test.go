package experiment

import (
	"testing"

	"adamant/internal/dds"
	"adamant/internal/netem"
	"adamant/internal/transport"
)

// TestCellAllocs pins the allocations per delivery of one whole cell on the
// serial kernel: the writer's dds layer, the transport, the wire codec,
// netem and the sim kernel, and the readers' side of each, at 5 % loss so
// the recovery paths run too. The counts are deterministic, and the bounds
// are this tree's measured values rounded up to the hundredth; CHANGES.md
// records the values before netem and ricochet stopped copying the packets
// they are handed, before ricochet's repairs and fountcast's symbols were
// built in one pass and decoded in place, and before protocol timers were
// pooled.
func TestCellAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the measured path")
	}
	for _, tc := range []struct {
		spec string
		max  float64
	}{
		{"nakcast(timeout=1ms)", 1.17},
		{"ricochet(c=3,r=4)", 2.50},
		{"fountcast(k=8,oh=25)", 2.15},
	} {
		t.Run(tc.spec, func(t *testing.T) {
			spec, err := transport.ParseSpec(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Machine: netem.PC3000, Bandwidth: netem.Gbps1, Impl: dds.ImplB, LossPct: 5,
				Receivers: 3, RateHz: 25, Samples: 1000, Protocol: spec, Seed: 1}
			var delivered uint64
			allocs := testing.AllocsPerRun(2, func() {
				s, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				delivered = s.Delivered
			})
			got := allocs / float64(delivered)
			t.Logf("%s: %.0f allocs over %d deliveries, %.2f per delivery", tc.spec, allocs, delivered, got)
			if got > tc.max {
				t.Errorf("%s cell: %.2f allocs per delivery, want <= %.2f", tc.spec, got, tc.max)
			}
		})
	}
}
