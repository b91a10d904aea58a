package experiment

import (
	"math"
	"testing"

	"adamant/internal/netem"
	"adamant/internal/transport/ricochet"
)

// TestRicochetClosedForm holds ricochet's recovery in the emulator to a
// closed form of the emulator's own parameters. At 25 Hz the 8 ms flush
// sends every XOR group holding one packet, so a receiver that loses a
// sample recovers it if some peer received it (probability 1-p), drew this
// receiver as a repair target (q), and the repair arrived (1-p): netem drops
// data and repairs alike with end-host Bernoulli loss p. Over the n-1 peers
// the recovered share of lost first copies is 1 - (1 - (1-p)^2 q)^(n-1).
// Ricochet draws its C targets with replacement from the n-1 peers, so
// q = 1 - (1 - 1/(n-1))^C; distinct draws would give C/(n-1), which at n=3,
// C=2 predicts 99.0 % against the 89.6 % drawn with replacement. The
// tolerance is three binomial standard errors of the measured share.
func TestRicochetClosedForm(t *testing.T) {
	const p = 0.05
	points := []struct{ n, c int }{{3, 1}, {3, 2}, {6, 3}}
	cfgs := make([]Config, len(points))
	for i, pt := range points {
		cfgs[i] = Config{Machine: netem.PC3000, Bandwidth: netem.Gbps1, LossPct: 100 * p,
			Receivers: pt.n, RateHz: 25, Samples: 20000, Seed: 1, Protocol: ricochet.Spec(4, pt.c)}
	}
	sums, err := (&Runner{}).RunMany(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range points {
		s, peers := sums[i], float64(pt.n-1)
		q := 1 - math.Pow(1-1/peers, float64(pt.c))
		want := 1 - math.Pow(1-(1-p)*(1-p)*q, peers)
		lostFirst := float64(s.Sent - s.Delivered + s.Recovered)
		got := float64(s.Recovered) / lostFirst
		if tol := 3 * math.Sqrt(want*(1-want)/lostFirst); math.Abs(got-want) > tol {
			t.Errorf("n=%d c=%d: recovered %.2f %% of %.0f lost first copies, closed form %.2f %% ± %.2f (3 SE)",
				pt.n, pt.c, 100*got, lostFirst, 100*want, 100*tol)
		}
	}
}
