package ann

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzLoad hardens the network text parser: malformed saved models must
// produce an error, never a panic or an absurd allocation, and anything
// Load accepts must survive a Save/Load round trip.
func FuzzLoad(f *testing.F) {
	net, err := New(Config{Layers: []int{3, 5, 2}, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := net.Save(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.String())
	f.Add(valid.String()[:valid.Len()/2])
	f.Add("")
	f.Add("ADAMANT-ANN 1\n")
	f.Add("ADAMANT-ANN 2\nlayers 2 2\n")
	f.Add("ADAMANT-ANN 1\nlayers 99999999 99999999\nsteepness 0.5\n")
	f.Add("ADAMANT-ANN 1\nlayers 2 2\nsteepness NaN\nw 0 0\nw 0 0\nw 0 0\nw 0 0\nw 0 0\nw 0 0\n")
	f.Add("ADAMANT-ANN 1\nlayers 2\nsteepness 0.5\n")
	f.Add("ADAMANT-ANN 1\nlayers -1 2\nsteepness 0.5\n")
	f.Add("ADAMANT-ANN 1\nlayers 2 2\nsteepness 0.5\nw 1e309 0\n")
	f.Add("layers 2 2\nsteepness 0.5\n")
	f.Fuzz(func(t *testing.T, data string) {
		n, err := Load(strings.NewReader(data))
		if err != nil {
			return
		}
		// Accepted input must serialize and re-load cleanly.
		var buf bytes.Buffer
		if err := n.Save(&buf); err != nil {
			t.Fatalf("Save after successful Load: %v", err)
		}
		if _, err := Load(&buf); err != nil {
			t.Fatalf("re-Load of Save output: %v", err)
		}
	})
}

// FuzzSigmoidExact checks that the saturated branches of sigmoid return
// exactly what the formula computes: the same bits for every steepness and
// input, NaN matching NaN.
func FuzzSigmoidExact(f *testing.F) {
	for _, x := range []float64{0, 1, -1, 40, -40, 710, -710, 709.78, -709.78, 1e300, -1e300, math.Inf(1), math.Inf(-1), math.NaN()} {
		f.Add(0.5, x)
	}
	// The two thresholds of t = -2·s·x, and their neighbours, at s = 0.5.
	for _, t := range []float64{-40, 710} {
		f.Add(0.5, -t)
		f.Add(0.5, math.Nextafter(-t, math.Inf(1)))
		f.Add(0.5, math.Nextafter(-t, math.Inf(-1)))
	}
	f.Add(0.0, math.Inf(1))
	f.Add(1e300, 1e300)
	f.Add(math.Inf(1), 0.0)
	f.Add(-0.7, 814.0)
	f.Fuzz(func(t *testing.T, s, x float64) {
		n := &Network{steepness: s}
		got, want := n.sigmoid(x), 1/(1+math.Exp(-2*s*x))
		if math.IsNaN(got) && math.IsNaN(want) {
			return
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("sigmoid(%v) at steepness %v = %v (%#x), formula gives %v (%#x)",
				x, s, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}
