package spans

import "testing"

func TestSelfTimesSumToRoot(t *testing.T) {
	r := New("root", "mid", "leaf")
	r.Begin(0, 0)
	for i := 0; i < 100; i++ {
		r.Begin(1, uint64(i+1))
		r.Begin(2, 0)
		r.End()
		r.Begin(2, 0)
		r.End()
		r.End()
	}
	r.End()
	if got, want := r.SelfSum(), r.Totals[0].Total; got != want {
		t.Fatalf("self times sum to %d, root span is %d", got, want)
	}
	if r.Totals[1].Count != 100 || r.Totals[2].Count != 200 {
		t.Fatalf("counts %d %d", r.Totals[1].Count, r.Totals[2].Count)
	}
	var leafOf64 int
	for _, s := range r.Kept {
		if s.Layer == 2 {
			if s.Trace != 64 {
				t.Fatalf("kept a leaf of trace %d", s.Trace)
			}
			leafOf64++
		}
	}
	if leafOf64 != 2 {
		t.Fatalf("kept %d leaves of the sampled trace, want 2 (the child inherits its parent's trace)", leafOf64)
	}
}
