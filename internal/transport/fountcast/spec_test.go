package fountcast_test

import (
	"strings"
	"testing"

	"adamant/internal/transport"
	"adamant/internal/transport/fountcast"
)

// The canonical Spec helper must round-trip through ParseSpec and back to
// the same canonical string, and ParseOptions must accept what it emits.
func TestSpecRoundTrip(t *testing.T) {
	tests := []struct {
		k, oh int
		want  string
	}{
		{8, 25, "fountcast(k=8,oh=25)"},
		{1, 0, "fountcast(k=1,oh=0)"},
		{64, 100, "fountcast(k=64,oh=100)"},
		{16, 400, "fountcast(k=16,oh=400)"},
	}
	for _, tt := range tests {
		spec := fountcast.Spec(tt.k, tt.oh)
		if got := spec.String(); got != tt.want {
			t.Errorf("Spec(%d,%d).String() = %q, want %q", tt.k, tt.oh, got, tt.want)
		}
		parsed, err := transport.ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec.String(), err)
		}
		if parsed.String() != tt.want {
			t.Errorf("round-trip %q -> %q", tt.want, parsed.String())
		}
		o, err := fountcast.ParseOptions(parsed.Params)
		if err != nil {
			t.Fatalf("ParseOptions(%q): %v", tt.want, err)
		}
		if o.K != tt.k || o.OverheadPct != tt.oh {
			t.Errorf("options (k=%d,oh=%d), want (k=%d,oh=%d)", o.K, o.OverheadPct, tt.k, tt.oh)
		}
	}
}

func TestParseOptionsBoundaries(t *testing.T) {
	parse := func(s string) (fountcast.Options, error) {
		t.Helper()
		spec, err := transport.ParseSpec(s)
		if err != nil {
			return fountcast.Options{}, err
		}
		return fountcast.ParseOptions(spec.Params)
	}

	// Legal boundary points.
	for _, s := range []string{
		"fountcast(k=1,oh=0)",    // smallest block, no repair
		"fountcast(k=64,oh=100)", // largest block, 1:1 repair
		"fountcast(k=8,oh=400)",  // max overhead
		"fountcast",              // all defaults
		"fountcast(hold=1ms)",
	} {
		if _, err := parse(s); err != nil {
			t.Errorf("%q rejected: %v", s, err)
		}
	}
	o, err := parse("fountcast")
	if err != nil {
		t.Fatal(err)
	}
	if o.K != fountcast.DefaultK || o.OverheadPct != fountcast.DefaultOverheadPct || o.Hold != fountcast.DefaultHold {
		t.Errorf("defaults = %+v", o)
	}

	// Out-of-range and malformed values.
	for _, tt := range []struct{ spec, wantErr string }{
		{"fountcast(k=0)", "k=0"},
		{"fountcast(k=65)", "k=65"},
		{"fountcast(k=-3)", "k=-3"},
		{"fountcast(oh=-1)", "oh=-1"},
		{"fountcast(oh=401)", "oh=401"},
		{"fountcast(k=eight)", "eight"},
		{"fountcast(oh=25%)", "25%"},
		{"fountcast(hold=0s)", "non-positive"},
		{"fountcast(hold=-5ms)", "non-positive"},
		{"fountcast(hold=soon)", "soon"},
		{"fountcast(k=8,overhead=25)", "unknown param overhead"},
	} {
		if _, err := parse(tt.spec); err == nil {
			t.Errorf("%q accepted", tt.spec)
		} else if !strings.Contains(err.Error(), tt.wantErr) {
			t.Errorf("%q error %q does not mention %q", tt.spec, err, tt.wantErr)
		}
	}
}

// The registry factory must enforce the same bounds when building
// instances straight from a spec.
func TestFactoryRejectsBadParams(t *testing.T) {
	f := fountcast.Factory()
	if f.Name != fountcast.Name {
		t.Fatalf("factory name %q", f.Name)
	}
	props, err := f.Props(nil)
	if err != nil || !props.Has(transport.PropMulticast|transport.PropFEC|transport.PropOrdered) {
		t.Errorf("props = %v, %v", props, err)
	}
	if props.Has(transport.PropNAKReliability) {
		t.Errorf("fountcast must not advertise feedback reliability: %v", props)
	}
	bad := transport.Params{"k": "65"}
	if _, err := f.NewSender(transport.Config{}, bad); err == nil {
		t.Error("NewSender accepted k=65")
	}
	if _, err := f.NewReceiver(transport.Config{}, bad); err == nil {
		t.Error("NewReceiver accepted k=65")
	}
}

// ParseOptions is the one place defaults are set: a key left out takes its
// default, and an explicit zero stays zero (the sender then runs with it:
// oh=0 sends no repair symbol).
func TestParseOptionsKeepsExplicitZero(t *testing.T) {
	spec, err := transport.ParseSpec("fountcast(oh=0)")
	if err != nil {
		t.Fatal(err)
	}
	o, err := fountcast.ParseOptions(spec.Params)
	if err != nil {
		t.Fatal(err)
	}
	if o.OverheadPct != 0 {
		t.Errorf("oh=0 parsed to %d", o.OverheadPct)
	}
	if o.K != fountcast.DefaultK || o.Hold != fountcast.DefaultHold {
		t.Errorf("unspecified params not defaulted: %+v", o)
	}
}
