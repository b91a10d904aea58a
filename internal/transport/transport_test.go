package transport_test

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"adamant/internal/env"
	"adamant/internal/sim"
	"adamant/internal/transport"
	"adamant/internal/transport/transporttest"
)

func TestSpecStringCanonical(t *testing.T) {
	tests := []struct {
		spec transport.Spec
		want string
	}{
		{transport.Spec{Name: "bemcast"}, "bemcast"},
		{transport.Spec{Name: "nakcast", Params: transport.Params{"timeout": "1ms"}},
			"nakcast(timeout=1ms)"},
		{transport.Spec{Name: "ricochet", Params: transport.Params{"r": "4", "c": "3"}},
			"ricochet(c=3,r=4)"}, // params sorted
	}
	for _, tt := range tests {
		if got := tt.spec.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestParseSpec(t *testing.T) {
	tests := []struct {
		in      string
		want    string
		wantErr bool
	}{
		{"bemcast", "bemcast", false},
		{"nakcast(timeout=1ms)", "nakcast(timeout=1ms)", false},
		{"ricochet(r=4,c=3)", "ricochet(c=3,r=4)", false},
		{"ricochet( r = 4 , c = 3 )", "ricochet(c=3,r=4)", false},
		{"  bemcast  ", "bemcast", false},
		{"", "", true},
		{"x(", "", true},
		{"(r=4)", "", true},
		{"x(r)", "", true},
		{"x(r=)", "", true},
		{"x(r=1,r=2)", "", true},
		{"x)y", "", true},
	}
	for _, tt := range tests {
		got, err := transport.ParseSpec(tt.in)
		if tt.wantErr {
			if err == nil {
				t.Errorf("ParseSpec(%q) succeeded, want error", tt.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tt.in, err)
			continue
		}
		if got.String() != tt.want {
			t.Errorf("ParseSpec(%q) = %q, want %q", tt.in, got.String(), tt.want)
		}
	}
}

// Property: canonical strings round-trip through ParseSpec.
func TestSpecRoundTripProperty(t *testing.T) {
	names := []string{"a", "proto", "nakcast"}
	keys := []string{"r", "c", "timeout", "k1"}
	f := func(nameIdx, nParams uint8, vals [4]uint16) bool {
		spec := transport.Spec{Name: names[int(nameIdx)%len(names)], Params: transport.Params{}}
		n := int(nParams) % 5
		for i := 0; i < n && i < len(keys); i++ {
			spec.Params[keys[i]] = time.Duration(vals[i]).String()
		}
		parsed, err := transport.ParseSpec(spec.String())
		if err != nil {
			return false
		}
		return parsed.String() == spec.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestParamsHelpers(t *testing.T) {
	var r, c int
	var timeout time.Duration
	read := func(p transport.Params) error {
		return p.Read(transport.IntParam("r", &r, 9), transport.IntParam("c", &c, 3),
			transport.DurationParam("timeout", &timeout, time.Second))
	}
	if err := read(transport.Params{"r": "4", "timeout": "25ms"}); err != nil || r != 4 || c != 3 || timeout != 25*time.Millisecond {
		t.Errorf("Read = r %d c %d timeout %v, %v", r, c, timeout, err)
	}
	if err := read(nil); err != nil || r != 9 || timeout != time.Second {
		t.Errorf("Read(nil) = r %d timeout %v, %v: want the defaults", r, timeout, err)
	}
	for _, bad := range []transport.Params{
		{"r": "xyz"}, {"r": "8x"}, {"timeout": "soon"}, // malformed values
		{"r": "4", "bad": "1"}, // a key nothing reads
	} {
		if err := read(bad); err == nil {
			t.Errorf("Read(%v) should error", bad)
		}
	}
}

func TestPropertiesString(t *testing.T) {
	p := transport.PropMulticast | transport.PropFEC
	s := p.String()
	if !strings.Contains(s, "multicast") || !strings.Contains(s, "fec") {
		t.Errorf("String() = %q", s)
	}
	if !p.Has(transport.PropMulticast) {
		t.Error("Has(multicast) = false")
	}
	if p.Has(transport.PropOrdered) {
		t.Error("Has(ordered) = true")
	}
	if transport.Properties(0).String() != "none" {
		t.Error("zero properties should stringify as none")
	}
}

func TestRegistry(t *testing.T) {
	reg := transport.NewRegistry()
	mk := func(name string) *transport.Factory {
		return &transport.Factory{
			Name: name,
			NewSender: func(transport.Config, transport.Params) (transport.Sender, error) {
				return nil, nil
			},
			NewReceiver: func(transport.Config, transport.Params) (transport.Receiver, error) {
				return nil, nil
			},
		}
	}
	if err := reg.Register(mk("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(mk("alpha")); err == nil {
		t.Error("duplicate registration should error")
	}
	if err := reg.Register(nil); err == nil {
		t.Error("nil factory should error")
	}
	if err := reg.Register(&transport.Factory{Name: "incomplete"}); err == nil {
		t.Error("factory without constructors should error")
	}
	if _, err := reg.Lookup("alpha"); err != nil {
		t.Errorf("Lookup(alpha): %v", err)
	}
	if _, err := reg.Lookup("missing"); err == nil {
		t.Error("Lookup(missing) should error")
	}
	if err := reg.Register(mk("beta")); err != nil {
		t.Fatal(err)
	}
	names := reg.Names()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Errorf("Names() = %v", names)
	}
	if _, err := reg.NewSender(transport.Spec{Name: "nope"}, transport.Config{}); err == nil {
		t.Error("NewSender with unknown spec should error")
	}
	if _, err := reg.NewReceiver(transport.Spec{Name: "nope"}, transport.Config{}); err == nil {
		t.Error("NewReceiver with unknown spec should error")
	}
}

func TestConfigValidation(t *testing.T) {
	k := sim.New(1)
	e := env.NewSim(k)
	fab := transporttest.New(e, time.Millisecond)
	ep := fab.Endpoint(0)

	c := transport.Config{}
	if err := c.ValidateSender(); err == nil {
		t.Error("empty config should fail sender validation")
	}
	c.Env = e
	if err := c.ValidateSender(); err == nil {
		t.Error("config without endpoint should fail")
	}
	c.Endpoint = ep
	if err := c.ValidateSender(); err != nil {
		t.Errorf("sender config: %v", err)
	}
	if err := c.ValidateReceiver(); err == nil {
		t.Error("receiver config without Deliver should fail")
	}
	c.Deliver = func(transport.Delivery) {}
	if err := c.ValidateReceiver(); err != nil {
		t.Errorf("receiver config: %v", err)
	}
}

func TestDeliveryLatency(t *testing.T) {
	d := transport.Delivery{
		SentAt:      time.Unix(0, 0),
		DeliveredAt: time.Unix(0, int64(3*time.Millisecond)),
	}
	if d.Latency() != 3*time.Millisecond {
		t.Errorf("Latency = %v", d.Latency())
	}
}

func TestStaticReceivers(t *testing.T) {
	f := transport.StaticReceivers(3, 1, 2)
	got := f()
	if len(got) != 3 || got[0] != 3 || got[1] != 1 || got[2] != 2 {
		t.Errorf("StaticReceivers() = %v", got)
	}
}
