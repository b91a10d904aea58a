package protocols_test

import (
	"strings"
	"testing"
	"time"

	"adamant/internal/core"
	"adamant/internal/env"
	"adamant/internal/sim"
	"adamant/internal/transport"
	"adamant/internal/transport/protocols"
	"adamant/internal/transport/transporttest"
	"adamant/internal/wire"
)

func TestNewRegistryHasAllProtocols(t *testing.T) {
	reg, err := protocols.NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"bemcast", "fountcast", "nakcast", "ricochet"}
	got := reg.Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

func TestMustRegistry(t *testing.T) {
	if protocols.MustRegistry() == nil {
		t.Fatal("MustRegistry returned nil")
	}
}

// TestFactoryProps pins every registered protocol's properties: each
// protocol advertises one set, the same at default params as at every
// core.Candidates spec of it.
func TestFactoryProps(t *testing.T) {
	want := map[string]string{
		"bemcast":   "multicast",
		"fountcast": "multicast+fec+ordered",
		"nakcast":   "multicast+nak-reliability+ordered",
		"ricochet":  "multicast+fec",
	}
	reg := protocols.MustRegistry()
	for _, name := range reg.Names() {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: no expected properties", name)
		}
		if p, err := reg.Props(transport.Spec{Name: name}); err != nil || p.String() != want[name] {
			t.Errorf("%s: Props = %v, %v; want %s", name, p, err, want[name])
		}
	}
	for _, spec := range core.Candidates() {
		if p, err := reg.Props(spec); err != nil || p.String() != want[spec.Name] {
			t.Errorf("%s: Props = %v, %v; want %s", spec, p, err, want[spec.Name])
		}
	}
}

// TestSpecKeys pins the spec keys each protocol reads. A tunable nothing
// outside the tests sets is a constant, so its key is an unknown param (the
// rows give each removed key its former default); stagger takes one
// spelling per configuration, and c stays within a bound; every kept key
// parses at the value its product caller sets.
func TestSpecKeys(t *testing.T) {
	reg := protocols.MustRegistry()
	for _, tc := range []struct{ spec, err string }{
		{"nakcast(maxnaks=8)", "unknown param maxnaks"},
		{"nakcast(history=16384)", "unknown param history"},
		{"nakcast(hb=100ms)", "unknown param hb"},
		{"nakcast(proc=50µs)", "unknown param proc"},
		{"ricochet(window=4096)", "unknown param window"},
		{"ricochet(proc=300µs)", "unknown param proc"},
		{"ricochet(decode=13ms)", "unknown param decode"},
		{"fountcast(hb=100ms)", "unknown param hb"},
		{"fountcast(proc=50µs)", "unknown param proc"},
		{"nakcast(unordered=1)", "unknown param unordered"},

		{"ricochet(r=4,stagger=4)", "stagger=4"},
		{"ricochet(r=4,stagger=-2)", "stagger=-2"},
		{"ricochet(r=4097)", "r=4097"}, // past the 4 096-packet cache
		{"ricochet(c=65)", "c=65"},     // past the per-repair peer bound

		{"nakcast(timeout=50ms)", ""},                   // core.Candidates
		{"ricochet(c=3,r=8)", ""},                       // core.Candidates
		{"ricochet(c=3,flush=8ms,r=4)", ""},             // A2
		{"ricochet(c=3,flush=-1ms,r=4,stagger=-1)", ""}, // A3
		{"ricochet(c=1,flush=-1ms,r=2,stagger=1)", ""},  // A4's r=2, an explicit stagger
		{"fountcast(k=8,oh=25)", ""},                    // core.Candidates
		{"fountcast(hold=15ms,k=4,oh=100)", ""},         // A6
	} {
		spec, err := transport.ParseSpec(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		_, err = reg.Props(spec)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%s: %v", tc.spec, err)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%s: error %v, want one naming %q", tc.spec, err, tc.err)
		}
	}
}

// TestExplicitZeroParamsRun pins that a param value ParseOptions accepts is
// the value a receiver built through the registry runs with, zero included:
// flush=0s sends no repair for a partial group, where the default sends one.
// The work and decode rows pin the per-packet and decode-path costs each
// protocol runs with. Node 1 receives one data packet (seq 1) from node 0;
// a repair row adds a repair of seqs 1 and 2 from node 2, a peer row makes
// node 2 a repair target.
func TestExplicitZeroParamsRun(t *testing.T) {
	type result struct {
		ep *transporttest.Endpoint
		st transport.ReceiverStats
		ds []transport.Delivery
	}
	work := func(r result) time.Duration { return r.ep.WorkCharged }
	decode := func(r result) time.Duration { return r.ds[len(r.ds)-1].DeliveredAt.Sub(r.ds[0].DeliveredAt) }
	repairs := func(r result) time.Duration { return time.Duration(r.st.RepairsSent) }
	reg := protocols.MustRegistry()
	for _, tc := range []struct {
		what         string
		spec         string
		peer, repair bool
		got          func(result) time.Duration
		want         time.Duration
	}{
		{"work", "nakcast", false, false, work, 50 * time.Microsecond},
		{"work", "fountcast", false, false, work, 50 * time.Microsecond},
		{"work", "ricochet", false, false, work, 300 * time.Microsecond},
		{"decode", "ricochet", false, true, decode, 13 * time.Millisecond},
		{"repairs", "ricochet(flush=0s,stagger=-1)", true, false, repairs, 0},
		{"repairs", "ricochet(stagger=-1)", true, false, repairs, 1},
	} {
		t.Run(tc.what+"/"+tc.spec, func(t *testing.T) {
			spec, err := transport.ParseSpec(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			k := sim.New(1)
			e := env.NewSim(k)
			fab := transporttest.New(e, time.Millisecond)
			ids := []wire.NodeID{1}
			if tc.peer {
				ids = append(ids, fab.Endpoint(2).Local())
			}
			r := result{ep: fab.Endpoint(1)}
			recv, err := reg.NewReceiver(spec, transport.Config{
				Env: e, Endpoint: r.ep, Stream: 1, Receivers: transport.StaticReceivers(ids...),
				Deliver: func(d transport.Delivery) { r.ds = append(r.ds, d) },
			})
			if err != nil {
				t.Fatal(err)
			}
			data := func(seq uint64) *wire.Packet {
				return &wire.Packet{Type: wire.TypeData, Stream: 1, Seq: seq, SentAt: k.Now(), Payload: []byte{byte(seq)}}
			}
			if err := fab.Endpoint(0).Unicast(1, data(1)); err != nil {
				t.Fatal(err)
			}
			if tc.repair {
				body, err := wire.AppendRepair(nil, []*wire.Packet{data(1), data(2)})
				if err != nil {
					t.Fatal(err)
				}
				pkt := &wire.Packet{Type: wire.TypeRepair, Src: 2, Stream: 1, Seq: 2, SentAt: k.Now(), Payload: body}
				if err := fab.Endpoint(2).Unicast(1, pkt); err != nil {
					t.Fatal(err)
				}
			}
			if err := k.RunFor(time.Second); err != nil {
				t.Fatal(err)
			}
			r.st = recv.Stats()
			if got := tc.got(r); got != tc.want {
				t.Errorf("%s = %v, want %v", tc.what, got, tc.want)
			}
		})
	}
}

// TestEveryProtocolEndToEnd runs each registered protocol through the same
// lossless one-sender/two-receiver exchange via the registry path, and
// fails when a registered protocol has no row.
func TestEveryProtocolEndToEnd(t *testing.T) {
	specs := []string{
		"bemcast",
		"nakcast(timeout=1ms)",
		"ricochet(r=4,c=2)",
		"fountcast(k=8,oh=25)",
	}
	covered := map[string]bool{}
	for _, s := range specs {
		spec, err := transport.ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		covered[spec.Name] = true
	}
	for _, name := range protocols.MustRegistry().Names() {
		if !covered[name] {
			t.Errorf("registered protocol %s has no row", name)
		}
	}
	for _, specStr := range specs {
		specStr := specStr
		t.Run(specStr, func(t *testing.T) {
			reg := protocols.MustRegistry()
			spec, err := transport.ParseSpec(specStr)
			if err != nil {
				t.Fatal(err)
			}
			k := sim.New(1)
			e := env.NewSim(k)
			fab := transporttest.New(e, time.Millisecond)
			receivers := transport.StaticReceivers(1, 2)

			s, err := reg.NewSender(spec, transport.Config{
				Env: e, Endpoint: fab.Endpoint(0), Stream: 1, Receivers: receivers,
			})
			if err != nil {
				t.Fatal(err)
			}
			var got [2][]transport.Delivery
			for i := 0; i < 2; i++ {
				i := i
				if _, err := reg.NewReceiver(spec, transport.Config{
					Env: e, Endpoint: fab.Endpoint(wire.NodeID(i + 1)), Stream: 1,
					SenderID: 0, Receivers: receivers,
					Deliver: func(d transport.Delivery) { got[i] = append(got[i], d) },
				}); err != nil {
					t.Fatal(err)
				}
			}
			for n := 0; n < 25; n++ {
				if err := s.Publish([]byte{byte(n)}); err != nil {
					t.Fatal(err)
				}
				if err := k.RunFor(2 * time.Millisecond); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if err := k.RunFor(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if len(got[i]) != 25 {
					t.Errorf("receiver %d delivered %d, want 25", i, len(got[i]))
				}
			}
		})
	}
}
