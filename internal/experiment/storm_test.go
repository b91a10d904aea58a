package experiment

import (
	"testing"
)

// TestRunShardedWidthInvariance pins the engine contract at the experiment
// level: the same config produces an identical QoS summary at every worker
// count, so -shards is a wall-clock knob, never a results knob.
func TestRunShardedWidthInvariance(t *testing.T) {
	cfg := Config{Receivers: 8, RateHz: 100, Samples: 200, LossPct: 3, Seed: 7, Shards: 1}
	base, baseRep, err := RunDetailed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.Delivered == 0 {
		t.Fatalf("sharded run delivered nothing: %+v", base)
	}
	for _, shards := range []int{2, 8} {
		cfg.Shards = shards
		s, rep, err := RunDetailed(cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		checkTails(t, s)
		if s != base {
			t.Errorf("shards=%d summary diverged:\n got %+v\nwant %+v", shards, s, base)
		}
		if rep.TotalTx() != baseRep.TotalTx() {
			t.Errorf("shards=%d tx packets %d, want %d", shards, rep.TotalTx(), baseRep.TotalTx())
		}
	}
}

// TestRunShardedReplay pins same-seed replayability on the sharded engine.
func TestRunShardedReplay(t *testing.T) {
	cfg := Config{Receivers: 6, RateHz: 100, Samples: 150, LossPct: 5, Seed: 3, Shards: 4}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed, different summaries:\n a %+v\n b %+v", a, b)
	}
}

// TestStormEndToEnd runs the full 1000-receiver multicast storm. This is
// the headline large-scale scenario; -short trims the group so the smoke
// check stays cheap.
func TestStormEndToEnd(t *testing.T) {
	receivers := 1000
	samples := 0 // preset default
	if testing.Short() {
		receivers = 100
		samples = 100
	}
	cfg := Storm(receivers, 8, 1)
	if samples != 0 {
		cfg.Samples = samples
	}
	s, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(cfg.Samples) * uint64(receivers); s.Sent != want {
		t.Errorf("sent %d, want %d", s.Sent, want)
	}
	if s.Reliability() < 95 {
		t.Errorf("storm reliability %.2f%%, want >= 95%% at 1%% loss with no repair", s.Reliability())
	}
	if s.AvgLatencyUs <= 0 || s.P99LatencyUs < s.P50LatencyUs {
		t.Errorf("implausible latency profile: %+v", s)
	}
}
