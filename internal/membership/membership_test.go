package membership_test

import (
	"slices"
	"testing"
	"time"

	"adamant/internal/env"
	"adamant/internal/membership"
	"adamant/internal/sim"
	"adamant/internal/transport/transporttest"
	"adamant/internal/wire"
)

type cluster struct {
	k    *sim.Kernel
	fab  *transporttest.Fabric
	dets []*membership.Detector
}

func newCluster(t *testing.T, n int, opts membership.DetectorOptions) *cluster {
	t.Helper()
	c := &cluster{k: sim.New(5)}
	e := env.NewSim(c.k)
	c.fab = transporttest.New(e, time.Millisecond)
	// Create all endpoints before any detector so JOINs reach everyone.
	for i := 0; i < n; i++ {
		c.fab.Endpoint(wire.NodeID(i))
	}
	for i := 0; i < n; i++ {
		d, err := membership.NewDetector(e, c.fab.Endpoint(wire.NodeID(i)), opts)
		if err != nil {
			t.Fatal(err)
		}
		c.dets = append(c.dets, d)
	}
	return c
}

func TestDetectorConverges(t *testing.T) {
	c := newCluster(t, 4, membership.DetectorOptions{Interval: 10 * time.Millisecond})
	if err := c.k.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for i, d := range c.dets {
		v := d.View()
		if len(v.Members) != 4 {
			t.Errorf("detector %d sees %d members, want 4: %v", i, len(v.Members), v.Members)
		}
	}
}

// TestDetectorView checks the shape of a converged view: sorted members,
// a version past the initial one, Contains, Receivers matching the view,
// and a non-empty String.
func TestDetectorView(t *testing.T) {
	c := newCluster(t, 4, membership.DetectorOptions{Interval: 10 * time.Millisecond})
	if err := c.k.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for i, d := range c.dets {
		v := d.View()
		if len(v.Members) != 4 || !slices.IsSorted(v.Members) {
			t.Errorf("detector %d sees %v, want the 4 members sorted", i, v.Members)
		}
		if v.Version < 2 {
			t.Errorf("detector %d: view version = %d, want >= 2", i, v.Version)
		}
		if !v.Contains(3) || v.Contains(9) {
			t.Errorf("detector %d: Contains wrong for %v", i, v.Members)
		}
		if !slices.Equal(d.Receivers(), v.Members) {
			t.Errorf("detector %d: Receivers() = %v, view has %v", i, d.Receivers(), v.Members)
		}
		if v.String() == "" {
			t.Errorf("detector %d: empty String()", i)
		}
	}
}

func TestGracefulLeave(t *testing.T) {
	c := newCluster(t, 3, membership.DetectorOptions{Interval: 10 * time.Millisecond})
	if err := c.k.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := c.dets[2].Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.k.RunFor(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		v := c.dets[i].View()
		if len(v.Members) != 2 || v.Contains(2) {
			t.Errorf("detector %d did not process LEAVE: %v", i, v.Members)
		}
	}
}

func TestCrashDetectedByTimeout(t *testing.T) {
	c := newCluster(t, 3, membership.DetectorOptions{Interval: 10 * time.Millisecond})
	if err := c.k.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Crash node 2: drop all its traffic (no LEAVE).
	c.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool { return from == 2 }
	if err := c.k.RunFor(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		v := c.dets[i].View()
		if v.Contains(2) {
			t.Errorf("detector %d still sees crashed node: %v", i, v.Members)
		}
		if len(v.Members) != 2 {
			t.Errorf("detector %d members = %v", i, v.Members)
		}
	}
}

func TestRejoinAfterPartitionHeals(t *testing.T) {
	c := newCluster(t, 2, membership.DetectorOptions{Interval: 10 * time.Millisecond})
	if err := c.k.RunFor(60 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	c.fab.Drop = func(from, to wire.NodeID, pkt *wire.Packet) bool { return from == 1 || to == 1 }
	if err := c.k.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if c.dets[0].View().Contains(1) {
		t.Fatal("partitioned node not removed")
	}
	c.fab.Drop = nil
	if err := c.k.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !c.dets[0].View().Contains(1) {
		t.Error("healed node not re-added")
	}
}

func TestDataPlaneHeartbeatsIgnored(t *testing.T) {
	// A NAKcast-style heartbeat on a data stream must not create members.
	k := sim.New(5)
	e := env.NewSim(k)
	fab := transporttest.New(e, time.Millisecond)
	fab.Endpoint(0)
	fab.Endpoint(7)
	d, err := membership.NewDetector(e, fab.Endpoint(0), membership.DetectorOptions{
		Interval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	body, err := (&wire.HeartbeatBody{HighSeq: 10}).Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	hb := &wire.Packet{Type: wire.TypeHeartbeat, Src: 7, Stream: 1, SentAt: k.Now(), Payload: body}
	if err := fab.Endpoint(7).Unicast(0, hb); err != nil {
		t.Fatal(err)
	}
	if err := k.RunFor(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if d.View().Contains(7) {
		t.Error("data-plane heartbeat created a membership entry")
	}
}

func TestNewDetectorValidation(t *testing.T) {
	if _, err := membership.NewDetector(nil, nil, membership.DetectorOptions{}); err == nil {
		t.Error("nil args should error")
	}
}

func TestDetectorCloseIdempotent(t *testing.T) {
	c := newCluster(t, 2, membership.DetectorOptions{Interval: 10 * time.Millisecond})
	if err := c.dets[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.dets[0].Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}
