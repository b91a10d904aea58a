package udpnet_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"adamant/internal/env"
	"adamant/internal/transport"
	"adamant/internal/transport/nakcast"
	"adamant/internal/transport/ricochet"
	"adamant/internal/udpnet"
	"adamant/internal/wire"
)

// cluster spins up n+1 UDP endpoints on loopback (node 0 = sender) with a
// shared RealEnv per node.
type cluster struct {
	envs []*env.RealEnv
	eps  []*udpnet.Endpoint
}

func newCluster(t *testing.T, nodes int) *cluster {
	t.Helper()
	c := &cluster{}
	for i := 0; i < nodes; i++ {
		e := env.NewReal(int64(i + 1))
		ep, err := udpnet.New(e, wire.NodeID(i), "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		c.envs = append(c.envs, e)
		c.eps = append(c.eps, ep)
	}
	// Late-bind the full mesh now that ports are known.
	for i, ep := range c.eps {
		for j, other := range c.eps {
			if i != j {
				ep.SetPeerAddr(wire.NodeID(j), other.LocalAddr())
			}
		}
	}
	t.Cleanup(func() {
		for _, ep := range c.eps {
			ep.Close()
		}
		for _, e := range c.envs {
			e.Close()
		}
	})
	return c
}

// onEnv runs fn inside node i's env executor and waits for it — protocol
// instances must be constructed in env-callback context (the env serial-
// execution contract is what lets them go lock-free).
func (c *cluster) onEnv(i int, fn func()) {
	c.envs[i].Post(fn)
	c.envs[i].Barrier()
}

func TestUnicastOverLoopback(t *testing.T) {
	c := newCluster(t, 2)
	got := make(chan *wire.Packet, 1)
	c.eps[1].SetHandler(func(src wire.NodeID, pkt *wire.Packet) {
		if src == 0 {
			got <- pkt
		}
	})
	pkt := &wire.Packet{Type: wire.TypeData, Src: 0, Stream: 1, Seq: 42,
		SentAt: time.Now(), Payload: []byte("over the wire")}
	if err := c.eps[0].Unicast(1, pkt); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if p.Seq != 42 || string(p.Payload) != "over the wire" {
			t.Errorf("got %+v", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("packet never arrived")
	}
}

func TestMulticastFanOut(t *testing.T) {
	c := newCluster(t, 4)
	var wg sync.WaitGroup
	wg.Add(3)
	for i := 1; i <= 3; i++ {
		c.eps[i].SetHandler(func(src wire.NodeID, pkt *wire.Packet) { wg.Done() })
	}
	pkt := &wire.Packet{Type: wire.TypeData, Src: 0, Stream: 1, Seq: 1, SentAt: time.Now()}
	if err := c.eps[0].Multicast(pkt); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("multicast did not reach all peers")
	}
}

func TestErrors(t *testing.T) {
	c := newCluster(t, 2)
	pkt := &wire.Packet{Type: wire.TypeData, Src: 0, Stream: 1, Seq: 1, SentAt: time.Now()}
	if err := c.eps[0].Unicast(99, pkt); err == nil {
		t.Error("unknown destination should error")
	}
	big := &wire.Packet{Type: wire.TypeData, Src: 0, Stream: 1, Seq: 1,
		SentAt: time.Now(), Payload: make([]byte, udpnet.MTU+1)}
	if err := c.eps[0].Unicast(1, big); err == nil {
		t.Error("oversize payload should error")
	}
	if _, err := udpnet.New(nil, 0, "127.0.0.1:0", nil); err == nil {
		t.Error("nil env should error")
	}
	if _, err := udpnet.New(c.envs[0], 0, "not-an-addr::", nil); err == nil {
		t.Error("bad bind address should error")
	}
	if _, err := udpnet.New(c.envs[0], 0, "127.0.0.1:0",
		map[wire.NodeID]string{1: "bogus::addr::"}); err == nil {
		t.Error("bad book address should error")
	}
}

func TestCloseIdempotentAndSendAfterClose(t *testing.T) {
	e := env.NewReal(1)
	defer e.Close()
	ep, err := udpnet.New(e, 0, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ep.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	pkt := &wire.Packet{Type: wire.TypeData, Src: 0, Stream: 1, Seq: 1, SentAt: time.Now()}
	ep.SetPeerAddr(1, ep.LocalAddr())
	if err := ep.Unicast(1, pkt); err == nil {
		t.Error("send after close should error")
	}
}

// TestNAKcastOverRealUDP runs the full protocol stack over real sockets:
// the same state machine exercised all over the simulator tests.
func TestNAKcastOverRealUDP(t *testing.T) {
	opts, err := nakcast.ParseOptions(transport.Params{"timeout": "5ms"})
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, 3)
	var sender *nakcast.Sender
	c.onEnv(0, func() {
		var err error
		sender, err = nakcast.NewSender(transport.Config{
			Env: c.envs[0], Endpoint: c.eps[0], Stream: 7,
		}, opts)
		if err != nil {
			t.Error(err)
		}
	})
	if sender == nil {
		t.Fatal("sender construction failed")
	}
	var mu sync.Mutex
	counts := map[int]int{}
	for i := 1; i <= 2; i++ {
		i := i
		c.onEnv(i, func() {
			if _, err := nakcast.NewReceiver(transport.Config{
				Env: c.envs[i], Endpoint: c.eps[i], Stream: 7, SenderID: 0,
				Deliver: func(d transport.Delivery) {
					mu.Lock()
					counts[i]++
					mu.Unlock()
				},
			}, opts); err != nil {
				t.Error(err)
			}
		})
	}
	const n = 50
	for k := 0; k < n; k++ {
		c.envs[0].Post(func() {
			if err := sender.Publish([]byte(fmt.Sprintf("msg-%d", k))); err != nil {
				t.Error(err)
			}
		})
		time.Sleep(2 * time.Millisecond)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		ok := counts[1] == n && counts[2] == n
		mu.Unlock()
		if ok {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	t.Fatalf("delivery counts = %v, want %d each", counts, n)
}

// TestRicochetOverRealUDP smoke-tests the FEC protocol on real sockets.
func TestRicochetOverRealUDP(t *testing.T) {
	opts, err := ricochet.ParseOptions(transport.Params{"r": "4", "c": "2"})
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, 4)
	receivers := transport.StaticReceivers(1, 2, 3)
	var sender *ricochet.Sender
	c.onEnv(0, func() {
		var err error
		sender, err = ricochet.NewSender(transport.Config{
			Env: c.envs[0], Endpoint: c.eps[0], Stream: 9,
		})
		if err != nil {
			t.Error(err)
		}
	})
	if sender == nil {
		t.Fatal("sender construction failed")
	}
	var mu sync.Mutex
	counts := map[int]int{}
	for i := 1; i <= 3; i++ {
		i := i
		c.onEnv(i, func() {
			if _, err := ricochet.NewReceiver(transport.Config{
				Env: c.envs[i], Endpoint: c.eps[i], Stream: 9, SenderID: 0,
				Receivers: receivers,
				Deliver: func(d transport.Delivery) {
					mu.Lock()
					counts[i]++
					mu.Unlock()
				},
			}, opts); err != nil {
				t.Error(err)
			}
		})
	}
	const n = 40
	for k := 0; k < n; k++ {
		c.envs[0].Post(func() {
			if err := sender.Publish([]byte("sample")); err != nil {
				t.Error(err)
			}
		})
		time.Sleep(2 * time.Millisecond)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		ok := counts[1] >= n && counts[2] >= n && counts[3] >= n
		mu.Unlock()
		if ok {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	t.Fatalf("delivery counts = %v, want >= %d each", counts, n)
}
