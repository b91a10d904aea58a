package broker_test

// Federation tests: the 3-broker full mesh from the acceptance criteria.
// Everything here runs real TCP sockets against in-process servers.

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adamant/internal/broker"
)

// startMesh brings up n brokers with explicit full-mesh routes and
// blocks until every broker reports n-1 live routes.
func startMesh(t *testing.T, n int, opts ...broker.Option) ([]*broker.Server, []string) {
	t.Helper()
	servers := make([]*broker.Server, n)
	addrs := make([]string, n)
	for i := range servers {
		o := append([]broker.Option{
			broker.WithSeed(int64(i + 1)),
			broker.WithServerID(fmt.Sprintf("tb%d", i)),
		}, opts...)
		srv := broker.NewServer(o...)
		if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Shutdown)
		servers[i] = srv
		addrs[i] = srv.Addr().String()
	}
	for i := range servers {
		for j := i + 1; j < n; j++ {
			servers[j].AddRoute(addrs[i])
		}
	}
	waitFor(t, "route formation", func() bool {
		for _, s := range servers {
			if s.Stats().Routes != uint64(n-1) {
				return false
			}
		}
		return true
	})
	return servers, addrs
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestMeshExactlyOnceDelivery is the core federation invariant: a
// publish entering broker A reaches matching subscribers on brokers B
// and C exactly once each, with zero duplicate-suppression events (the
// one-hop rule never even creates a loop in a healthy mesh).
func TestMeshExactlyOnceDelivery(t *testing.T) {
	servers, addrs := startMesh(t, 3)

	type rec struct {
		mu   sync.Mutex
		msgs []string
	}
	recs := make([]*rec, 3)
	clients := make([]*broker.Client, 3)
	for i := range recs {
		r := &rec{}
		recs[i] = r
		c := dial(t, addrs[i])
		clients[i] = c
		if _, err := c.Subscribe("mesh.events.*", func(m broker.Msg) {
			r.mu.Lock()
			r.msgs = append(r.msgs, string(m.Data))
			r.mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(2 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Broker 0 must see remote interest from both peers before the
	// publishes, or early messages legitimately miss remote subscribers.
	waitFor(t, "interest propagation", func() bool {
		return servers[0].Stats().RemoteSubs >= 2
	})

	pub := dial(t, addrs[0])
	const n = 50
	for i := 0; i < n; i++ {
		if err := pub.Publish("mesh.events.tick", []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Flush(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "mesh delivery", func() bool {
		for _, r := range recs {
			r.mu.Lock()
			got := len(r.msgs)
			r.mu.Unlock()
			if got < n {
				return false
			}
		}
		return true
	})
	for i, r := range recs {
		r.mu.Lock()
		if len(r.msgs) != n {
			t.Errorf("broker %d subscriber: %d deliveries, want exactly %d", i, len(r.msgs), n)
		}
		seen := make(map[string]int)
		for _, m := range r.msgs {
			seen[m]++
		}
		for m, c := range seen {
			if c != 1 {
				t.Errorf("broker %d subscriber: message %q delivered %d times", i, m, c)
			}
		}
		r.mu.Unlock()
	}

	// Counter-verified dedup: broker 0 forwarded each publish to exactly
	// the two interested peers, and nothing anywhere was suppressed —
	// the topology never produced a duplicate to suppress.
	if routed := servers[0].Stats().RoutedMsgs; routed != 2*n {
		t.Errorf("origin broker RoutedMsgs = %d, want %d (one RMSG per interested peer)", routed, 2*n)
	}
	for i, s := range servers {
		if d := s.Stats().DupsSuppressed; d != 0 {
			t.Errorf("broker %d DupsSuppressed = %d, want 0 in a healthy mesh", i, d)
		}
	}
}

// TestMeshQueueGroupOneMemberMeshWide: a queue group spread across all
// three brokers receives each publish on exactly one member, mesh-wide.
func TestMeshQueueGroupOneMemberMeshWide(t *testing.T) {
	servers, addrs := startMesh(t, 3)

	var total atomic.Uint64
	perBroker := make([]atomic.Uint64, 3)
	for i := range addrs {
		c := dial(t, addrs[i])
		idx := i
		// Two members per broker: six group members mesh-wide.
		for m := 0; m < 2; m++ {
			if _, err := c.QueueSubscribe("jobs.run", "workers", func(broker.Msg) {
				total.Add(1)
				perBroker[idx].Add(1)
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(2 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "interest propagation", func() bool {
		return servers[0].Stats().RemoteSubs >= 2
	})

	pub := dial(t, addrs[0])
	const n = 300
	for i := 0; i < n; i++ {
		if err := pub.Publish("jobs.run", []byte("job")); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Flush(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Exactly n deliveries must arrive; give late duplicates a moment to
	// prove they don't exist before asserting.
	waitFor(t, "queue delivery", func() bool { return total.Load() >= n })
	time.Sleep(50 * time.Millisecond)
	if got := total.Load(); got != n {
		t.Fatalf("queue group received %d deliveries mesh-wide, want exactly %d", got, n)
	}
	// The origin's seeded rng picks among 2 local members and 2 remote
	// peer entries uniformly, so every broker should see a healthy share.
	for i := range perBroker {
		if got := perBroker[i].Load(); got == 0 {
			t.Errorf("broker %d queue members received nothing across %d publishes", i, n)
		}
	}
}

// TestMeshInterestWithdrawalOnBrokerDeath: killing broker B withdraws
// its interest from A within the failure-detection bound, so A stops
// routing to it (RoutedMsgs stops growing) and the rest of the mesh
// keeps working.
func TestMeshInterestWithdrawalOnBrokerDeath(t *testing.T) {
	servers, addrs := startMesh(t, 3,
		broker.WithRouteHeartbeat(25*time.Millisecond, 100*time.Millisecond))

	// One subscriber on each of B and C.
	var cGot atomic.Uint64
	cb := dial(t, addrs[1])
	if _, err := cb.Subscribe("feed.data", func(broker.Msg) {}); err != nil {
		t.Fatal(err)
	}
	if err := cb.Flush(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	cc := dial(t, addrs[2])
	if _, err := cc.Subscribe("feed.data", func(broker.Msg) { cGot.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if err := cc.Flush(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "interest propagation", func() bool {
		return servers[0].Stats().RemoteSubs >= 2
	})

	pub := dial(t, addrs[0])
	if err := pub.Publish("feed.data", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := pub.Flush(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pre-kill routing", func() bool {
		return servers[0].Stats().RoutedMsgs == 2 && cGot.Load() == 1
	})

	// Kill broker B abruptly. A must tear the route down and withdraw
	// B's interest within the detection bound (suspect + one tick, plus
	// slack for scheduling).
	servers[1].Shutdown()
	detected := make(chan struct{})
	go func() {
		waitFor(t, "route teardown", func() bool {
			st := servers[0].Stats()
			return st.Routes == 1 && st.RemoteSubs == 1
		})
		close(detected)
	}()
	select {
	case <-detected:
	case <-time.After(2 * time.Second):
		t.Fatal("broker A did not withdraw dead peer's interest within the detection bound")
	}

	// A now routes only to C: one more publish adds exactly one RoutedMsg
	// and still reaches C's subscriber.
	if err := pub.Publish("feed.data", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := pub.Flush(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-kill delivery", func() bool { return cGot.Load() == 2 })
	if routed := servers[0].Stats().RoutedMsgs; routed != 3 {
		t.Errorf("RoutedMsgs after kill = %d, want 3 (dead peer no longer routed to)", routed)
	}
}

// TestMeshGossipFromSeeds: each non-seed broker is given exactly one
// route (to broker 0); gossip + redial must converge every broker to a
// full mesh, proving one seed is enough to join.
func TestMeshGossipFromSeeds(t *testing.T) {
	const n = 3
	// The advertise address must be known at construction, so reserve
	// ephemeral ports in a first pass and rebind with the address fixed
	// (mirrors a deployment's static -cluster-advertise config). The
	// rebind can race another process grabbing the freed port; skip in
	// that unlikely case rather than flake.
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		srv := broker.NewServer()
		if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		addrs[i] = srv.Addr().String()
		srv.Shutdown()
	}
	servers := make([]*broker.Server, n)
	for i := 0; i < n; i++ {
		srv := broker.NewServer(
			broker.WithSeed(int64(i+1)),
			broker.WithServerID(fmt.Sprintf("tg%d", i)),
			broker.WithClusterAdvertise(addrs[i]),
		)
		if err := srv.ListenAndServe(addrs[i]); err != nil {
			t.Skipf("ephemeral port %s re-bind raced: %v", addrs[i], err)
		}
		t.Cleanup(srv.Shutdown)
		servers[i] = srv
	}
	// Only spokes to broker 0 — no configured route between 1 and 2.
	servers[1].AddRoute(addrs[0])
	servers[2].AddRoute(addrs[0])
	waitFor(t, "gossip mesh completion", func() bool {
		for _, s := range servers {
			if s.Stats().Routes != n-1 {
				return false
			}
		}
		return true
	})
}

// TestMeshStatsConsistency: RoutedMsgs is counted with the message it
// forwards, under the same index lock, so snapshots taken mid-traffic stay
// internally consistent (RoutedMsgs never exceeds what MsgsIn could have
// produced).
func TestMeshStatsConsistency(t *testing.T) {
	servers, addrs := startMesh(t, 2)
	c := dial(t, addrs[1])
	if _, err := c.Subscribe("s.t", func(broker.Msg) {}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "interest", func() bool { return servers[0].Stats().RemoteSubs >= 1 })

	pub := dial(t, addrs[0])
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			pub.Publish("s.t", []byte("z"))
		}
	}()
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		st := servers[0].Stats()
		if st.RoutedMsgs > st.MsgsIn {
			t.Fatalf("torn stats snapshot: RoutedMsgs %d > MsgsIn %d", st.RoutedMsgs, st.MsgsIn)
		}
	}
	close(stop)
	wg.Wait()
}

// TestDrainShutdownFlushesDialedRoute: what DrainShutdown promises —
// deliveries already routed reach their destination — holds for a route
// this broker dialed as it does for one it accepted. The peer proves
// interest, stops reading while 16 MiB of RMSGs queue up behind a full
// socket buffer, and must still be able to read every one of them to EOF
// once the drain starts.
func TestDrainShutdownFlushesDialedRoute(t *testing.T) {
	const msgs, size = 4096, 4096
	srv := broker.NewServer(broker.WithSeed(1), broker.WithServerID("hub"),
		broker.WithRouteHeartbeat(time.Hour, time.Hour))
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srv.AddRoute(ln.Addr().String())
	ln.(*net.TCPListener).SetDeadline(time.Now().Add(5 * time.Second))
	peer, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	r := bufio.NewReaderSize(peer, 64<<10)
	peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	if hello, err := r.ReadString('\n'); err != nil || hello != "ROUTE hub -\r\n" {
		t.Fatalf("hello %q, %v", hello, err)
	}
	if _, err := io.WriteString(peer, "ROUTE peer -\r\nRS+ d.x\r\n"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the peer's interest", func() bool { return srv.Stats().RemoteSubs == 1 })

	pub := dial(t, srv.Addr().String())
	payload := make([]byte, size)
	for i := 0; i < msgs; i++ {
		if err := pub.Publish("d.x", payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.RoutedMsgs != msgs {
		t.Fatalf("RoutedMsgs = %d before the drain, want %d", st.RoutedMsgs, msgs)
	}

	drained := make(chan struct{})
	go func() {
		srv.DrainShutdown(5 * time.Second)
		close(drained)
	}()
	peer.SetReadDeadline(time.Now().Add(10 * time.Second))
	got := 0
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			break // EOF, or the reset of a connection cut with bytes unsent
		}
		f := strings.Fields(line)
		if len(f) != 4 || f[0] != "RMSG" {
			continue
		}
		n, _ := strconv.Atoi(f[3])
		if _, err := r.Discard(n + 2); err != nil {
			break
		}
		got++
	}
	<-drained
	if got != msgs {
		t.Fatalf("peer read %d of %d RMSGs queued on a dialed route before DrainShutdown", got, msgs)
	}
}
