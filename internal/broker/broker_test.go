package broker_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adamant/internal/broker"
)

func startServer(t *testing.T) (*broker.Server, string) {
	t.Helper()
	srv := broker.NewServer()
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	return srv, srv.Addr().String()
}

func dial(t *testing.T, addr string) *broker.Client {
	t.Helper()
	c, err := broker.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestPublishSubscribe(t *testing.T) {
	_, addr := startServer(t)
	pub := dial(t, addr)
	sub := dial(t, addr)

	var mu sync.Mutex
	var got []broker.Msg
	if _, err := sub.Subscribe("sensors.infrared", func(m broker.Msg) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if err := sub.Flush(time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := pub.Publish("sensors.infrared", []byte(fmt.Sprintf("scan-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Flush(time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 10 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 10 {
		t.Fatalf("got %d messages, want 10", len(got))
	}
	if got[0].Subject != "sensors.infrared" || string(got[0].Data) != "scan-0" {
		t.Errorf("first message = %+v", got[0])
	}
}

// flushBoth is the delivery barrier between a publisher and a subscriber:
// pub's PONG means the broker has queued pub's messages to sub, and sub's
// PONG follows them on sub's FIFO connection, so sub's handlers, which its
// read loop runs inline, have run when the second Flush returns.
func flushBoth(t *testing.T, pub, sub *broker.Client) {
	t.Helper()
	for _, c := range []*broker.Client{pub, sub} {
		if err := c.Flush(time.Second); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWildcardMatching(t *testing.T) {
	_, addr := startServer(t)
	pub := dial(t, addr)
	sub := dial(t, addr)

	var star, full, exact atomic.Int64
	mustSub := func(pattern string, ctr *atomic.Int64) {
		t.Helper()
		if _, err := sub.Subscribe(pattern, func(broker.Msg) { ctr.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	mustSub("sensors.*.infrared", &star)
	mustSub("sensors.>", &full)
	mustSub("sensors.uav1.infrared", &exact)
	if err := sub.Flush(time.Second); err != nil {
		t.Fatal(err)
	}

	publish := func(subj string) {
		t.Helper()
		if err := pub.Publish(subj, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	publish("sensors.uav1.infrared") // all three
	publish("sensors.uav2.infrared") // star + full
	publish("sensors.uav1.video")    // full only
	publish("other.uav1.infrared")   // none
	flushBoth(t, pub, sub)
	if star.Load() != 2 || full.Load() != 3 || exact.Load() != 1 {
		t.Errorf("star=%d full=%d exact=%d, want 2/3/1", star.Load(), full.Load(), exact.Load())
	}
}

func TestQueueGroupsLoadBalance(t *testing.T) {
	_, addr := startServer(t)
	pub := dial(t, addr)
	var counts [3]atomic.Int64
	for i := 0; i < 3; i++ {
		i := i
		worker := dial(t, addr)
		if _, err := worker.QueueSubscribe("jobs.detect", "workers", func(broker.Msg) {
			counts[i].Add(1)
		}); err != nil {
			t.Fatal(err)
		}
		if err := worker.Flush(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	const total = 90
	for i := 0; i < total; i++ {
		if err := pub.Publish("jobs.detect", []byte("job")); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Flush(time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	sum := func() int64 { return counts[0].Load() + counts[1].Load() + counts[2].Load() }
	for sum() < total && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if sum() != total {
		t.Fatalf("queue group delivered %d, want exactly %d (one member per message)", sum(), total)
	}
	for i := range counts {
		if counts[i].Load() == 0 {
			t.Errorf("worker %d starved (0 of %d)", i, total)
		}
	}
}

func TestUnsubscribe(t *testing.T) {
	_, addr := startServer(t)
	pub := dial(t, addr)
	sub := dial(t, addr)
	var n atomic.Int64
	s, err := sub.Subscribe("a.b", func(broker.Msg) { n.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Flush(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("a.b", nil); err != nil {
		t.Fatal(err)
	}
	flushBoth(t, pub, sub)
	if n.Load() != 1 {
		t.Fatalf("received %d messages before unsubscribing, want 1", n.Load())
	}
	if err := s.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	if err := sub.Flush(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("a.b", nil); err != nil {
		t.Fatal(err)
	}
	flushBoth(t, pub, sub)
	if n.Load() != 1 {
		t.Errorf("received %d messages, want 1 (post-unsubscribe publish must not arrive)", n.Load())
	}
}

func TestLargePayload(t *testing.T) {
	_, addr := startServer(t)
	pub := dial(t, addr)
	sub := dial(t, addr)
	payload := make([]byte, 256*1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	ch := make(chan []byte, 1)
	if _, err := sub.Subscribe("big", func(m broker.Msg) { ch <- m.Data }); err != nil {
		t.Fatal(err)
	}
	if err := sub.Flush(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("big", payload); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-ch:
		if len(got) != len(payload) {
			t.Fatalf("payload length %d, want %d", len(got), len(payload))
		}
		for i := range got {
			if got[i] != payload[i] {
				t.Fatalf("payload corrupted at %d", i)
			}
		}
	case <-time.After(2 * time.Second):
		t.Fatal("large payload never arrived")
	}
}

func TestOversizePayloadRejected(t *testing.T) {
	_, addr := startServer(t)
	pub := dial(t, addr)
	if err := pub.Publish("big", make([]byte, broker.MaxPayload+1)); err == nil {
		t.Error("oversize publish should error client-side")
	}
}

func TestInvalidSubjects(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if err := c.Publish("with space", nil); err == nil {
		t.Error("subject with space should error")
	}
	if err := c.Publish("wild.*", nil); err == nil {
		t.Error("publish with wildcard should error")
	}
	if err := c.Publish("", nil); err == nil {
		t.Error("empty subject should error")
	}
	if _, err := c.Subscribe("a..b", func(broker.Msg) {}); err == nil {
		t.Error("empty token pattern should error")
	}
	if _, err := c.Subscribe("a.>.b", func(broker.Msg) {}); err == nil {
		t.Error("non-final '>' should error")
	}
	if _, err := c.Subscribe("a.b", nil); err == nil {
		t.Error("nil handler should error")
	}
	if _, err := c.QueueSubscribe("a.b", "", func(broker.Msg) {}); err == nil {
		t.Error("empty queue group should error")
	}
}

func TestServerStats(t *testing.T) {
	srv, addr := startServer(t)
	pub := dial(t, addr)
	sub := dial(t, addr)
	if _, err := sub.Subscribe("s", func(broker.Msg) {}); err != nil {
		t.Fatal(err)
	}
	if err := sub.Flush(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("s", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	if err := pub.Flush(time.Second); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Connections != 2 || st.MsgsIn != 1 || st.MsgsOut != 1 || st.BytesIn != 5 {
		t.Errorf("stats = %+v", st)
	}
	if srv.NumSubscriptions() != 1 {
		t.Errorf("NumSubscriptions = %d", srv.NumSubscriptions())
	}
}

func TestClientDisconnectCleansSubscriptions(t *testing.T) {
	srv, addr := startServer(t)
	sub := dial(t, addr)
	if _, err := sub.Subscribe("x", func(broker.Msg) {}); err != nil {
		t.Fatal(err)
	}
	if err := sub.Flush(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.NumSubscriptions() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := srv.NumSubscriptions(); n != 0 {
		t.Errorf("NumSubscriptions = %d after disconnect, want 0", n)
	}
}

func TestClientCloseIdempotentAndFailsAfter(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if _, err := c.Subscribe("a", func(broker.Msg) {}); err == nil {
		t.Error("subscribe after close should error")
	}
	if err := c.Flush(time.Second); err == nil {
		t.Error("flush after close should error")
	}
}

func TestShutdownIdempotent(t *testing.T) {
	srv, _ := startServer(t)
	srv.Shutdown()
	srv.Shutdown()
}

func TestMatch(t *testing.T) {
	tests := []struct {
		subject, pattern string
		want             bool
	}{
		{"a.b.c", "a.b.c", true},
		{"a.b.c", "a.*.c", true},
		{"a.b.c", "a.>", true},
		{"a", "a.>", false}, // '>' needs at least one token
		{"a.b", "a.b.c", false},
		{"a.b.c", "a.b", false},
		{"a.b.c", "*.*.*", true},
		{"a.b.c", ">", true},
		{"a.x.c", "a.b.c", false},
	}
	for _, tt := range tests {
		if got := broker.Match(tt.subject, tt.pattern); got != tt.want {
			t.Errorf("Match(%q, %q) = %v, want %v", tt.subject, tt.pattern, got, tt.want)
		}
	}
}

func TestConcurrentPublishers(t *testing.T) {
	_, addr := startServer(t)
	sub := dial(t, addr)
	var n atomic.Int64
	if _, err := sub.Subscribe("load.>", func(broker.Msg) { n.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if err := sub.Flush(time.Second); err != nil {
		t.Fatal(err)
	}
	const pubs, each = 4, 100
	var wg sync.WaitGroup
	for p := 0; p < pubs; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := broker.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < each; i++ {
				if err := c.Publish(fmt.Sprintf("load.p%d", p), []byte("x")); err != nil {
					t.Error(err)
					return
				}
			}
			if err := c.Flush(2 * time.Second); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(3 * time.Second)
	for n.Load() < pubs*each && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n.Load() != pubs*each {
		t.Errorf("received %d, want %d", n.Load(), pubs*each)
	}
}
