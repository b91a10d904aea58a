package broker_test

import (
	"encoding/binary"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"adamant/internal/broker"
)

// TestPerClientFIFOOrder pins the ordering contract of the writer path:
// everything routed to one client leaves in exactly enqueue order, even
// though delivery now goes through a queue and a separate goroutine.
func TestPerClientFIFOOrder(t *testing.T) {
	_, addr := startServer(t)
	pub := dial(t, addr)
	sub := dial(t, addr)

	const total = 2000
	done := make(chan int, 1)
	next := 0
	if _, err := sub.Subscribe("seq.>", func(m broker.Msg) {
		got, err := strconv.Atoi(string(m.Data))
		if err != nil || got != next {
			t.Errorf("delivery %d carried seq %q (err %v): FIFO order broken", next, m.Data, err)
			done <- next
			return
		}
		next++
		if next == total {
			done <- next
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := sub.Flush(time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		// Alternate subjects so the messages traverse both the cache-hit
		// and multi-entry trie paths while still targeting one client.
		subj := "seq.even"
		if i%2 == 1 {
			subj = "seq.odd"
		}
		if err := pub.Publish(subj, []byte(strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case n := <-done:
		if n != total {
			t.Fatalf("stopped after %d of %d", n, total)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out with %d of %d delivered in order", next, total)
	}
}

// TestSeededQueueGroupReproducible pins the satellite: with WithSeed,
// queue-group member picks are identical across independent servers.
func TestSeededQueueGroupReproducible(t *testing.T) {
	assign := func(seed int64) []int {
		srv := broker.NewServer(broker.WithSeed(seed))
		if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer srv.Shutdown()
		addr := srv.Addr().String()

		const members, total = 3, 60
		var mu sync.Mutex
		byseq := make([]int, total)
		delivered := 0
		allDone := make(chan struct{})
		var clients []*broker.Client
		for m := 0; m < members; m++ {
			m := m
			c, err := broker.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			clients = append(clients, c)
			if _, err := c.QueueSubscribe("jobs.x", "grp", func(msg broker.Msg) {
				seq, _ := strconv.Atoi(string(msg.Data))
				mu.Lock()
				byseq[seq] = m
				delivered++
				if delivered == total {
					close(allDone)
				}
				mu.Unlock()
			}); err != nil {
				t.Fatal(err)
			}
			// Flush before subscribing the next member so insertion
			// order (and thus rng pick order) is deterministic.
			if err := c.Flush(time.Second); err != nil {
				t.Fatal(err)
			}
		}
		pub, err := broker.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer pub.Close()
		for i := 0; i < total; i++ {
			if err := pub.Publish("jobs.x", []byte(strconv.Itoa(i))); err != nil {
				t.Fatal(err)
			}
		}
		select {
		case <-allDone:
		case <-time.After(5 * time.Second):
			t.Fatalf("delivered %d of %d", delivered, total)
		}
		return byseq
	}

	a := assign(42)
	b := assign(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seq %d went to member %d in run 1 but %d in run 2: seeded pick order not reproducible", i, a[i], b[i])
		}
	}
	// A different seed should (overwhelmingly) give a different order;
	// if not, the seed isn't reaching the rng at all.
	c := assign(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seed 42 and 43 produced identical pick sequences")
	}
}

// TestPublishZeroAlloc pins the client-side publish path at zero
// allocations per message once the two send buffers have warmed up.
func TestPublishZeroAlloc(t *testing.T) {
	// net.Pipe with a discarding peer isolates the client's own
	// allocations from server-side work.
	client, peer := net.Pipe()
	go func() {
		buf := make([]byte, 64*1024)
		for {
			if _, err := peer.Read(buf); err != nil {
				return
			}
		}
	}()
	c, err := broker.NewClient(client)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	payload := make([]byte, 512)
	binary.LittleEndian.PutUint64(payload, 12345)
	// Warm the send buffers: the pipe is slower than Publish, so they grow
	// until the publisher meets the high-water mark.
	for i := 0; i < 5000; i++ {
		if err := c.Publish("bench.alloc", payload); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.Publish("bench.alloc", payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("Publish allocates %.2f per message, want 0", allocs)
	}
}
