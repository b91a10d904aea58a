package broker

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"testing"
	"time"
)

// TestFanout100kSubscribers is the broker at the group size nothing else
// in the repository reaches: 100 000 sids on one subject, multiplexed over
// 16 raw connections. Every sid must receive every publish exactly once
// and in publish order, and the server's counters must account for each
// delivery. No timing and no threshold; the queue bounds are sized so that
// nothing may drop.
func TestFanout100kSubscribers(t *testing.T) {
	if testing.Short() {
		t.Skip("100k subscriptions; skipped in -short")
	}
	if raceEnabled {
		t.Skip("a group-size check, not a concurrency one; skipped under the race detector")
	}
	const (
		subs     = 100_000
		conns    = 16
		perConn  = subs / conns
		messages = 5
	)
	srv := NewServer(WithSeed(1),
		WithWriteQueue(messages*perConn, 256<<20),
		WithSlowConsumerPolicy(SlowConsumerDrop))
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	addr := srv.Addr().String()

	dial := func() (net.Conn, *bufio.Reader) {
		t.Helper()
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetDeadline(time.Now().Add(2 * time.Minute))
		return conn, bufio.NewReaderSize(conn, 256<<10)
	}
	// ping is the barrier: the server has processed everything written on
	// conn before it, and the PONG is queued behind every MSG staged so far.
	ping := func(conn net.Conn, r *bufio.Reader) {
		t.Helper()
		mustWrite(t, conn, "PING\r\n")
		if line, err := readLineSlice(r); err != nil || string(line) != "PONG" {
			t.Fatalf("after PING: line %q, err %v", line, err)
		}
	}

	// Sid j rides connection j % conns.
	subConns := make([]net.Conn, conns)
	readers := make([]*bufio.Reader, conns)
	for i := range subConns {
		subConns[i], readers[i] = dial()
		w := bufio.NewWriterSize(subConns[i], 64<<10)
		for sid := i; sid < subs; sid += conns {
			w.WriteString("SUB scale.bcast " + strconv.Itoa(sid) + "\r\n")
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		ping(subConns[i], readers[i])
	}
	if n := srv.NumSubscriptions(); n != subs {
		t.Fatalf("NumSubscriptions = %d, want %d", n, subs)
	}

	// next[sid] is the publish index sid must see next; connection i's
	// reader is the only one that touches the sids it carries.
	next := make([]int, subs)
	errc := make(chan error, conns)
	for i := range subConns {
		go func() {
			errc <- readFanout(readers[i], i, conns, perConn*messages, next)
		}()
	}

	pub, pubR := dial()
	for k := 0; k < messages; k++ {
		p := strconv.Itoa(k)
		mustWrite(t, pub, "PUB scale.bcast "+strconv.Itoa(len(p))+"\r\n"+p+"\r\n")
	}
	ping(pub, pubR)
	// Every delivery is queued by now, so on each subscriber connection a
	// PONG must be the line right after its last expected MSG: a duplicate
	// would sit in front of it.
	for _, conn := range subConns {
		mustWrite(t, conn, "PING\r\n")
	}
	for range subConns {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}

	st := srv.Stats()
	if st.MsgsIn != messages || st.SlowConsumerDrops != 0 ||
		st.MsgsOut+st.SlowConsumerDrops != st.MsgsIn*subs {
		t.Fatalf("MsgsIn %d, MsgsOut %d, SlowConsumerDrops %d; want %d, %d, 0",
			st.MsgsIn, st.MsgsOut, st.SlowConsumerDrops, messages, messages*subs)
	}
}

// readFanout reads want MSG frames from connection i of conns, checks each
// against next (the sid belongs to this connection, the payload is the
// publish index that sid is due), and then requires a PONG.
func readFanout(r *bufio.Reader, i, conns, want int, next []int) error {
	var fields [4][]byte
	var payload [8]byte
	for got := 0; got < want; got++ {
		line, err := readLineSlice(r)
		if err != nil {
			return fmt.Errorf("conn %d after %d of %d deliveries: %v", i, got, want, err)
		}
		f := splitFields(line, fields[:0])
		if len(f) != 4 || string(f[0]) != "MSG" || string(f[1]) != "scale.bcast" {
			return fmt.Errorf("conn %d after %d of %d deliveries: line %q", i, got, want, line)
		}
		sid, err := strconv.Atoi(string(f[2]))
		if err != nil || sid < 0 || sid >= len(next) || sid%conns != i {
			return fmt.Errorf("conn %d: sid %q is not one of its subscriptions", i, f[2])
		}
		n, ok := parseSize(f[3])
		if !ok || n > len(payload) {
			return fmt.Errorf("conn %d sid %d: payload size %q", i, sid, f[3])
		}
		if _, err := io.ReadFull(r, payload[:n]); err != nil {
			return fmt.Errorf("conn %d sid %d: %v", i, sid, err)
		}
		if err := consumeCRLF(r); err != nil {
			return fmt.Errorf("conn %d sid %d: %v", i, sid, err)
		}
		if k, err := strconv.Atoi(string(payload[:n])); err != nil || k != next[sid] {
			return fmt.Errorf("conn %d sid %d: got publish %q, want %d", i, sid, payload[:n], next[sid])
		}
		next[sid]++
	}
	if line, err := readLineSlice(r); err != nil || string(line) != "PONG" {
		return fmt.Errorf("conn %d after its %d deliveries: line %q, err %v", i, want, line, err)
	}
	return nil
}
