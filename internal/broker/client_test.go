package broker

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The client battery pins both halves of the client data path: the
// coalescing flusher (wire byte-identity, few writes per burst, Close
// delivers what Publish accepted, back-pressure and the sticky error) and
// the slab reader (identical framing under any read chunking, retained
// payloads never overwritten, bounded control line, malformed MSG headers
// fail the connection, allocation budget per message).

// scriptConn is an in-memory net.Conn for driving a Client without a
// broker. Reads serve a fixed inbound script, at most chunk(remaining)
// bytes per call, starting once start is closed (so the test can subscribe
// first) and ending in io.EOF. Writes are counted and kept; writeCost, when
// set, is how long each Write keeps its goroutine busy, as a socket write
// would.
type scriptConn struct {
	net.Conn // nil: only the methods below are called

	start chan struct{}
	in    []byte
	chunk func(remaining int) int

	writeCost time.Duration
	wmu       sync.Mutex
	writes    int
	written   bytes.Buffer
}

func newScriptConn(in []byte, chunk func(int) int) *scriptConn {
	return &scriptConn{start: make(chan struct{}), in: in, chunk: chunk}
}

func (s *scriptConn) Read(p []byte) (int, error) {
	<-s.start
	if len(s.in) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), len(s.in))
	if s.chunk != nil {
		n = min(n, max(1, s.chunk(len(s.in))))
	}
	copy(p, s.in[:n])
	s.in = s.in[n:]
	return n, nil
}

func (s *scriptConn) Write(p []byte) (int, error) {
	for t0 := time.Now(); time.Since(t0) < s.writeCost; {
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.writes++
	s.written.Write(p)
	return len(p), nil
}

func (s *scriptConn) Close() error                     { return nil }
func (s *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// recvd is one handler invocation as the tests compare it.
type recvd struct {
	subject, sid, data string
}

// runScript feeds in to a fresh client with two subscriptions (sids 1 and
// 2) and returns what their handlers saw, every Msg.Data as it stood after
// the connection ended, and the error the connection ended with.
func runScript(t testing.TB, in []byte, chunk func(int) int) ([]recvd, error) {
	t.Helper()
	conn := newScriptConn(in, chunk)
	c, err := NewClient(conn)
	if err != nil {
		t.Fatal(err)
	}
	type kept struct {
		subject, sid string
		data         []byte
	}
	var got []kept
	for _, sid := range []string{"1", "2"} {
		sid := sid
		if _, err := c.Subscribe(">", func(m Msg) {
			got = append(got, kept{m.Subject, sid, m.Data})
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(conn.start)
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		t.Fatal("client never finished the script")
	}
	endErr := c.Flush(time.Second)
	c.Close()
	out := make([]recvd, len(got))
	for i, k := range got {
		out[i] = recvd{k.subject, k.sid, string(k.data)}
	}
	return out, endErr
}

func msgFrame(subject, sid string, payload []byte, term string) []byte {
	b := []byte("MSG " + subject + " " + sid + " " + strconv.Itoa(len(payload)) + term)
	b = append(b, payload...)
	return append(b, term...)
}

// TestClientReadChunkings feeds one scripted stream, built to cross every
// boundary the slab reader has, in 1-byte, seeded-random and whole-buffer
// reads: the delivered (subject, sid, data) sequence must be the same, and
// every kept Msg.Data must still hold its bytes once the stream has ended.
func TestClientReadChunkings(t *testing.T) {
	var in []byte
	var want []recvd
	add := func(subject, sid string, payload []byte, term string) {
		in = append(in, msgFrame(subject, sid, payload, term)...)
		if sid == "1" || sid == "2" {
			want = append(want, recvd{subject, sid, string(payload)})
		}
	}
	add("a.b", "1", []byte("hello"), "\r\n")
	add("a.c", "2", []byte("bare-lf"), "\n")
	in = append(in, "PONG\r\n\r\n  \r\n"...)
	add("a.empty", "1", nil, "\r\n")
	add("a.empty", "2", nil, "\n")
	add("a.unknown", "9", scriptPayload(1, 300), "\r\n")
	add("a.max", "1", scriptPayload(2, MaxPayload), "\r\n") // larger than a slab
	in = append(in, "-ERR something\r\nPONG\n"...)
	add("a.after", "2", scriptPayload(3, 70000), "\r\n")
	// Enough mixed frames to cross several slab boundaries wherever the
	// chunking puts them.
	sizes := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		add("mix."+strconv.Itoa(i), strconv.Itoa(1+i%3), scriptPayload(i, sizes.Intn(20000)), []string{"\r\n", "\n"}[i%2])
	}
	add("a.last", "1", []byte("bye"), "\r\n")

	rng := rand.New(rand.NewSource(20100612))
	chunkings := []struct {
		name  string
		chunk func(int) int
	}{
		{"whole", nil},
		{"random", func(int) int { return 1 + rng.Intn(9000) }},
		{"byte", func(int) int { return 1 }},
	}
	for _, ch := range chunkings {
		t.Run(ch.name, func(t *testing.T) {
			got, err := runScript(t, in, ch.chunk)
			if !errors.Is(err, io.EOF) {
				t.Errorf("stream ended with %v, want EOF", err)
			}
			if len(got) != len(want) {
				t.Fatalf("delivered %d messages, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("message %d: got (%s, %s, %d bytes), want (%s, %s, %d bytes)", i,
						got[i].subject, got[i].sid, len(got[i].data), want[i].subject, want[i].sid, len(want[i].data))
				}
			}
		})
	}
}

// TestClientSlabBoundary sweeps the end of a frame across the end of the
// first slab, one byte at a time: the payload's last bytes, its CR, its LF
// and the next header each land on the boundary in turn.
func TestClientSlabBoundary(t *testing.T) {
	for n := slabSize - 48; n <= slabSize+4; n++ {
		p := scriptPayload(n, n)
		in := msgFrame("edge", "1", p, "\r\n")
		in = append(in, msgFrame("next", "2", []byte("after the boundary"), "\r\n")...)
		in = append(in, msgFrame("bare", "1", p[:100], "\n")...)
		want := []recvd{{"edge", "1", string(p)}, {"next", "2", "after the boundary"}, {"bare", "1", string(p[:100])}}
		for _, chunk := range []func(int) int{nil, func(int) int { return 4099 }} {
			got, _ := runScript(t, in, chunk)
			if len(got) != len(want) {
				t.Fatalf("payload %d: delivered %d messages, want %d", n, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("payload %d: message %d (%s) differs", n, i, want[i].subject)
				}
			}
		}
	}
}

// TestClientRetainsData keeps the Data of 10 000 messages and checks every
// one after the last has arrived: a slab that has lent a payload is never
// written again below it.
func TestClientRetainsData(t *testing.T) {
	const n = 10000
	rng := rand.New(rand.NewSource(1))
	var in []byte
	want := make([]recvd, n)
	for i := range want {
		p := scriptPayload(i, rng.Intn(3000))
		want[i] = recvd{"keep." + strconv.Itoa(i%7), strconv.Itoa(1 + i%2), string(p)}
		in = append(in, msgFrame(want[i].subject, want[i].sid, p, "\r\n")...)
	}
	got, _ := runScript(t, in, func(int) int { return 1 + rng.Intn(100000) })
	if len(got) != n {
		t.Fatalf("delivered %d messages, want %d", len(got), n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("message %d changed after delivery", i)
		}
	}
}

// TestClientDataCapacity pins that a handler appending to Msg.Data cannot
// reach the bytes of the next frame.
func TestClientDataCapacity(t *testing.T) {
	in := append(msgFrame("a", "1", []byte("one"), "\r\n"), msgFrame("a", "1", []byte("two"), "\r\n")...)
	conn := newScriptConn(in, nil)
	c, err := NewClient(conn)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	if _, err := c.Subscribe("a", func(m Msg) {
		if cap(m.Data) != len(m.Data) {
			t.Errorf("cap(Data) = %d, len %d", cap(m.Data), len(m.Data))
		}
		got = append(got, string(append(m.Data, "XXXXXXXXXXXXXXXX"...)[:len(m.Data)]))
	}); err != nil {
		t.Fatal(err)
	}
	close(conn.start)
	<-c.done
	c.Close()
	if len(got) != 2 || got[0] != "one" || got[1] != "two" {
		t.Errorf("got %q", got)
	}
}

// TestClientFailsOnUnframeableInput: input that leaves no way to find the
// next command must fail the connection with a protocol error that Flush
// reports, and must not run the bytes that follow as commands.
func TestClientFailsOnUnframeableInput(t *testing.T) {
	tail := string(msgFrame("a", "1", []byte("must not arrive"), "\r\n"))
	cases := []struct {
		name, in string
		want     error
	}{
		{"three fields", "MSG a 15\r\n" + tail, errBadMsgHeader},
		{"five fields", "MSG a 1 2 15\r\n" + tail, errBadMsgHeader},
		{"size not a number", "MSG a 1 x5\r\n" + tail, errBadMsgHeader},
		{"size negative", "MSG a 1 -1\r\n" + tail, errBadMsgHeader},
		{"size over max", "MSG a 1 1048577\r\n" + tail, errBadMsgHeader},
		{"payload unterminated", "MSG a 1 3\r\nabcde\r\n" + tail, errBadPayload},
		{"payload CR without LF", "MSG a 1 3\r\nabc\rX\r\n" + tail, errBadPayload},
		{"line without end", strings.Repeat("A", maxControlLine) + "\r\n" + tail, errLineTooLong},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, chunk := range []func(int) int{nil, func(int) int { return 7 }} {
				got, err := runScript(t, []byte(tc.in), chunk)
				if !errors.Is(err, tc.want) {
					t.Errorf("Flush = %v, want %v", err, tc.want)
				}
				if len(got) != 0 {
					t.Errorf("handler ran %d times after the stream lost framing", len(got))
				}
			}
		})
	}
	// The longest line inside the bound still parses.
	in := strings.Repeat("A", maxControlLine-2) + "\r\n" + tail
	got, err := runScript(t, []byte(in), nil)
	if !errors.Is(err, io.EOF) || len(got) != 1 {
		t.Errorf("line at the bound: %d messages, ended with %v", len(got), err)
	}
}

// TestServerControlLineBound: a peer that sends a reader buffer's worth of
// bytes with no line terminator gets -ERR and is dropped; the longest line
// inside the bound is an ordinary (unknown) command.
func TestServerControlLineBound(t *testing.T) {
	srv := NewServer(WithSeed(1))
	defer srv.Shutdown()
	for _, routed := range []bool{false, true} {
		conn := pipeClient(t, srv)
		replies := make(chan string, 1)
		go func() {
			b, _ := io.ReadAll(conn)
			replies <- string(b)
		}()
		if routed {
			mustWrite(t, conn, "ROUTE peer -\r\n")
		}
		mustWrite(t, conn, strings.Repeat("A", maxControlLine-2)+"\r\nPING\r\n")
		mustWrite(t, conn, strings.Repeat("B", maxControlLine))
		select {
		case got := <-replies:
			if !strings.Contains(got, "PONG\r\n") {
				t.Errorf("routed=%v: a line inside the bound broke the connection: %q", routed, got)
			}
			if !strings.HasSuffix(got, "-ERR control line too long\r\n") {
				t.Errorf("routed=%v: replies end %q, want the too-long error", routed, got[max(0, len(got)-60):])
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("routed=%v: server kept the connection open", routed)
		}
	}
}

// encodePub is the frame Publish puts on the wire, written out
// independently of the client's encoder.
func encodePub(subject string, data []byte) []byte {
	return []byte(fmt.Sprintf("PUB %s %d\r\n%s\r\n", subject, len(data), data))
}

// TestPublishCoalesces: 1000 back-to-back publishes reach the connection
// in at most 100 writes (each write costs the flusher 20 us here, a
// loopback send; the publisher keeps appending meanwhile), and the bytes
// are exactly the concatenation of the per-call encodings: wire
// byte-identity for the client, as TestWireByteIdentityAcrossDataPlanes is
// for the server.
func TestPublishCoalesces(t *testing.T) {
	conn := newScriptConn(nil, nil)
	conn.writeCost = 20 * time.Microsecond
	c, err := NewClient(conn)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("CONNECT client\r\n")
	sub, err := c.QueueSubscribe("q.*", "workers", func(Msg) {})
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, "SUB q.* workers 1\r\n"...)
	const n = 1000
	subjects := make([]string, n)
	payloads := make([][]byte, n)
	for i := range subjects {
		subjects[i] = "burst." + strconv.Itoa(i%5)
		payloads[i] = scriptPayload(i, []int{0, 1, 128, 700, 4096}[i%5])
		want = append(want, encodePub(subjects[i], payloads[i])...)
	}
	for i := range subjects {
		if err := c.Publish(subjects[i], payloads[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sub.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	want = append(want, "UNSUB 1\r\n"...)
	close(conn.start) // EOF on the read side; Close still writes what was accepted
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(conn.written.Bytes(), want) {
		t.Errorf("wire bytes differ from the per-call encoding (%d bytes written, want %d)", conn.written.Len(), len(want))
	}
	if conn.writes > 100 {
		t.Errorf("%d publishes took %d writes, want at most 100", n, conn.writes)
	}
	t.Logf("%d publishes, %d writes", n, conn.writes)
}

// TestPublishThenCloseDelivers: Close with no Flush before it still
// delivers every message Publish accepted.
func TestPublishThenCloseDelivers(t *testing.T) {
	srv := NewServer(WithSeed(3))
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	addr := srv.Addr().String()
	sub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	const n = 1000
	var got atomic.Int64
	all := make(chan struct{})
	if _, err := sub.Subscribe("tail.>", func(m Msg) {
		if i := got.Add(1); string(m.Data) != strconv.FormatInt(i-1, 10) {
			t.Errorf("message %d carries %q", i-1, m.Data)
		} else if i == n {
			close(all)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := sub.Flush(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	pub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := pub.Publish("tail.x", []byte(strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-all:
	case <-time.After(5 * time.Second):
		t.Fatalf("%d of %d messages arrived after Close", got.Load(), n)
	}
}

// TestPublishBlocksAtHighWater: against a peer that has stopped reading,
// Publish accepts a bounded number of bytes and then blocks; once the
// connection breaks, the blocked call and every later one return the error
// that ended it.
func TestPublishBlocksAtHighWater(t *testing.T) {
	client, peer := net.Pipe() // a pipe write blocks until the peer reads
	c, err := NewClient(client)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := make([]byte, 64<<10)
	var accepted atomic.Int64
	blocked := make(chan error, 1)
	go func() {
		for {
			if err := c.Publish("stall", payload); err != nil {
				blocked <- err
				return
			}
			accepted.Add(1)
		}
	}()
	// One buffer can be with the flusher and one filling; each holds at
	// most the high-water mark plus the frame that crossed it.
	limit := int64(2 * (outHighWater/len(payload) + 1))
	deadline := time.Now().Add(5 * time.Second)
	for accepted.Load() < int64(outHighWater/len(payload)) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d publishes accepted", accepted.Load())
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-blocked:
		t.Fatalf("Publish returned %v while the peer was only stalled", err)
	case <-time.After(100 * time.Millisecond):
	}
	if n := accepted.Load(); n > limit {
		t.Errorf("%d publishes accepted against a stalled peer, want at most %d", n, limit)
	}
	peer.Close()
	var sticky error
	select {
	case sticky = <-blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish still blocked after the connection broke")
	}
	if sticky == nil || errors.Is(sticky, ErrClientClosed) {
		t.Errorf("blocked Publish returned %v, want the connection's error", sticky)
	}
	if err := c.Publish("stall", nil); err != sticky {
		t.Errorf("next Publish = %v, want %v", err, sticky)
	}
	if _, err := c.Subscribe("a", func(Msg) {}); err != sticky {
		t.Errorf("Subscribe = %v, want %v", err, sticky)
	}
	if err := c.Flush(time.Second); err != sticky {
		t.Errorf("Flush = %v, want %v", err, sticky)
	}
}

// TestClientReadAllocs pins the receive path's budget for a 4 KiB
// message: its share of a slab, and nothing per message but the subject
// string (free here: one-byte strings are static). The stream arrives in
// whole-buffer reads, so every slab ends in a part-frame that is copied to
// the next: 63 of these 4112-byte frames complete per 256 KiB slab, 4161
// bytes each, a byte over the payload + 64 the issue asked for.
func TestClientReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on the instrumented paths")
	}
	const size = 4096
	frame := msgFrame("t", "1", scriptPayload(1, size), "\r\n")
	n := 64 * (slabSize / len(frame)) // ends on the last frame a slab completes
	in := bytes.Repeat(frame, n)
	conn := newScriptConn(in, nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before) // the reader allocates its first slab at once
	c, err := NewClient(conn)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	if _, err := c.Subscribe("t", func(m Msg) { got++ }); err != nil {
		t.Fatal(err)
	}
	close(conn.start)
	<-c.done
	runtime.ReadMemStats(&after)
	c.Close()
	if got != n {
		t.Fatalf("delivered %d messages, want %d", got, n)
	}
	allocs := float64(after.Mallocs-before.Mallocs) / float64(n)
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	t.Logf("%.3f allocs and %.0f bytes per %d-byte message", allocs, bytesPer, size)
	if allocs > 1.1 {
		t.Errorf("%.3f allocations per message, want at most 1.1", allocs)
	}
	if bytesPer > size+96 {
		t.Errorf("%.0f bytes allocated per message, want at most %d", bytesPer, size+96)
	}
}
