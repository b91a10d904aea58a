package broker

import (
	"bufio"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// readLineSlice is the tests' reader of what the broker writes: the next
// CRLF- (or LF-) terminated line without its terminator, borrowing r's
// buffer until the next read.
func readLineSlice(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	line = line[:len(line)-1]
	if len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	return line, nil
}

// consumeCRLF reads the terminator after a payload.
func consumeCRLF(r *bufio.Reader) error {
	b, err := r.ReadByte()
	if err == nil && b == '\r' {
		b, err = r.ReadByte()
	}
	if err == nil && b != '\n' {
		err = errors.New("payload not terminated by CRLF")
	}
	return err
}

// coreConn returns a connection of s that exists only as its protocol
// core: no socket, no driver, no writer. Its replies stay on its queue
// (drainCore).
func coreConn(s *Server) *serverClient {
	c := &serverClient{srv: s, subs: make(map[string][]*serverSub)}
	c.link.init(nil, s.opts.queueFrames, s.opts.queueBytes, s.adm)
	return c
}

// drainCore empties c's queue the way the writer does and returns the
// bytes the writer would have sent.
func drainCore(c *serverClient) string {
	var out []byte
	var frames []outFrame
	for c.out.pending() {
		frames, _ = c.out.take(frames[:0], maxDrainFrames)
		for i := range frames {
			out = frames[i].appendHeader(out)
			if pb := frames[i].pb; pb != nil {
				out = append(append(out, pb.data...), crlf...)
			}
		}
		if n := freeFrames(frames); c.out.gauge != nil {
			c.out.gauge.done(n)
		}
	}
	return string(out)
}

// coreTranscript runs one transcript case through the protocol core
// alone: the script is fed in the given pieces, and a connection the core
// drops is torn down as its driver would tear it down. It returns what the
// connection and the observer were sent and whether the connection was
// kept. The broker is TestProtocolTranscript's.
func coreTranscript(t *testing.T, tc transcriptCase, pieces ...[]byte) (got, observed string, kept bool) {
	t.Helper()
	s := NewServer(WithSeed(1), WithServerID(transcriptID), WithRouteHeartbeat(time.Hour, time.Hour))
	var obs *serverClient
	if tc.observer != "" {
		obs = coreConn(s)
		if !obs.feed(0, []byte(tc.observer)) || drainCore(obs) != "" {
			t.Fatalf("observer set-up failed")
		}
	}
	c := coreConn(s)
	if tc.dialed {
		// As dialRoute does it: a route from the first byte, our hello sent.
		c.rt = s.newRoute(&c.link, true, 0)
		c.sendLine("ROUTE " + s.id + " " + s.opts.clusterAddr)
		if hello := drainCore(c); hello != "ROUTE "+transcriptID+" -\r\n" {
			t.Fatalf("hello %q", hello)
		}
	}
	kept = true
	for _, p := range pieces {
		if kept = c.feed(0, p); !kept {
			c.teardown()
			break
		}
	}
	got = drainCore(c)
	if obs != nil {
		observed = drainCore(obs)
	}
	return got, observed, kept
}

// TestProtocolTranscriptCore replays the protocol transcript straight
// through the core, with no socket and no goroutine, once whole and once
// cut at every split point: the replies, what the observer receives, and
// the drop-or-keep decision must be the transcript's in every case.
func TestProtocolTranscriptCore(t *testing.T) {
	for _, tc := range transcriptCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			script := []byte(tc.script)
			check := func(cut int, pieces ...[]byte) {
				got, observed, kept := coreTranscript(t, tc, pieces...)
				if got != tc.want || kept != tc.survives || observed != tc.observed {
					t.Fatalf("cut at %d: got %q, kept %v, observer %q\nwant %q, kept %v, observer %q",
						cut, got, kept, observed, tc.want, tc.survives, tc.observed)
				}
			}
			check(-1, script)
			for k := 1; k < len(script); k++ {
				check(k, script[:k], script[k:])
			}
		})
	}
}

// steppedClock makes s's clock one that reads start until the test moves
// it. It is installed before s has a connection.
func steppedClock(s *Server, start int64) *atomic.Int64 {
	clk := new(atomic.Int64)
	clk.Store(start)
	s.now = clk.Load
	return clk
}

// TestRouteSilentPastSuspectTornDown: a route that stays connected but
// goes silent is torn down by the heartbeat check on the first check with
// now > lastRecv + suspect, and not on the check before it; its interest
// leaves the trie with it. The clock is stepped, not slept on.
func TestRouteSilentPastSuspectTornDown(t *testing.T) {
	const suspect = int64(2 * time.Second)
	srv := NewServer(WithSeed(1), WithServerID("self"), WithRouteHeartbeat(time.Hour, time.Duration(suspect)))
	defer srv.Shutdown()
	const t0 = int64(time.Hour)
	clk := steppedClock(srv, t0)

	peer := pipeClient(t, srv)
	peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(peer)
	expect := func(want string) {
		t.Helper()
		if line, err := readLineSlice(r); err != nil || string(line) != want {
			t.Fatalf("peer read %q, %v; want %q", line, err, want)
		}
	}
	// Every byte the peer sends arrives at t0: lastRecv is t0.
	mustWrite(t, peer, "ROUTE peer -\r\nRS+ a.>\r\nPING\r\n")
	expect("ROUTE self -")
	expect("PONG")
	if st := srv.Stats(); st.Routes != 1 || st.RemoteSubs != 1 {
		t.Fatalf("Routes = %d, RemoteSubs = %d after the handshake, want 1 and 1", st.Routes, st.RemoteSubs)
	}

	clk.Store(t0 + suspect) // silent for exactly the bound: still alive
	srv.checkRoutes(srv.now())
	expect("PING")
	if st := srv.Stats(); st.Routes != 1 || st.RemoteSubs != 1 {
		t.Fatalf("Routes = %d, RemoteSubs = %d at lastRecv + suspect, want 1 and 1", st.Routes, st.RemoteSubs)
	}

	clk.Store(t0 + suspect + 1)
	srv.checkRoutes(srv.now())
	if line, err := readLineSlice(r); err == nil {
		t.Fatalf("route past the suspect bound still open; it sent %q", line)
	}
	// The check closed the connection; the route's reader tears it down.
	deadline := time.Now().Add(5 * time.Second)
	for st := srv.Stats(); st.Routes != 0 || st.RemoteSubs != 0; st = srv.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("Routes = %d, RemoteSubs = %d after the route was closed, want 0 and 0", st.Routes, st.RemoteSubs)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRedialBackoffSteppedClock: a route dialer's next dial is due
// backoff after its last attempt ended, not a nanosecond before, with the
// backoff doubling from 50 ms up to a cap of 2 s over failed dials. A route
// that registered starts it over; a lost tie-break parks it at the cap.
func TestRedialBackoffSteppedClock(t *testing.T) {
	var d redial
	now := int64(time.Hour)
	if !d.due(now) {
		t.Fatal("the first dial is not due at once")
	}
	attempt := func(r *route, want time.Duration) {
		t.Helper()
		d.ended(now, r)
		if next := now + int64(want); d.due(next-1) || !d.due(next) {
			t.Fatalf("dial due %v after the attempt, want %v", time.Duration(d.at-now), want)
		}
		now += int64(want)
	}
	const ms = time.Millisecond
	for _, want := range []time.Duration{50 * ms, 100 * ms, 200 * ms, 400 * ms, 800 * ms, 1600 * ms, 2000 * ms, 2000 * ms} {
		attempt(nil, want)
	}
	attempt(&route{registered: true}, 50*ms)
	attempt(nil, 100*ms)
	attempt(&route{}, 200*ms) // connected, never registered: a failed attempt
	attempt(&route{dupLost: true}, 2000*ms)
	attempt(nil, 2000*ms)
}
