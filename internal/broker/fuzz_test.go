package broker

import (
	"bytes"
	"net"
	"testing"
	"time"
)

// FuzzMatch asserts subject matching is total and that exact subjects
// always match themselves when valid.
func FuzzMatch(f *testing.F) {
	f.Add("a.b.c", "a.*.c")
	f.Add("x", ">")
	f.Add("", "")
	f.Fuzz(func(t *testing.T, subject, pattern string) {
		_ = Match(subject, pattern) // must not panic
		if ValidateSubject(subject) == nil && !Match(subject, subject) {
			t.Fatalf("valid subject %q does not match itself", subject)
		}
	})
}

// FuzzServerCommand feeds arbitrary bytes to a live server's control-line
// parser over an in-memory connection: SUB/UNSUB/PUB/PING framing,
// oversize and truncated payloads, interleaved garbage. The server must
// neither panic nor wedge — every iteration has to reach clean teardown.
func FuzzServerCommand(f *testing.F) {
	f.Add([]byte("CONNECT x\r\nSUB a.b 1\r\nPUB a.b 2\r\nhi\r\nPING\r\n"))
	f.Add([]byte("SUB jobs.* workers 7\r\nPUB jobs.detect 9\r\npayload-x\r\nUNSUB 7\r\n"))
	f.Add([]byte("PUB a 1048577\r\n"))                 // oversize payload
	f.Add([]byte("PUB a notanumber\r\n"))              // unframeable size
	f.Add([]byte("PUB a 10\r\nshort"))                 // truncated payload
	f.Add([]byte("PUB wild.* 2\r\nhi\r\n"))            // wildcard publish
	f.Add([]byte("SUB a.>.b 1\r\nUNSUB\r\nBOGUS\r\n")) // bad pattern + arity
	f.Add([]byte("pub a 1\r\nx\r\nping\r\n"))          // lower-case commands
	f.Add([]byte("\r\n\r\n  \t \r\nPING\r\n"))
	f.Add([]byte("PUB a 3\r\nxy"))
	// Batched-ingest framing (PR 9): multiple pipelined PUBs in one
	// segment, batches split by interleaved control commands, a zero-byte
	// payload inside a batch, and a batch whose tail is truncated
	// mid-payload (flush-before-blocking path).
	f.Add([]byte("SUB b 1\r\nPUB b 2\r\nhi\r\nPUB b 3\r\nabc\r\nPUB b 0\r\n\r\nPING\r\n"))
	f.Add([]byte("PUB a 1\r\nx\r\nPUB a 1\r\ny\r\nSUB a 9\r\nPUB a 1\r\nz\r\nUNSUB 9\r\n"))
	f.Add([]byte("PUB a 1\r\nx\r\nPUB a 5\r\nab"))
	f.Add([]byte("PUB a 2\r\nok\r\nPUB .bad. 1\r\nq\r\nPUB a 2\r\nok\r\n"))
	f.Add(append(append([]byte("PUB big 2000\r\n"), bytes.Repeat([]byte{'z'}, 2000)...), []byte("\r\nPUB a 1\r\nw\r\nPING\r\n")...))
	f.Add(append([]byte("PING\r\n"), bytes.Repeat([]byte{'A'}, maxControlLine+100)...)) // control line past the bound
	f.Fuzz(func(t *testing.T, data []byte) {
		srv := NewServer(WithSeed(1), WithShards(2), WithWriteQueue(64, 1<<20))
		defer srv.Shutdown()
		server, client := net.Pipe()
		if srv.startClient(server) == nil {
			t.Fatal("startClient refused pipe")
		}
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			buf := make([]byte, 4096)
			for {
				if _, err := client.Read(buf); err != nil {
					return
				}
			}
		}()
		// The server may stop reading mid-write (it drops the connection
		// on unframeable input); the deadline keeps the pipe write from
		// wedging the fuzzer.
		client.SetWriteDeadline(time.Now().Add(2 * time.Second))
		_, _ = client.Write(data)
		client.Close()
		select {
		case <-drained:
		case <-time.After(5 * time.Second):
			t.Fatal("server never closed the connection")
		}
	})
}

// FuzzRouteCommand feeds arbitrary bytes to the inter-broker protocol
// parser: a connection that upgrades via ROUTE and then speaks
// RS+/RS-/RMSG/RINFO/PING, including malformed handshakes, truncated
// origin-tagged payloads, self-origin frames (dedup suppression), and
// interest churn. The server must neither panic nor wedge, and teardown
// must withdraw whatever interest the fuzzed peer installed.
func FuzzRouteCommand(f *testing.F) {
	f.Add([]byte("ROUTE peer1 -\r\nRS+ a.b\r\nRMSG a.b peer1 2\r\nhi\r\nRS- a.b\r\nPING\r\n"))
	f.Add([]byte("ROUTE peer1 127.0.0.1:0\r\nRINFO peer2 127.0.0.1:1\r\nPONG\r\n"))
	f.Add([]byte("ROUTE fuzz -\r\nRS+ jobs.* workers\r\nRMSG jobs.x fuzz 3 workers\r\nabc\r\n"))
	f.Add([]byte("ROUTE fuzz -\r\nRMSG a fuzz notanumber\r\n"))                            // unframeable size
	f.Add([]byte("ROUTE fuzz -\r\nRMSG a fuzz 10\r\nshort"))                               // truncated payload
	f.Add([]byte("ROUTE fuzz -\r\nRMSG .bad. fuzz 1\r\nq\r\nPING\r\n"))                    // invalid subject
	f.Add([]byte("ROUTE srv-under-test -\r\nRMSG a srv-under-test 1\r\nx\r\n"))            // self-origin echo
	f.Add([]byte("ROUTE fuzz -\r\nROUTE fuzz2 -\r\nRS+ a\r\nRS+ a\r\nRS- a\r\nRS- a\r\n")) // dup handshake + idempotence
	f.Add([]byte("ROUTE\r\n"))                                                             // malformed handshake
	f.Add([]byte("SUB a 1\r\nROUTE fuzz -\r\nRS+ a\r\n"))                                  // client subs then upgrade
	f.Add([]byte("route fuzz -\r\nrs+ a.>\r\nrmsg a.x fuzz 0\r\n\r\nBOGUS\r\n"))
	f.Add([]byte("ROUTE fuzz -\r\nRS+ a..b\r\nRS+\r\nRMSG a fuzz\r\n")) // bad pattern + arity
	// Batched route ingest: pipelined RMSGs in one segment with queue
	// names, a self-origin echo and an invalid subject inside the batch, a
	// batch split by an interest line, and a tail truncated mid-payload.
	f.Add([]byte("ROUTE fuzz -\r\nRMSG a fuzz 1\r\nx\r\nRMSG a fuzz 2 q1 q2\r\nyy\r\nRMSG b srv-under-test 1\r\nz\r\nRMSG .bad fuzz 1\r\nw\r\nRMSG a fuzz 0\r\n\r\nRS+ a\r\nRMSG a fuzz 1 q1\r\nv\r\nRMSG a fuzz 5\r\nab"))
	f.Fuzz(func(t *testing.T, data []byte) {
		srv := NewServer(WithSeed(1), WithShards(2), WithWriteQueue(64, 1<<20),
			WithServerID("srv-under-test"))
		defer srv.Shutdown()
		server, client := net.Pipe()
		if srv.startClient(server) == nil {
			t.Fatal("startClient refused pipe")
		}
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			buf := make([]byte, 4096)
			for {
				if _, err := client.Read(buf); err != nil {
					return
				}
			}
		}()
		client.SetWriteDeadline(time.Now().Add(2 * time.Second))
		_, _ = client.Write(data)
		client.Close()
		select {
		case <-drained:
		case <-time.After(5 * time.Second):
			t.Fatal("server never closed the route connection")
		}
		// Teardown must leave no trace of the fuzzed peer: its interest
		// withdrawn and the route deregistered.
		deadline := time.Now().Add(5 * time.Second)
		for {
			st := srv.Stats()
			if st.Routes == 0 && st.RemoteSubs == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("fuzzed route left state behind: %d routes, %d remote subs",
					st.Routes, st.RemoteSubs)
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// FuzzClientRead feeds arbitrary bytes to the client's slab reader as the
// broker's side of the stream. The client must neither panic nor wedge,
// and how the bytes are cut into reads must not show: whole-buffer and
// 3-byte reads have to produce the same deliveries and end the connection
// the same way.
func FuzzClientRead(f *testing.F) {
	f.Add([]byte("MSG a.b 1 5\r\nhello\r\nPONG\r\nMSG a.c 2 0\n\nMSG x 9 3\r\nabc\r\n"))
	f.Add([]byte("MSG a 1\r\nPING\r\n"))           // header without a size
	f.Add([]byte("MSG a 1 notanumber\r\n"))        // unframeable size
	f.Add([]byte("MSG a 1 1048577\r\n"))           // oversize payload
	f.Add([]byte("MSG a 1 10\r\nshort"))           // truncated payload
	f.Add([]byte("MSG a 1 2\r\nhiXX\r\n"))         // payload without its CRLF
	f.Add([]byte("MSG a 1 2\r\nhi\rX"))            // CR without LF
	f.Add([]byte("-ERR nope\r\n\r\n \t \r\nPONG")) // no final terminator
	f.Add(bytes.Repeat([]byte{'A'}, maxControlLine+100))
	f.Add(append(msgFrame("big", "2", bytes.Repeat([]byte{'z'}, 70000), "\r\n"), "MSG a 1 1\r\nw\r\n"...))
	// dispatch runs on the fuzzing goroutine, so coverage is a function of
	// the input alone.
	dispatch := func(data []byte, chunk func(int) int) (got []recvd, err error) {
		conn := newScriptConn(data, chunk)
		close(conn.start)
		c := &Client{conn: conn, subs: make(map[string]*Subscription)}
		for _, sid := range []string{"1", "2"} {
			sid := sid
			c.subs[sid] = &Subscription{handler: func(m Msg) {
				got = append(got, recvd{m.Subject, sid, string(m.Data)})
			}}
		}
		return got, c.dispatch()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		whole, wholeErr := dispatch(data, nil)
		cut, cutErr := dispatch(data, func(int) int { return 3 })
		if len(whole) != len(cut) {
			t.Fatalf("%d deliveries from whole-buffer reads, %d from 3-byte reads", len(whole), len(cut))
		}
		for i := range whole {
			if whole[i] != cut[i] {
				t.Fatalf("delivery %d differs between read chunkings", i)
			}
		}
		if wholeErr == nil || cutErr == nil || wholeErr.Error() != cutErr.Error() {
			t.Fatalf("connection ended with %v on whole-buffer reads, %v on 3-byte reads", wholeErr, cutErr)
		}
	})
}

// FuzzValidatePattern asserts validation is total and consistent: every
// valid publish subject is also a valid subscription pattern.
func FuzzValidatePattern(f *testing.F) {
	f.Add("a.b")
	f.Add("a.>")
	f.Add("*.*")
	f.Fuzz(func(t *testing.T, s string) {
		subErr := ValidateSubject(s)
		patErr := ValidatePattern(s)
		if subErr == nil && patErr != nil {
			t.Fatalf("%q is a valid subject but invalid pattern: %v", s, patErr)
		}
	})
}
