package broker

import (
	"bytes"
	"strings"
	"testing"
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

// coreRun feeds data to one connection of a fresh broker's protocol core,
// cut in two at split (mod len(data)+1; 0 and len(data) are the whole
// feed), and ends it the way its driver does at EOF. It returns what the
// connection was sent, whether the core kept it to the end, and the
// broker. Queues too large to fill and admission off keep the output a
// function of the input alone.
func coreRun(data []byte, split uint32, opts ...Option) (sent string, kept bool, srv *Server) {
	srv = NewServer(append([]Option{WithSeed(1), WithWriteQueue(1<<30, 1<<40),
		WithPublishAdmission(-1, 0)}, opts...)...)
	c := coreConn(srv)
	k := int(split % uint32(len(data)+1))
	kept = c.feed(0, data[:k]) && c.feed(0, data[k:])
	c.teardown()
	return drainCore(c), kept, srv
}

// fuzzSplit is the property both command fuzzers check: how the bytes are
// cut into reads must not show — the split feed sends the same bytes and
// makes the same drop-or-keep decision as the whole one — and the
// connection's teardown leaves nothing it subscribed behind in the trie.
func fuzzSplit(t *testing.T, data []byte, split uint32, opts ...Option) *Server {
	whole, wholeKept, _ := coreRun(data, 0, opts...)
	cut, cutKept, srv := coreRun(data, split, opts...)
	if whole != cut || wholeKept != cutKept {
		t.Fatalf("cut at %d: sent %q, kept %v; whole: sent %q, kept %v",
			int(split%uint32(len(data)+1)), cut, cutKept, whole, wholeKept)
	}
	if !srv.sl.root.empty() {
		t.Fatalf("teardown left the trie non-empty: %d root children", len(srv.sl.root.next))
	}
	return srv
}

// FuzzServerCommand feeds arbitrary bytes, cut at an arbitrary point, to
// a client connection's protocol core: SUB/UNSUB/PUB/PING framing,
// oversize and truncated payloads, interleaved garbage. The core must not
// panic, and the cut must not change what it sends or whether it keeps
// the connection.
func FuzzServerCommand(f *testing.F) {
	for _, seed := range []string{
		"CONNECT x\r\nSUB a.b 1\r\nPUB a.b 2\r\nhi\r\nPING\r\n",
		"SUB jobs.* workers 7\r\nPUB jobs.detect 9\r\npayload-x\r\nUNSUB 7\r\n",
		"PUB a 1048577\r\n",                 // oversize payload
		"PUB a notanumber\r\n",              // unframeable size
		"PUB a 10\r\nshort",                 // truncated payload
		"PUB wild.* 2\r\nhi\r\n",            // wildcard publish
		"SUB a.>.b 1\r\nUNSUB\r\nBOGUS\r\n", // bad pattern + arity
		"pub a 1\r\nx\r\nping\r\n",          // lower-case commands
		"\r\n\r\n  \t \r\nPING\r\n",
		"PUB a 3\r\nxy",
		// Batched-ingest framing: multiple pipelined PUBs in one segment,
		// batches split by interleaved control commands, a zero-byte payload
		// inside a batch, and a batch whose tail is truncated mid-payload.
		"SUB b 1\r\nPUB b 2\r\nhi\r\nPUB b 3\r\nabc\r\nPUB b 0\r\n\r\nPING\r\n",
		"PUB a 1\r\nx\r\nPUB a 1\r\ny\r\nSUB a 9\r\nPUB a 1\r\nz\r\nUNSUB 9\r\n",
		"PUB a 1\r\nx\r\nPUB a 5\r\nab",
		"PUB a 2\r\nok\r\nPUB .bad. 1\r\nq\r\nPUB a 2\r\nok\r\n",
		"PUB big 2000\r\n" + strings.Repeat("z", 2000) + "\r\nPUB a 1\r\nw\r\nPING\r\n",
		"PING\r\n" + strings.Repeat("A", maxControlLine+100), // control line past the bound
		// Output that a cut could reorder if a flush were missing: a
		// delivery to the publisher itself around its replies.
		"SUB big 1\r\nPUB big 2000\r\n" + strings.Repeat("z", 2000) + "\r\nBOGUS\r\nPUB big 1\r\nw\r\nPING\r\n",
		// Patterns deeper than 16 tokens, whose trie paths teardown and
		// UNSUB must prune as well as short ones.
		"SUB " + strings.Repeat("d.", 16) + "e 1\r\nUNSUB 1\r\nSUB " + strings.Repeat("d.", 17) + "f 2\r\n",
	} {
		f.Add([]byte(seed), uint32(len(seed)/2))
	}
	f.Fuzz(func(t *testing.T, data []byte, split uint32) {
		fuzzSplit(t, data, split)
	})
}

// FuzzRouteCommand feeds arbitrary bytes, cut at an arbitrary point, to
// the inter-broker protocol core: a connection that upgrades via ROUTE and
// then speaks RS+/RS-/RMSG/RINFO/PING, including malformed handshakes,
// truncated origin-tagged payloads, self-origin frames (dedup
// suppression), and interest churn. Besides the cut not showing, teardown
// must withdraw whatever interest the fuzzed peer installed.
func FuzzRouteCommand(f *testing.F) {
	for _, seed := range []string{
		"ROUTE peer1 -\r\nRS+ a.b\r\nRMSG a.b peer1 2\r\nhi\r\nRS- a.b\r\nPING\r\n",
		"ROUTE peer1 127.0.0.1:0\r\nRINFO peer2 127.0.0.1:1\r\nPONG\r\n",
		"ROUTE fuzz -\r\nRS+ jobs.* workers\r\nRMSG jobs.x fuzz 3 workers\r\nabc\r\n",
		"ROUTE fuzz -\r\nRMSG a fuzz notanumber\r\n",                            // unframeable size
		"ROUTE fuzz -\r\nRMSG a fuzz 10\r\nshort",                               // truncated payload
		"ROUTE fuzz -\r\nRMSG .bad. fuzz 1\r\nq\r\nPING\r\n",                    // invalid subject
		"ROUTE srv-under-test -\r\nRMSG a srv-under-test 1\r\nx\r\n",            // self-origin echo
		"ROUTE fuzz -\r\nROUTE fuzz2 -\r\nRS+ a\r\nRS+ a\r\nRS- a\r\nRS- a\r\n", // dup handshake + idempotence
		"ROUTE\r\n",                            // malformed handshake
		"SUB a 1\r\nROUTE fuzz -\r\nRS+ a\r\n", // client subs then upgrade
		"route fuzz -\r\nrs+ a.>\r\nrmsg a.x fuzz 0\r\n\r\nBOGUS\r\n",
		"ROUTE fuzz -\r\nRS+ a..b\r\nRS+\r\nRMSG a fuzz\r\n", // bad pattern + arity
		// Batched route ingest: pipelined RMSGs in one segment with queue
		// names, a self-origin echo and an invalid subject inside the batch, a
		// batch split by an interest line, and a tail truncated mid-payload.
		"ROUTE fuzz -\r\nRMSG a fuzz 1\r\nx\r\nRMSG a fuzz 2 q1 q2\r\nyy\r\nRMSG b srv-under-test 1\r\nz\r\nRMSG .bad fuzz 1\r\nw\r\nRMSG a fuzz 0\r\n\r\nRS+ a\r\nRMSG a fuzz 1 q1\r\nv\r\nRMSG a fuzz 5\r\nab",
		// A queue-named RMSG whose payload the cut splits, then an error reply.
		"ROUTE fuzz -\r\nRMSG a fuzz 6 q1 q2\r\nabcdef\r\nRS+ a..b\r\n",
	} {
		f.Add([]byte(seed), uint32(len(seed)/2))
	}
	f.Fuzz(func(t *testing.T, data []byte, split uint32) {
		srv := fuzzSplit(t, data, split, WithServerID("srv-under-test"))
		if st := srv.Stats(); st.Routes != 0 || st.RemoteSubs != 0 {
			t.Fatalf("fuzzed route left state behind: %d routes, %d remote subs", st.Routes, st.RemoteSubs)
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
