package broker

import (
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"
)

// The protocol transcript pins what a connection answers, byte for byte,
// and whether it is kept, for scripted input in each role a connection can
// have: a client, a route the peer opened (client role until its ROUTE
// line), and a route this broker dialed (route role from the first byte,
// unregistered until the peer's ROUTE line). The expectations were recorded
// by running this table against the two-loop broker (commit a80d72c); the
// entries marked "unified" are the ones the single reader loop changed on
// purpose: a route's invalid-subject reply now carries the text a client's
// always did. No drop-or-keep decision changed.

const transcriptID = "self"

type transcriptCase struct {
	name string
	// dialed runs the script on a route the broker dialed (loopback TCP, the
	// broker's "ROUTE self -" hello is read first); otherwise the script is
	// written to an accepted net.Pipe connection.
	dialed bool
	// observer, when set, is written to a second accepted connection before
	// the script; observed is everything that connection must have received
	// once the script has been processed.
	observer, observed string
	script             string
	want               string
	survives           bool
}

var transcriptCases = []transcriptCase{
	// Client role.
	{name: "client/every verb", survives: true,
		script: "CONNECT me\r\nSUB a.b 1\r\nSUB a.* grp 2\r\nPUB a.b 2\r\nhi\r\nPUB a.b 0\r\n\r\nUNSUB 1\r\nUNSUB 2\r\nPUB a.b 1\r\nx\r\nPING\r\n",
		want:   "MSG a.b 1 2\r\nhi\r\nMSG a.b 2 2\r\nhi\r\nMSG a.b 1 0\r\n\r\nMSG a.b 2 0\r\n\r\nPONG\r\n"},
	{name: "client/lower-case verbs", survives: true,
		script: "connect me\r\nsub a 1\r\npub a 1\r\nx\r\nunsub 1\r\npub a 1\r\ny\r\nping\r\n",
		want:   "MSG a 1 1\r\nx\r\nPONG\r\n"},
	{name: "client/blank lines, tabs, bare LF", survives: true,
		script: "\r\n \t \r\nSUB\ta\t1\nPUB  a \t 1\nx\nPING\n",
		want:   "MSG a 1 1\r\nx\r\nPONG\r\n"},
	{name: "client/arity kept", survives: true,
		script: "CONNECT\r\nCONNECT a b c\r\nSUB a\r\nSUB a b c d\r\nUNSUB\r\nUNSUB 1 2\r\nPUB a\r\nPUB a 1 2\r\nPING extra\r\n",
		want: "-ERR SUB requires <subject> [queue] <sid>\r\n-ERR SUB requires <subject> [queue] <sid>\r\n" +
			"-ERR UNSUB requires <sid>\r\n-ERR UNSUB requires <sid>\r\n" +
			"-ERR PUB requires <subject> <nbytes>\r\n-ERR PUB requires <subject> <nbytes>\r\nPONG\r\n"},
	{name: "client/ROUTE without id", script: "ROUTE\r\n",
		want: "-ERR ROUTE requires <serverID> [clusterAddr]\r\n"},
	{name: "client/ROUTE with four fields", script: "ROUTE a b c\r\n",
		want: "-ERR ROUTE requires <serverID> [clusterAddr]\r\n"},
	{name: "client/ROUTE with own id", script: "ROUTE " + transcriptID + " -\r\n",
		want: "-ERR duplicate route\r\n"},
	{name: "client/size not a number", script: "SUB a 1\r\nPUB a 1\r\nx\r\nPUB a x\r\n",
		want: "MSG a 1 1\r\nx\r\n-ERR bad payload size\r\n"},
	{name: "client/size over MaxPayload", script: "PUB a 1048577\r\n", want: "-ERR bad payload size\r\n"},
	{name: "client/size negative", script: "PUB a -1\r\n", want: "-ERR bad payload size\r\n"},
	{name: "client/size nine digits", script: "PUB a 000000001\r\n", want: "-ERR bad payload size\r\n"},
	{name: "client/payload without CRLF", script: "PUB a 1\r\nxy\r\n", want: ""},
	{name: "client/invalid and wildcard subjects", survives: true,
		script: "SUB > 1\r\nPUB a 1\r\nx\r\nPUB a..b 1\r\ny\r\nPUB .a 1\r\ny\r\nPUB a. 1\r\ny\r\nPUB a.* 1\r\ny\r\nPUB > 1\r\ny\r\nPUB a 1\r\nz\r\n",
		want: "MSG a 1 1\r\nx\r\n" +
			"-ERR broker: empty token in subject \"a..b\"\r\n" +
			"-ERR broker: empty token in subject \".a\"\r\n" +
			"-ERR broker: empty token in subject \"a.\"\r\n" +
			"-ERR broker: publish subject \"a.*\" may not contain wildcards\r\n" +
			"-ERR broker: publish subject \">\" may not contain wildcards\r\n" +
			"MSG a 1 1\r\nz\r\n"},
	{name: "client/invalid patterns", survives: true,
		script: "SUB a..b 1\r\nSUB a.>.b 1\r\nSUB a.b* 1\r\nSUB * 1\r\nPUB a 1\r\nx\r\n",
		want: "-ERR broker: empty token in subject \"a..b\"\r\n" +
			"-ERR broker: '>' must be the final token in \"a.>.b\"\r\n" +
			"-ERR broker: wildcard inside token \"b*\" of \"a.b*\"\r\n" +
			"MSG a 1 1\r\nx\r\n"},
	{name: "client/unknown verbs", survives: true,
		script: "BOGUS x\r\nPONG\r\n-ERR x\r\nRS+ a\r\nRS- a\r\nRINFO p 127.0.0.1:1\r\nRMSG a p 1\r\nx\r\n",
		want: "-ERR unknown command BOGUS\r\n-ERR unknown command PONG\r\n-ERR unknown command -ERR\r\n" +
			"-ERR unknown command RS+\r\n-ERR unknown command RS-\r\n-ERR unknown command RINFO\r\n" +
			"-ERR unknown command RMSG\r\n-ERR unknown command x\r\n"},
	{name: "client/line past the bound", script: "PING\r\n" + strings.Repeat("A", maxControlLine+100),
		want: "PONG\r\n-ERR control line too long\r\n"},
	{name: "client/publish reaches another connection", survives: true,
		observer: "SUB d.* 7\r\nSUB d.x q 8\r\n", observed: "MSG d.x 7 2\r\nhi\r\nMSG d.x 8 2\r\nhi\r\n",
		script: "PUB d.x 2\r\nhi\r\n", want: ""},

	// Route role on an accepted connection: client role up to the ROUTE line,
	// which is answered with the interest dump and then the hello.
	{name: "route/every verb", survives: true,
		// One interest only: the dump of several comes in map order. A queue
		// member gets what names its group, not the plain RMSGs around it.
		observer: "SUB d.x q 8\r\n", observed: "MSG d.x 8 1\r\nx\r\n",
		script: "ROUTE peer 127.0.0.1:1\r\nRS+ a.b\r\nRS+ a.* grp\r\nRS+ a.b\r\nRS- a.b\r\nRS- a.b\r\nRS- a.* grp\r\n" +
			"RMSG d.x peer 2\r\nhi\r\nRMSG d.x peer 1 nobody q\r\nx\r\nRMSG d.x peer 0\r\n\r\n" +
			"RINFO other -\r\nRINFO " + transcriptID + " 127.0.0.1:1\r\nPING\r\nPONG\r\n-ERR late\r\n",
		want: "RS+ d.x q\r\nROUTE " + transcriptID + " -\r\nPONG\r\n"},
	{name: "route/lower-case verbs", survives: true,
		observer: "SUB d.x 7\r\n", observed: "MSG d.x 7 1\r\nx\r\n",
		script: "route peer\r\nrs+ a\r\nrs- a\r\nrmsg d.x peer 1\r\nx\r\nrinfo other -\r\nping\r\npong\r\n-err late\r\n",
		want:   "RS+ d.x\r\nROUTE " + transcriptID + " -\r\nPONG\r\n"},
	{name: "route/upgrade with subs and a pending batch", survives: true,
		script: "SUB a 1\r\nSUB > 2\r\nPUB a 1\r\nx\r\nPUB a 1\r\ny\r\nROUTE peer -\r\nRMSG a peer 1\r\nz\r\n",
		want:   "MSG a 2 1\r\nx\r\nMSG a 1 1\r\nx\r\nMSG a 2 1\r\ny\r\nMSG a 1 1\r\ny\r\nROUTE " + transcriptID + " -\r\n"},
	{name: "route/arity kept", survives: true,
		script: "ROUTE peer -\r\nRS+\r\nRS+ a b c\r\nRS-\r\nRS- a b c\r\nRINFO\r\nRINFO x\r\nRINFO a b c\r\nPING extra\r\nPONG extra\r\n",
		want: "ROUTE " + transcriptID + " -\r\n-ERR RS requires <pattern> [queue]\r\n-ERR RS requires <pattern> [queue]\r\n" +
			"-ERR RS requires <pattern> [queue]\r\n-ERR RS requires <pattern> [queue]\r\nPONG\r\n"},
	{name: "route/duplicate ROUTE lines", survives: true,
		script: "ROUTE peer -\r\nROUTE other -\r\nROUTE\r\nROUTE a b c d\r\n",
		want:   "ROUTE " + transcriptID + " -\r\n"},
	{name: "route/RMSG without size", script: "ROUTE peer -\r\nRMSG a peer\r\n",
		want: "ROUTE " + transcriptID + " -\r\n-ERR RMSG requires <subject> <origin> <nbytes>\r\n"},
	{name: "route/RMSG size not a number",
		observer: "SUB d.x 7\r\n", observed: "MSG d.x 7 1\r\nx\r\n",
		script: "ROUTE peer -\r\nRMSG d.x peer 1\r\nx\r\nRMSG a peer x\r\n",
		want:   "RS+ d.x\r\nROUTE " + transcriptID + " -\r\n-ERR bad payload size\r\n"},
	{name: "route/RMSG size over MaxPayload", script: "ROUTE peer -\r\nRMSG a peer 1048577\r\n",
		want: "ROUTE " + transcriptID + " -\r\n-ERR bad payload size\r\n"},
	{name: "route/RMSG payload without CRLF", script: "ROUTE peer -\r\nRMSG a peer 1\r\nxy\r\n",
		want: "ROUTE " + transcriptID + " -\r\n"},
	{name: "route/invalid and wildcard subjects", survives: true,
		observer: "SUB > 7\r\n", observed: "MSG a 7 1\r\nx\r\nMSG a 7 1\r\nz\r\n",
		script: "ROUTE peer -\r\nRMSG a peer 1\r\nx\r\nRMSG a..b peer 1\r\ny\r\nRMSG a.* peer 1\r\ny\r\nRMSG > peer 1\r\ny\r\nRMSG a peer 1\r\nz\r\n",
		// unified: the two-loop broker answered each with "-ERR invalid subject".
		want: "RS+ >\r\nROUTE " + transcriptID + " -\r\n" +
			"-ERR broker: empty token in subject \"a..b\"\r\n" +
			"-ERR broker: publish subject \"a.*\" may not contain wildcards\r\n" +
			"-ERR broker: publish subject \">\" may not contain wildcards\r\n"},
	{name: "route/invalid patterns", survives: true,
		script: "ROUTE peer -\r\nRS+ a..b\r\nRS- a.>.b\r\nRS+ a.b* q\r\n",
		want: "ROUTE " + transcriptID + " -\r\n-ERR broker: empty token in subject \"a..b\"\r\n" +
			"-ERR broker: '>' must be the final token in \"a.>.b\"\r\n" +
			"-ERR broker: wildcard inside token \"b*\" of \"a.b*\"\r\n"},
	{name: "route/self-origin echo", survives: true,
		observer: "SUB d.x 7\r\n", observed: "MSG d.x 7 1\r\ny\r\n",
		script: "ROUTE peer -\r\nRMSG d.x " + transcriptID + " 1\r\nx\r\nRMSG d.x peer 1\r\ny\r\n",
		want:   "RS+ d.x\r\nROUTE " + transcriptID + " -\r\n"},
	{name: "route/unknown and client verbs", survives: true,
		script: "ROUTE peer -\r\nBOGUS x\r\nCONNECT me\r\nSUB a 1\r\nUNSUB 1\r\nPUB a 1\r\nx\r\n",
		want: "ROUTE " + transcriptID + " -\r\n-ERR unknown route command BOGUS\r\n-ERR unknown route command CONNECT\r\n" +
			"-ERR unknown route command SUB\r\n-ERR unknown route command UNSUB\r\n" +
			"-ERR unknown route command PUB\r\n-ERR unknown route command x\r\n"},
	{name: "route/line past the bound", script: "ROUTE peer -\r\nPING\r\n" + strings.Repeat("A", maxControlLine+100),
		want: "ROUTE " + transcriptID + " -\r\nPONG\r\n-ERR control line too long\r\n"},

	// Route role on a dialed connection: unregistered until the peer's ROUTE.
	{name: "dialed/handshake then every verb", dialed: true, survives: true,
		observer: "SUB d.x 7\r\n", observed: "MSG d.x 7 1\r\nx\r\n",
		script: "ROUTE peer -\r\nRS+ a\r\nRS- a\r\nRMSG d.x peer 1\r\nx\r\nRINFO other -\r\nPING\r\nPONG\r\nROUTE other -\r\n-ERR late\r\n",
		want:   "RS+ d.x\r\nPONG\r\n"},
	{name: "dialed/lines before the handshake", dialed: true, survives: true,
		observer: "SUB d.x 7\r\n", observed: "MSG d.x 7 1\r\nx\r\n",
		script: "PING\r\nRS+ a\r\nRMSG d.x peer 1\r\nx\r\nBOGUS\r\nROUTE peer -\r\n",
		want:   "PONG\r\n-ERR unknown route command BOGUS\r\nRS+ d.x\r\n"},
	{name: "dialed/-ERR before registration", dialed: true, script: "-ERR duplicate route\r\n", want: ""},
	{name: "dialed/ROUTE without id", dialed: true, script: "ROUTE\r\n",
		want: "-ERR ROUTE requires <serverID> [clusterAddr]\r\n"},
	{name: "dialed/ROUTE with four fields", dialed: true, script: "ROUTE a b c\r\n",
		want: "-ERR ROUTE requires <serverID> [clusterAddr]\r\n"},
	{name: "dialed/ROUTE with own id", dialed: true, script: "ROUTE " + transcriptID + " -\r\n", want: ""},
	{name: "dialed/RMSG without size", dialed: true, script: "ROUTE peer -\r\nRMSG a peer\r\n",
		want: "-ERR RMSG requires <subject> <origin> <nbytes>\r\n"},
	{name: "dialed/invalid subject", dialed: true, survives: true,
		script: "ROUTE peer -\r\nRMSG a.* peer 1\r\ny\r\n",
		// unified: was "-ERR invalid subject".
		want: "-ERR broker: publish subject \"a.*\" may not contain wildcards\r\n"},
}

func TestProtocolTranscript(t *testing.T) {
	for _, tc := range transcriptCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			// The heartbeat is off the table: a monitor PING would land in the
			// transcript at a time of its choosing.
			srv := NewServer(WithSeed(1), WithServerID(transcriptID), WithRouteHeartbeat(time.Hour, time.Hour))
			defer srv.Shutdown()

			var obs net.Conn
			if tc.observer != "" {
				obs = pipeClient(t, srv)
				if got := converse(t, obs, tc.observer, "", true); got != "" {
					t.Fatalf("observer set-up answered %q", got)
				}
			}
			var conn net.Conn
			if tc.dialed {
				conn = dialedRoute(t, srv)
			} else {
				conn = pipeClient(t, srv)
			}
			if got := converse(t, conn, tc.script, tc.want, tc.survives); got != tc.want {
				t.Errorf("script %.200q\n got %q\nwant %q", tc.script, got, tc.want)
			}
			if obs != nil {
				if got := converse(t, obs, "", tc.observed, true); got != tc.observed {
					t.Errorf("observer\n got %q\nwant %q", got, tc.observed)
				}
			}
		})
	}
}

// dialedRoute has srv dial a listener of the test's and returns the
// accepted side once the broker's hello has been read off it.
func dialedRoute(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close() // one connection: the redial after a drop finds nobody
	srv.AddRoute(ln.Addr().String())
	ln.(*net.TCPListener).SetDeadline(time.Now().Add(5 * time.Second))
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	hello := make([]byte, len("ROUTE "+transcriptID+" -\r\n"))
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, hello); err != nil || string(hello) != "ROUTE "+transcriptID+" -\r\n" {
		t.Fatalf("hello %q, %v", hello, err)
	}
	return conn
}

// converse writes script to conn and returns what came back. A connection
// that must survive is then sent a PING, and the reply has to end in that
// PING's PONG (stripped from the result) — the barrier that also shows
// nothing else was sent. One that must not survive is read to EOF. want
// only tells the survivor's read how long to wait for.
func converse(t *testing.T, conn net.Conn, script, want string, survives bool) string {
	t.Helper()
	const pong = "PONG\r\n"
	go func() {
		conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
		if survives {
			script += "PING\r\n"
		}
		io.WriteString(conn, script) // a dropped connection stops reading: the error is the point
	}()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if !survives {
		got, err := io.ReadAll(conn)
		if err != nil && !errors.Is(err, io.ErrClosedPipe) {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Errorf("connection survived; it sent %q", got)
			} else {
				t.Errorf("read: %v", err)
			}
		}
		return string(got)
	}
	got := make([]byte, len(want)+len(pong))
	n, err := io.ReadFull(conn, got)
	got = got[:n]
	if err != nil {
		t.Errorf("connection did not survive to its PONG (%v); it sent %q", err, got)
		return string(got)
	}
	if !strings.HasSuffix(string(got), pong) {
		return string(got)
	}
	return string(got[:len(got)-len(pong)])
}
