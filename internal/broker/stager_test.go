package broker

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The stager battery pins the run-at-a-time delivery path: a run offered
// to a queue is judged frame by frame exactly as single enqueues would be,
// the header arithmetic matches the encoder, no reference or admission
// byte is lost on any exit, per-link order survives every way a run can be
// cut, and a flush never lands behind the index lock it was matched under.

// testLink returns a link over one end of a pipe, without a writer, and
// the other end.
func testLink(t *testing.T, frames int, bytes int64, gauge *admission) (*link, net.Conn) {
	t.Helper()
	server, client := net.Pipe()
	t.Cleanup(func() { server.Close(); client.Close() })
	l := &link{}
	l.init(server, frames, bytes, gauge)
	return l, client
}

// testPayload returns an arena buffer of n bytes for subject.
func testPayload(subject string, n int) *payloadRef {
	pb := arenaGet(n)
	pb.subj = append(pb.subj, subject...)
	return pb
}

// queuedSids empties q the way the writer does and returns the sids (or,
// for frames with a header, the header line) in queue order.
func queuedSids(q *outQueue) []string {
	var got []string
	var batch []outFrame
	for q.pending() {
		batch, _ = q.take(batch[:0], maxDrainFrames)
		for i := range batch {
			if batch[i].hdr != nil {
				got = append(got, strings.TrimSuffix(string(batch[i].hdr.b), "\r\n"))
			} else {
				got = append(got, batch[i].sid)
			}
		}
		if n := freeFrames(batch); q.gauge != nil {
			q.gauge.done(n)
		}
	}
	return got
}

// TestEnqueueRunMatchesSingleEnqueues is the differential test of the run
// enqueue: the same frame sequence offered one frame at a time and as one
// run must leave the same frames queued, the same queue bytes, the same
// gauge reading and the same counts, under both slow-consumer policies.
// The sequence overflows the byte bound in the middle with smaller frames
// behind the one that does not fit, and the frame bound at the end, so a
// drop policy that stopped offering at the first overflow, or a disconnect
// policy that kept offering, shows as a difference.
func TestEnqueueRunMatchesSingleEnqueues(t *testing.T) {
	// Two consecutive frames share each buffer, so a stretch of one
	// payload crosses the accepted/rejected boundary. A frame is its
	// payload plus 24 to 32 bytes of header and CRLF.
	pairSizes := []int{100, 700, 30, 700, 5, 5}
	const maxFrames, maxBytes = 7, 1200
	build := func() (pbs []*payloadRef, frames []outFrame) {
		for i, n := range pairSizes {
			pb := testPayload("diff.subject", n)
			pbs = append(pbs, pb)
			frames = append(frames, outFrame{sid: strconv.Itoa(2 * i), pb: pb}, outFrame{sid: strconv.Itoa(2*i + 1), pb: pb})
		}
		return pbs, frames
	}
	for _, policy := range []SlowConsumerPolicy{SlowConsumerDrop, SlowConsumerDisconnect} {
		gaugeA, gaugeB := &admission{limit: 1 << 40}, &admission{limit: 1 << 40}
		a, peerA := testLink(t, maxFrames, maxBytes, gaugeA)
		b, peerB := testLink(t, maxFrames, maxBytes, gaugeB)
		pbsA, framesA := build()
		pbsB, framesB := build()

		var resA runResult
		for i := range framesA {
			resA.add(a.enqueueRun(framesA[i:i+1], policy))
		}
		resB := b.enqueueRun(framesB, policy)

		if resA != resB {
			t.Errorf("policy %d: singles counted %+v, the run %+v", policy, resA, resB)
		}
		if a.out.bytes != b.out.bytes || gaugeA.cur.Load() != gaugeB.cur.Load() {
			t.Errorf("policy %d: singles left %d queue bytes and %d on the gauge, the run %d and %d",
				policy, a.out.bytes, gaugeA.cur.Load(), b.out.bytes, gaugeB.cur.Load())
		}
		if a.out.closed != b.out.closed {
			t.Errorf("policy %d: closed %v after singles, %v after the run", policy, a.out.closed, b.out.closed)
		}
		for _, f := range framesB {
			if f != (outFrame{}) {
				t.Errorf("policy %d: the run was not consumed: %+v left behind", policy, f)
			}
		}
		gotA, gotB := queuedSids(&a.out), queuedSids(&b.out)
		if fmt.Sprint(gotA) != fmt.Sprint(gotB) {
			t.Errorf("policy %d: singles queued %v, the run %v", policy, gotA, gotB)
		}
		switch policy {
		case SlowConsumerDrop:
			// 0 1 2 fit (978 bytes), 3 does not, 4 5 do (1088), 6 7 do not,
			// 8 9 do (1146, seven frames), 10 11 meet the frame bound.
			if want := "[0 1 2 4 5 8 9]"; fmt.Sprint(gotB) != want {
				t.Errorf("drop: queued %v, want %s", gotB, want)
			}
			if resB.msgs != 7 || resB.drops != 5 || resB.disconnects != 0 {
				t.Errorf("drop: counted %+v, want 7 accepted, 5 dropped", resB)
			}
		case SlowConsumerDisconnect:
			if len(gotB) != 0 || !b.out.closed {
				t.Errorf("disconnect: %v still queued, closed %v: the queue must be discarded", gotB, b.out.closed)
			}
			if resB.msgs != 3 || resB.drops != 0 || resB.disconnects != 1 {
				t.Errorf("disconnect: counted %+v, want 3 accepted before the overflow and one disconnect", resB)
			}
			for _, peer := range []net.Conn{peerA, peerB} {
				peer.SetReadDeadline(time.Now().Add(time.Second))
				if _, err := peer.Read(make([]byte, 1)); err != io.EOF {
					t.Errorf("disconnect: peer read returned %v, want EOF from the closed connection", err)
				}
			}
		}
		if gaugeA.cur.Load() != 0 || gaugeB.cur.Load() != 0 {
			t.Errorf("policy %d: gauges read %d and %d with both queues empty", policy, gaugeA.cur.Load(), gaugeB.cur.Load())
		}
		for i := range pbsA {
			if ra, rb := pbsA[i].refs.Load(), pbsB[i].refs.Load(); ra != 1 || rb != 1 {
				t.Errorf("policy %d: buffer %d holds %d and %d references, want the publisher hold alone", policy, i, ra, rb)
			}
			pbsA[i].release(1)
			pbsB[i].release(1)
		}
	}
}

// TestMsgHeaderLen is the property the queue's byte accounting rests on:
// the length computed for a MSG header is the length of the header the
// writer encodes, across every decimal width of the payload size and
// subjects and sids from one byte to well past a pooled buffer.
func TestMsgHeaderLen(t *testing.T) {
	sizes := []int{0, MaxPayload - 1, MaxPayload}
	for p := 10; p <= MaxPayload; p *= 10 {
		sizes = append(sizes, p-1, p)
	}
	long := strings.Repeat("s", 300)
	var buf []byte
	check := func(subj, sid, n int) {
		buf = appendMsgHeader(buf[:0], []byte(long[:subj]), long[:sid], n)
		if got := msgHeaderLen(subj, sid, n); got != len(buf) {
			t.Fatalf("msgHeaderLen(%d, %d, %d) = %d, encoded header is %d bytes", subj, sid, n, got, len(buf))
		}
	}
	for _, n := range sizes {
		for l := 1; l <= 300; l++ {
			check(l, 1, n)
			check(1, l, n)
			check(l, l, n)
			check(l, 301-l, n)
		}
	}
	if got, want := string(appendMsgHeader(nil, []byte("a.b"), "7", 12)), "MSG a.b 7 12\r\n"; got != want {
		t.Fatalf("appendMsgHeader = %q, want %q", got, want)
	}
}

// conservationFixture is a server with publish admission on, three local
// subscribers of which one has a queue too small for the batch (so the
// give-back path runs), a route peer with interest, and a routed batch.
func conservationFixture(t *testing.T, policy SlowConsumerPolicy) (*Server, []*link, []*payloadRef) {
	t.Helper()
	s := NewServer(WithSeed(1), WithSlowConsumerPolicy(policy), WithServerID("self"))
	var links []*link
	for i, frames := range []int{1 << 10, 1 << 10, 5} {
		server, client := net.Pipe()
		t.Cleanup(func() { server.Close(); client.Close() })
		c := &serverClient{srv: s, id: uint64(i), subs: make(map[string][]*serverSub)}
		c.link.init(server, frames, 1<<20, s.adm)
		links = append(links, &c.link)
		for _, sid := range []string{"a", "b", "c"} {
			s.addSub(&serverSub{client: c, pattern: "keep.>", sid: sid})
		}
		s.addSub(&serverSub{client: c, pattern: "keep.q", queue: "workers", sid: "q"})
	}
	peer, _ := testLink(t, 1<<10, 1<<20, s.adm)
	links = append(links, peer)
	rt := &route{ln: peer, id: "peer", subs: make(map[interestKey]*serverSub)}
	sub := &serverSub{rt: rt, pattern: "keep.x"}
	s.sl.insert(sub)

	var in ingest
	var pbs []*payloadRef
	for i := 0; i < 24; i++ {
		subject := []string{"keep.x", "keep.q", "keep.y.z"}[i%3]
		pb := testPayload(subject, []int{16, 900, 4096}[i%3])
		pbs = append(pbs, pb)
		in.pending = append(in.pending, pendingPub{pb: pb})
	}
	s.routeBatch(&in, nil)
	if in.st.n != 0 {
		t.Fatalf("%d runs still open after routeBatch", in.st.n)
	}
	for i := range in.st.runs {
		for _, f := range in.st.runs[i].frames[:cap(in.st.runs[i].frames)] {
			if f != (outFrame{}) {
				t.Fatalf("stager slot %d still holds %+v after the batch", i, f)
			}
		}
	}
	return s, links, pbs
}

// TestReferenceConservation routes a batch through every kind of
// destination and checks that nothing is lost whichever way the frames
// leave: after the writer's drain-and-free, and after discard, every
// payload is back at zero references and the admission gauge reads zero.
// Between routing and leaving, the references held are exactly the frames
// queued (the publisher holds are gone).
func TestReferenceConservation(t *testing.T) {
	for _, leave := range []string{"drain", "discard"} {
		for _, policy := range []SlowConsumerPolicy{SlowConsumerDrop, SlowConsumerDisconnect} {
			s, links, pbs := conservationFixture(t, policy)
			var queued, held int64
			for _, l := range links {
				queued += int64(len(l.out.frames) - l.out.head)
			}
			for _, pb := range pbs {
				held += int64(pb.refs.Load())
			}
			if queued == 0 || queued != held {
				t.Errorf("%s/%d: %d frames queued but %d references held", leave, policy, queued, held)
			}
			st := s.Stats()
			if policy == SlowConsumerDrop && st.SlowConsumerDrops == 0 {
				t.Errorf("%s/%d: the small queue dropped nothing; the give-back path did not run", leave, policy)
			}
			if policy == SlowConsumerDisconnect && st.SlowConsumerDisconnects != 1 {
				t.Errorf("%s/%d: %d disconnects, want 1", leave, policy, st.SlowConsumerDisconnects)
			}
			if got := st.MsgsOut + st.RoutedMsgs; policy == SlowConsumerDrop && int64(got) != queued {
				t.Errorf("%s/%d: MsgsOut+RoutedMsgs = %d, %d frames queued", leave, policy, got, queued)
			}
			for _, l := range links {
				if leave == "drain" {
					queuedSids(&l.out)
				} else {
					l.out.discard()
				}
			}
			for i, pb := range pbs {
				if n := pb.refs.Load(); n != 0 {
					t.Errorf("%s/%d: payload %d left with %d references", leave, policy, i, n)
				}
			}
			if n := s.adm.cur.Load(); n != 0 {
				t.Errorf("%s/%d: admission gauge reads %d with every queue empty", leave, policy, n)
			}
		}
	}
}

// TestRunReferencesPrecedeEnqueue pins stager rule 2 where it can be seen:
// with the queue lock held by the test, a run on its way in is stopped
// exactly between taking its references and entering the queue, so the
// count must already include them. Were they taken after the enqueue, a
// writer that drained the frames first would release what nobody holds.
func TestRunReferencesPrecedeEnqueue(t *testing.T) {
	l, _ := testLink(t, 16, 1<<20, nil)
	pb := testPayload("rule.two", 64)
	run := []outFrame{{sid: "1", pb: pb}, {sid: "2", pb: pb}, {sid: "3", pb: pb}}
	l.out.mu.Lock()
	done := make(chan runResult, 1)
	go func() { done <- l.enqueueRun(run, SlowConsumerDrop) }()
	deadline := time.Now().Add(5 * time.Second)
	for pb.refs.Load() != 4 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	held := pb.refs.Load()
	l.out.mu.Unlock()
	if res := <-done; res.msgs != 3 {
		t.Fatalf("enqueueRun accepted %d of 3 frames", res.msgs)
	}
	if held != 4 {
		t.Fatalf("%d references held while the run waited for the queue lock, want the publisher hold and 3", held)
	}
	queuedSids(&l.out)
	pb.release(1)
}

// TestStagerKeepsPerLinkOrder routes batches whose deliveries interleave
// across more links than the stager holds open (so runs are evicted
// mid-message) and include one link with more deliveries per message than
// stagerRunFrames (so its run is cut by the threshold several times), and
// checks every link's queue against the order the deliveries were matched
// in: message by message, subscription by subscription.
func TestStagerKeepsPerLinkOrder(t *testing.T) {
	const nClients, perClient, wide, msgs = stagerRuns + 4, 3, 2*stagerRunFrames + 100, 5
	s := NewServer(WithSeed(1))
	clients := make([]*serverClient, nClients)
	order := make([][]string, nClients) // each client's sids in match order
	for i := range clients {
		clients[i] = &serverClient{srv: s, id: uint64(i), subs: make(map[string][]*serverSub)}
		clients[i].out.init(1<<16, 1<<30, nil)
	}
	subscribe := func(i int, sid string) {
		s.addSub(&serverSub{client: clients[i], pattern: "ord.x", sid: sid})
		order[i] = append(order[i], sid)
	}
	// Round-robin insertion makes the match result alternate links on
	// every delivery; client 0's wide block sits in the middle of it.
	for k := 0; k < perClient; k++ {
		for i := range clients {
			subscribe(i, fmt.Sprintf("c%d.%d", i, k))
		}
		if k == 0 {
			for w := 0; w < wide; w++ {
				subscribe(0, fmt.Sprintf("wide.%d", w))
			}
		}
	}
	var in ingest
	for m := 0; m < msgs; m++ {
		in.pending = append(in.pending, pendingPub{pb: testPayload("ord.x", m)})
	}
	s.routeBatch(&in, nil)

	var batch []outFrame
	for i, c := range clients {
		var got []string
		for c.out.pending() {
			batch, _ = c.out.take(batch[:0], maxDrainFrames)
			for _, f := range batch {
				got = append(got, fmt.Sprintf("%d/%s", len(f.pb.data), f.sid))
			}
			freeFrames(batch)
		}
		var want []string
		for m := 0; m < msgs; m++ {
			for _, sid := range order[i] {
				want = append(want, fmt.Sprintf("%d/%s", m, sid))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("client %d: %d deliveries queued, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("client %d: delivery %d is %s, want %s: per-link order broken", i, j, got[j], want[j])
			}
		}
	}
}

// TestUnsubPingBarrier pins stager rule 1 from the outside: once the PONG
// that answers UNSUB+PING has arrived, no MSG for that sid may follow,
// while a publisher on another connection keeps routing pipelined batches
// that alternate between two subjects. A flush that happened after the
// index lock was released could land behind the PONG.
func TestUnsubPingBarrier(t *testing.T) {
	srv := NewServer(WithSeed(1), WithWriteQueue(1<<18, 1<<28),
		WithSlowConsumerPolicy(SlowConsumerDrop))
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	addr := srv.Addr().String()

	subjA, subjB := "bar0.x", "bar1.x"

	pub, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	var burst []byte
	for i := 0; i < 32; i++ {
		burst = append(burst, "PUB "+subjA+" 4\r\nabcd\r\nPUB "+subjB+" 4\r\nefgh\r\n"...)
	}
	stop := make(chan struct{})
	pubDone := make(chan struct{})
	go func() {
		defer close(pubDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := pub.Write(burst); err != nil {
				return
			}
		}
	}()
	defer func() { close(stop); pub.Close(); <-pubDone }()

	sub, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	sub.SetDeadline(time.Now().Add(60 * time.Second))
	r := bufio.NewReaderSize(sub, 1<<16)
	dead := make(map[string]bool)
	// next reads one frame and returns its sid ("" for a PONG).
	var fields [8][]byte
	next := func() string {
		line, err := readLineSlice(r)
		if err != nil {
			t.Fatalf("subscriber read: %v", err)
		}
		nf := splitFields(line, fields[:0])
		if len(nf) == 1 && string(nf[0]) == "PONG" {
			return ""
		}
		if len(nf) != 4 || string(nf[0]) != "MSG" {
			t.Fatalf("unexpected line %q", line)
		}
		sid := string(nf[2])
		if dead[sid] {
			t.Fatalf("MSG for sid %s arrived after the PONG that followed its UNSUB", sid)
		}
		n, _ := strconv.Atoi(string(nf[3]))
		if _, err := r.Discard(n + 2); err != nil {
			t.Fatalf("subscriber read: %v", err)
		}
		return sid
	}
	mustWrite(t, sub, "SUB "+subjB+" keep\r\n")
	for round := 0; round < 100; round++ {
		sid := "r" + strconv.Itoa(round)
		mustWrite(t, sub, "SUB "+subjA+" "+sid+"\r\n")
		for next() != sid {
		}
		mustWrite(t, sub, "UNSUB "+sid+"\r\nPING\r\n")
		for next() != "" {
		}
		dead[sid] = true
	}
	mustWrite(t, sub, "PING\r\n")
	for next() != "" {
	}
}

// TestRouteIngestBatch feeds a route a pipelined burst of RMSGs — plain,
// with queue names, one echoing this broker's own origin tag, one with an
// invalid subject — in a single write, so they are parsed into one ingest
// batch, and checks the local deliveries, their order, and that the batch
// was counted once: MsgsIn and DupsSuppressed.
func TestRouteIngestBatch(t *testing.T) {
	srv := NewServer(WithSeed(1), WithServerID("self"))
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	addr := srv.Addr().String()

	sub, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	mustWrite(t, sub, "SUB in.> 1\r\nSUB in.q workers 2\r\nSUB in.q other 3\r\n")
	waitSubs(t, srv, 3)

	peer, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	mustWrite(t, peer, "ROUTE peer -\r\n"+
		"RMSG in.a peer 2\r\nm0\r\n"+
		"RMSG in.q peer 2 workers\r\nm1\r\n"+
		"RMSG in.a self 2\r\nxx\r\n"+ // our own origin: suppressed
		"RMSG in.q peer 2 workers other\r\nm2\r\n"+
		"RMSG in..bad peer 2\r\nyy\r\n"+ // invalid subject: -ERR to the peer, no delivery
		"RMSG in.b peer 0\r\n\r\n"+
		"PING\r\n")

	want := "MSG in.a 1 2\r\nm0\r\n" +
		"MSG in.q 1 2\r\nm1\r\n" + "MSG in.q 2 2\r\nm1\r\n" +
		"MSG in.q 1 2\r\nm2\r\n" + "MSG in.q 2 2\r\nm2\r\n" + "MSG in.q 3 2\r\nm2\r\n" +
		"MSG in.b 1 0\r\n\r\n"
	got := make([]byte, len(want))
	sub.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(sub, got); err != nil {
		t.Fatalf("subscriber read: %v (got %q)", err, got)
	}
	if string(got) != want {
		t.Fatalf("subscriber received\n%q\nwant\n%q", got, want)
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().MsgsIn != 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st := srv.Stats()
	if st.MsgsIn != 4 || st.MsgsOut != 7 || st.DupsSuppressed != 1 {
		t.Errorf("MsgsIn %d MsgsOut %d DupsSuppressed %d, want 4, 7, 1", st.MsgsIn, st.MsgsOut, st.DupsSuppressed)
	}
}
