package broker

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The data-plane battery pins the delivery path: the bytes a subscriber's
// socket receives must be exactly the protocol's, the refcounted arena
// must survive release/disconnect races, the hot path
// must stay allocation-free per delivery, publish admission must park
// and (when pinned) time out as documented, and Stats snapshots must be
// torn-read-free.

// wireScript is the publish sequence for the byte-identity test: sizes
// straddle every writer-path boundary — empty, tiny, one under and over
// zeroCopyMin (1024), mid-size, and larger than the 64 KiB coalesce
// buffer — the subjects alternate so batched routing crosses route-set
// memoization, and two of them are longer than a pooled header buffer's
// 64 bytes (the writer encodes the header from the arena buffer's subject,
// whatever its length).
var wireScript = []struct {
	subject string
	size    int
}{
	{"wire.a", 0},
	{"wire.a", 1},
	{"wire.b", 512},
	{"wire.a", 1023},
	{"wire.a", 1024},
	{"wire.b", 1025},
	{wireLongSubject, 1023},
	{wireLongSubject, 0},
	{wireLongSubject, 1024},
	{"wire.a", 4096},
	{"wire.b", 70000},
	{"wire.a", 17},
	{"wire." + strings.Repeat("y", 300), 9},
	{"wire.a", 2048},
}

var wireLongSubject = "wire." + strings.Repeat("long-token.", 8) + "x" // 94 bytes

// scriptPayload fills deterministic, position-dependent bytes so any
// cross-frame corruption (wrong arena buffer, bad iovec split) changes
// the stream.
func scriptPayload(i, size int) []byte {
	p := make([]byte, size)
	for j := range p {
		p[j] = byte(i*131 + j*7)
	}
	return p
}

// TestWireByteIdentity is the golden contract of the delivery path: the
// bytes the subscriber's socket receives for the script are exactly the
// protocol spelled out by hand here, nothing before, between or after.
func TestWireByteIdentity(t *testing.T) {
	srv := NewServer(WithSeed(7))
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
	mustWrite(t, sub, "SUB wire.> 1\r\n")
	waitSubs(t, srv, 1)

	pub, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	// First half goes out as one pipelined burst (exercises batched
	// ingest), the rest one frame at a time (exercises the
	// flush-before-blocking path).
	var burst bytes.Buffer
	var want bytes.Buffer
	for i, m := range wireScript {
		payload := scriptPayload(i, m.size)
		frame := "PUB " + m.subject + " " + strconv.Itoa(m.size) + "\r\n"
		want.WriteString("MSG " + m.subject + " 1 " + strconv.Itoa(m.size) + "\r\n")
		want.Write(payload)
		want.WriteString("\r\n")
		if i < len(wireScript)/2 {
			burst.WriteString(frame)
			burst.Write(payload)
			burst.WriteString("\r\n")
			continue
		}
		if burst.Len() > 0 {
			mustWrite(t, pub, burst.String())
			burst.Reset()
		}
		mustWrite(t, pub, frame+string(payload)+"\r\n")
	}

	got := make([]byte, want.Len())
	sub.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadFull(sub, got); err != nil {
		t.Fatalf("reading %d-byte stream: %v", want.Len(), err)
	}
	// Nothing may follow the scripted deliveries.
	sub.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	var extra [1]byte
	if n, _ := sub.Read(extra[:]); n != 0 {
		t.Fatalf("unexpected trailing byte %q after scripted stream", extra[0])
	}
	if !bytes.Equal(got, want.Bytes()) {
		for i := range got {
			if got[i] != want.Bytes()[i] {
				t.Fatalf("stream diverges at byte %d: got %q want %q", i, got[i], want.Bytes()[i])
			}
		}
	}
}

// TestPerClientFIFOOrderMixedPayloads extends the FIFO contract across
// the writer's two paths: payloads above and below zeroCopyMin
// interleave coalesced segments and direct arena iovecs in one writev
// batch, and the delivery order must still be exactly publish order.
func TestPerClientFIFOOrderMixedPayloads(t *testing.T) {
	srv := NewServer(WithSeed(5))
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	addr := srv.Addr().String()

	sizes := []int{16, 2048, 700, 9000, 64, 40000, 1024, 1023}
	const total = 400
	done := make(chan int, 1)
	next := 0
	sub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if _, err := sub.Subscribe("mix.>", func(m Msg) {
		want := sizes[next%len(sizes)]
		if len(m.Data) != want || binary.LittleEndian.Uint64(m.Data) != uint64(next) {
			t.Errorf("delivery %d: got %d bytes seq %d, want %d bytes seq %d",
				next, len(m.Data), binary.LittleEndian.Uint64(m.Data), want, next)
			done <- next
			return
		}
		fill := byte(next)
		for _, b := range m.Data[8:] {
			if b != fill {
				t.Errorf("delivery %d: payload corrupted", next)
				done <- next
				return
			}
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

	pub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	buf := make([]byte, 40000)
	for i := 0; i < total; i++ {
		p := buf[:sizes[i%len(sizes)]]
		fill := byte(i)
		for j := range p {
			p[j] = fill
		}
		binary.LittleEndian.PutUint64(p, uint64(i))
		subj := "mix.even"
		if i%2 == 1 {
			subj = "mix.odd"
		}
		if err := pub.Publish(subj, p); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case n := <-done:
		if n != total {
			t.Fatalf("stopped after %d of %d", n, total)
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("timed out with %d of %d delivered in order", next, total)
	}
}

// TestArenaReleaseDisconnectStress hammers the arena's refcount
// discipline under -race: publishers fan payloads out to a verifying
// subscriber while a churn goroutine keeps attaching subscribers that
// never read and then tears their sockets down — so writer release,
// slow-consumer discard, and publisher retain race on the same shared
// payload buffers. Any use-after-release shows up as a race report or a
// corrupted payload on the healthy stream.
func TestArenaReleaseDisconnectStress(t *testing.T) {
	srv := NewServer(WithSeed(3), WithWriteQueue(64, 1<<20),
		WithSlowConsumerPolicy(SlowConsumerDisconnect))
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	addr := srv.Addr().String()

	// delivered[p] paces publisher p: it never runs more than one chunk
	// ahead of what the healthy subscriber has verified, so the healthy
	// queue cannot legitimately overflow — only the churned, never-reading
	// subscribers do.
	var delivered [2]atomic.Int64
	var corrupt atomic.Int64
	healthy, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	if _, err := healthy.Subscribe("st.>", func(m Msg) {
		if len(m.Data) < 8 {
			corrupt.Add(1)
			return
		}
		seq := binary.LittleEndian.Uint64(m.Data)
		fill := byte(seq)
		for _, b := range m.Data[8:] {
			if b != fill {
				corrupt.Add(1)
				return
			}
		}
		if p := int(seq >> 32); p < len(delivered) {
			delivered[p].Add(1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := healthy.Flush(time.Second); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return
			}
			conn.Write([]byte("SUB st.> 9\r\n"))
			time.Sleep(2 * time.Millisecond) // let its queue fill / overflow
			conn.Close()
		}
	}()

	// Cycle several size classes so buffers return to their pools and
	// get re-handed to concurrent publishers mid-run.
	sizes := []int{300, 1500, 3000, 9000}
	const perPub, chunk = 304, 8
	var pubs sync.WaitGroup
	for p := 0; p < 2; p++ {
		pubs.Add(1)
		go func(p int) {
			defer pubs.Done()
			pub, err := Dial(addr)
			if err != nil {
				t.Errorf("publisher %d dial: %v", p, err)
				return
			}
			defer pub.Close()
			buf := make([]byte, 9000)
			deadline := time.Now().Add(30 * time.Second)
			for i := 0; i < perPub; i++ {
				seq := uint64(p)<<32 | uint64(i)
				payload := buf[:sizes[i%len(sizes)]]
				fill := byte(seq)
				for j := range payload {
					payload[j] = fill
				}
				binary.LittleEndian.PutUint64(payload, seq)
				if err := pub.Publish("st."+strconv.Itoa(p), payload); err != nil {
					t.Errorf("publisher %d msg %d: %v", p, i, err)
					return
				}
				for i+1-int(delivered[p].Load()) >= chunk {
					if time.Now().After(deadline) {
						t.Errorf("publisher %d stuck at %d delivered of %d sent", p, delivered[p].Load(), i+1)
						return
					}
					time.Sleep(100 * time.Microsecond)
				}
			}
		}(p)
	}
	pubs.Wait()
	close(stop)
	churn.Wait()
	if n := corrupt.Load(); n != 0 {
		t.Fatalf("%d corrupted payloads reached the healthy subscriber", n)
	}
	if v := delivered[0].Load() + delivered[1].Load(); v < perPub {
		t.Fatalf("only %d payloads verified; stress produced too few deliveries", v)
	}
}

// TestDeliveryAllocs pins the server hot path's allocation budget:
// once pools and caches are warm, routing a batch to an 8-way fan-out
// and draining the queues must allocate (amortized) nothing per
// delivery — the arena, match cache, stager and queue storage all
// recycle.
func TestDeliveryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the measured path")
	}
	s := NewServer(WithSeed(1))
	const fanout = 8
	clients := make([]*serverClient, fanout)
	for i := range clients {
		c := &serverClient{srv: s, id: uint64(i), subs: make(map[string][]*serverSub)}
		c.out.init(1<<16, 1<<30, nil)
		clients[i] = c
		s.addSub(&serverSub{client: c, pattern: "alloc.bench", sid: "1"})
	}
	const batchN = 16
	var in ingest
	var drain []outFrame
	run := func() {
		in.pending = in.pending[:0]
		for i := 0; i < batchN; i++ {
			pb := arenaGet(512)
			pb.subj = append(pb.subj, "alloc.bench"...)
			for j := range pb.data {
				pb.data[j] = byte(i)
			}
			in.pending = append(in.pending, pendingPub{pb: pb})
		}
		s.routeBatch(&in, nil)
		for _, c := range clients {
			for c.out.pending() {
				drain, _ = c.out.take(drain[:0], maxDrainFrames)
				freeFrames(drain)
			}
		}
	}
	for i := 0; i < 4; i++ {
		run()
	}
	allocs := testing.AllocsPerRun(100, run)
	perDelivery := allocs / (batchN * fanout)
	if perDelivery > 0.1 {
		t.Errorf("hot path allocates %.3f per delivery (%.1f per %d-msg batch), want amortized zero",
			perDelivery, allocs, batchN)
	}
}

// TestAdmissionTimeoutsUnderPinnedBytes drives the documented worst
// case for publish admission: a stalled pipe subscriber pins queued
// bytes above the window forever, so publish batches must park, time
// out, and proceed — all visible in the counters, with no deadlock.
func TestAdmissionTimeoutsUnderPinnedBytes(t *testing.T) {
	srv := NewServer(WithSeed(1), WithWriteQueue(1024, 1<<20),
		WithSlowConsumerPolicy(SlowConsumerDrop),
		WithPublishAdmission(2048, 20*time.Millisecond))
	defer srv.Shutdown()

	stalled := pipeClient(t, srv)
	mustWrite(t, stalled, "SUB adm.x 1\r\n")
	waitSubs(t, srv, 1)

	pub := pipeClient(t, srv)
	payload := string(bytes.Repeat([]byte{'a'}, 512))
	const total = 40
	for i := 0; i < total; i++ {
		mustWrite(t, pub, "PUB adm.x 512\r\n"+payload+"\r\n")
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().MsgsIn != total && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st := srv.Stats()
	if st.MsgsIn != total {
		t.Fatalf("MsgsIn = %d, want %d (admission must not wedge the publisher)", st.MsgsIn, total)
	}
	if st.AdmissionWaits == 0 {
		t.Error("expected AdmissionWaits > 0 with the gauge pinned over a 2 KiB window")
	}
	if st.AdmissionTimeouts == 0 {
		t.Error("expected AdmissionTimeouts > 0: the pinned gauge can never drain")
	}
}

// TestAdmissionWaitsResolveUnderDrain is the healthy half: with a
// reading subscriber the gauge drains, so parked publishers resume
// without a single timeout even under a window far smaller than the
// traffic.
func TestAdmissionWaitsResolveUnderDrain(t *testing.T) {
	srv := NewServer(WithSeed(1), WithPublishAdmission(2048, 5*time.Second))
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	addr := srv.Addr().String()

	var got atomic.Int64
	sub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if _, err := sub.Subscribe("drain.x", func(Msg) { got.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if err := sub.Flush(time.Second); err != nil {
		t.Fatal(err)
	}

	pub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	payload := make([]byte, 512)
	const total = 200
	for i := 0; i < total; i++ {
		if err := pub.Publish("drain.x", payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for got.Load() != total && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got.Load() != total {
		t.Fatalf("delivered %d of %d", got.Load(), total)
	}
	if st := srv.Stats(); st.AdmissionTimeouts != 0 {
		t.Errorf("AdmissionTimeouts = %d with a draining subscriber, want 0", st.AdmissionTimeouts)
	}
}

// TestAdmissionQuitUnblocks pins the shutdown interaction: a publisher
// parked on the gauge must wake (and report success, so the reader can
// run to its exit) the moment the server's quit channel closes.
func TestAdmissionQuitUnblocks(t *testing.T) {
	a := &admission{limit: 1}
	a.add(10)
	quit := make(chan struct{})
	res := make(chan bool, 1)
	go func() { res <- a.wait(30*time.Second, quit) }()
	time.Sleep(10 * time.Millisecond)
	close(quit)
	select {
	case ok := <-res:
		if !ok {
			t.Error("wait reported timeout on quit, want true")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wait did not unblock on quit")
	}
}

// TestAdmissionDoneWakes pins the normal wake path: done() crossing
// back under the window releases a parked waiter well before its
// timeout.
func TestAdmissionDoneWakes(t *testing.T) {
	a := &admission{limit: 100}
	a.add(200)
	go func() {
		time.Sleep(20 * time.Millisecond)
		a.done(150)
	}()
	start := time.Now()
	if !a.wait(30*time.Second, nil) {
		t.Fatal("wait timed out, want wake via done()")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("wait took %v, want prompt wake", d)
	}
}

// TestStatsSnapshotConsistent pins what a Stats snapshot promises: under
// concurrent load with the drop policy, every snapshot must satisfy
// MsgsOut + SlowConsumerDrops == fanout * MsgsIn and the byte counters
// must be exact multiples of the fixed payload size. Field-by-field
// atomic loads (the PR 7 Stats) tear these invariants constantly. The
// second case has four publishers on four subjects, so their batches
// interleave on the index lock.
func TestStatsSnapshotConsistent(t *testing.T) {
	for _, tc := range []struct {
		name     string
		subjects []string // one publisher each
		fanout   int      // subscribers per subject
	}{
		{"one publisher", []string{"stat.x"}, 1},
		{"four publishers", []string{"stat0.x", "stat1.x", "stat2.x", "stat3.x"}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			statsSnapshotConsistent(t, tc.subjects, uint64(tc.fanout))
		})
	}
}

func statsSnapshotConsistent(t *testing.T, subjects []string, fanout uint64) {
	srv := NewServer(WithSeed(1), WithSlowConsumerPolicy(SlowConsumerDrop))
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	addr := srv.Addr().String()

	for i := uint64(0); i < fanout; i++ {
		sub, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		for _, subj := range subjects {
			if _, err := sub.Subscribe(subj, func(Msg) {}); err != nil {
				t.Fatal(err)
			}
		}
		if err := sub.Flush(time.Second); err != nil {
			t.Fatal(err)
		}
	}

	const payloadSize = 128
	const perPublisher = 10000
	total := uint64(perPublisher * len(subjects))
	pubDone := make(chan error, len(subjects))
	for _, subj := range subjects {
		go func(subj string) {
			pub, err := Dial(addr)
			if err != nil {
				pubDone <- err
				return
			}
			defer pub.Close()
			payload := make([]byte, payloadSize)
			for i := 0; i < perPublisher; i++ {
				if err := pub.Publish(subj, payload); err != nil {
					pubDone <- err
					return
				}
			}
			pubDone <- pub.Flush(10 * time.Second)
		}(subj)
	}

	deadline := time.Now().Add(30 * time.Second)
	done := 0
	for done < len(subjects) || srv.Stats().MsgsIn < total {
		if time.Now().After(deadline) {
			t.Fatalf("timed out at MsgsIn = %d of %d", srv.Stats().MsgsIn, total)
		}
		st := srv.Stats()
		if st.MsgsOut+st.SlowConsumerDrops != fanout*st.MsgsIn {
			t.Fatalf("torn snapshot: MsgsOut %d + drops %d != %d * MsgsIn %d",
				st.MsgsOut, st.SlowConsumerDrops, fanout, st.MsgsIn)
		}
		if st.BytesIn != st.MsgsIn*payloadSize {
			t.Fatalf("torn snapshot: BytesIn %d != MsgsIn %d * %d", st.BytesIn, st.MsgsIn, payloadSize)
		}
		if st.BytesOut != st.MsgsOut*payloadSize {
			t.Fatalf("torn snapshot: BytesOut %d != MsgsOut %d * %d", st.BytesOut, st.MsgsOut, payloadSize)
		}
		select {
		case err := <-pubDone:
			if err != nil {
				t.Fatal(err)
			}
			done++
		default:
		}
	}
}
