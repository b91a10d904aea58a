// Package broker implements a NATS-style TCP publish/subscribe broker and
// client: subject-based routing with '*'/'>' wildcards and queue groups
// over a line-oriented protocol, federated across brokers by inter-broker
// routes with subject-interest propagation.
//
// The broker plays two roles in this repository. It is the "conventional
// cloud pub/sub" contrast the paper draws (JMS/WS-Notification-class
// systems offer subject routing but no fine-grained QoS or transport
// configurability), and it gives the runnable examples a real-socket data
// path alongside the simulated DDS/ANT stack.
//
// The data path is built for high fan-out and bounded latency:
// subscriptions live in sharded subject-token tries with per-subject
// match caches (sublist.go); a reader goroutine parses every PUB (or, on
// a route, RMSG) that is already buffered on its socket into one ingest
// batch and routes the batch with one shard-lock acquisition per shard run
// and one trie/cache probe per distinct subject (routeBatch); payload and
// subject live in a refcounted arena buffer (arena.go) shared across the
// whole fan-out; deliveries are staged per destination and enter its
// bounded queue a run at a time, and writer goroutines drain the queues
// into vectored writev batches, encoding the MSG headers as they go
// (outbound.go); and a publish-admission gauge (admission.go)
// paces unpaced publishers instead of letting internal queues grow into
// seconds of latency.
//
// Every connection — client or inter-broker route — is built on the same
// link substrate (link.go): framed reader, arena payloads, bounded
// outbound queue, vectored writer. Federation (route.go) adds a ROUTE
// handshake, RS+/RS- interest propagation, origin-tagged RMSG forwarding
// with one-hop dedup, and gossip membership with heartbeat failure
// detection.
//
// Wire protocol (text, CRLF-terminated control lines):
//
//	C->S: CONNECT <name>
//	C->S: SUB <subject> [queue] <sid>
//	C->S: UNSUB <sid>
//	C->S: PUB <subject> <nbytes>\r\n<payload>
//	C->S: PING               S->C: PONG
//	S->C: MSG <subject> <sid> <nbytes>\r\n<payload>
//	S->C: -ERR <message>
//
// Inter-broker route protocol (route.go):
//
//	B->B: ROUTE <serverID> <clusterAddr>
//	B->B: RS+ <pattern> [queue]     RS- <pattern> [queue]
//	B->B: RMSG <subject> <origin> <nbytes> [queue...]\r\n<payload>
//	B->B: RINFO <serverID> <clusterAddr>
//	B->B: PING / PONG
package broker

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// MaxPayload bounds a single message payload.
const MaxPayload = 1 << 20

// Ingest batching bounds: a reader routes its pending publishes once it
// has this many messages or payload bytes, or as soon as its socket has
// no complete command left buffered (so batching never adds latency —
// it only amortizes work that is already waiting).
const (
	maxIngestBatch = 256
	maxIngestBytes = 256 << 10
)

// ServerStats are cumulative broker counters. A Stats snapshot is
// internally consistent: all fields come from the same seqlock
// generation, so invariants that hold per update batch (e.g. BytesOut
// matching MsgsOut for a fixed payload size) hold in every snapshot.
type ServerStats struct {
	Connections   uint64
	MsgsIn        uint64
	MsgsOut       uint64
	BytesIn       uint64
	BytesOut      uint64
	Subscriptions uint64

	// SlowConsumerDrops counts frames dropped by SlowConsumerDrop;
	// SlowConsumerDisconnects counts clients evicted by
	// SlowConsumerDisconnect.
	SlowConsumerDrops       uint64
	SlowConsumerDisconnects uint64

	// AdmissionWaits counts publish batches that parked on the admission
	// gauge; AdmissionTimeouts counts the subset that gave up waiting and
	// proceeded (see admission.go for why the wait is bounded).
	AdmissionWaits    uint64
	AdmissionTimeouts uint64

	// Federation counters (route.go). Routes is the number of live
	// inter-broker routes (a gauge); RemoteSubs is the number of remote
	// interest entries currently installed by peers (a gauge); RoutedMsgs
	// counts RMSG frames forwarded to peers; DupsSuppressed counts
	// inbound routed frames dropped by the origin-tag dedup rule (our own
	// origin echoed back, i.e. a loop a misconfigured mesh would create).
	Routes         uint64
	RemoteSubs     uint64
	RoutedMsgs     uint64
	DupsSuppressed uint64
}

// counters is the seqlock-guarded stats block. Writers (routeBatch and
// the rare connection/subscription events) serialize on mu and bump seq
// to odd around their field updates; Stats spins until it reads the same
// even seq before and after loading the fields, so a snapshot can never
// mix counters from two different updates. The fields stay atomics so
// the reader's loads are race-clean while a writer is mid-update.
type counters struct {
	mu  sync.Mutex
	seq atomic.Uint64

	connections       atomic.Uint64
	msgsIn            atomic.Uint64
	msgsOut           atomic.Uint64
	bytesIn           atomic.Uint64
	bytesOut          atomic.Uint64
	subscriptions     atomic.Uint64
	slowDrops         atomic.Uint64
	slowDisconnects   atomic.Uint64
	admissionWaits    atomic.Uint64
	admissionTimeouts atomic.Uint64
	routes            atomic.Uint64
	remoteSubs        atomic.Uint64
	routedMsgs        atomic.Uint64
	dupsSuppressed    atomic.Uint64
}

// write runs fn (which updates counter fields) inside one seqlock
// generation.
func (c *counters) write(fn func()) {
	c.mu.Lock()
	c.seq.Add(1)
	fn()
	c.seq.Add(1)
	c.mu.Unlock()
}

// options collects server tuning knobs; all have workable defaults.
type options struct {
	seed             int64
	hasSeed          bool
	shards           int
	queueFrames      int
	queueBytes       int64
	slowPolicy       SlowConsumerPolicy
	admissionBytes   int64
	admissionTimeout time.Duration

	id          string
	clusterAddr string
	hbInterval  time.Duration
	hbSuspect   time.Duration
}

// Option configures a Server at construction time.
type Option func(*options)

// WithSeed fixes the rng seed used for queue-group member picks, making
// pick order reproducible (each routing shard derives its own stream
// from it). Without it the seed comes from the ADAMANT_BROKER_SEED
// environment variable if set, else from the clock.
func WithSeed(seed int64) Option {
	return func(o *options) { o.seed = seed; o.hasSeed = true }
}

// WithShards sets the routing shard count (default 8). More shards mean
// less publish contention across disjoint subject spaces.
func WithShards(n int) Option {
	return func(o *options) {
		if n > 0 {
			o.shards = n
		}
	}
}

// WithWriteQueue bounds each client's outbound queue in frames and
// payload bytes (defaults 16384 frames / 32 MiB). Overflow triggers the
// slow-consumer policy.
func WithWriteQueue(frames int, bytes int64) Option {
	return func(o *options) {
		if frames > 0 {
			o.queueFrames = frames
		}
		if bytes > 0 {
			o.queueBytes = bytes
		}
	}
}

// WithSlowConsumerPolicy selects the overflow policy (default
// SlowConsumerDisconnect).
func WithSlowConsumerPolicy(p SlowConsumerPolicy) Option {
	return func(o *options) { o.slowPolicy = p }
}

// WithPublishAdmission sets the publish-admission window: readers park
// before routing while more than maxBytes of accepted frames are queued
// server-wide, for at most timeout per batch (then proceed, counted in
// ServerStats.AdmissionTimeouts). maxBytes < 0 disables admission; zero
// values keep the defaults (32 MiB window, 1s timeout).
func WithPublishAdmission(maxBytes int64, timeout time.Duration) Option {
	return func(o *options) {
		if maxBytes < 0 {
			o.admissionBytes = -1
		} else if maxBytes > 0 {
			o.admissionBytes = maxBytes
		}
		if timeout > 0 {
			o.admissionTimeout = timeout
		}
	}
}

// WithServerID fixes the broker's server ID, the identity used in the
// ROUTE handshake and stamped as the origin tag on every forwarded RMSG.
// IDs must be unique across a mesh and contain no whitespace; the
// default is unique per process+instance.
func WithServerID(id string) Option {
	return func(o *options) {
		if id != "" {
			o.id = id
		}
	}
}

// WithClusterAdvertise sets the address gossiped to peers (RINFO) as
// this broker's route-reachable endpoint. Without it the broker does not
// advertise itself: explicitly configured routes still work, but other
// brokers cannot auto-discover this one.
func WithClusterAdvertise(addr string) Option {
	return func(o *options) { o.clusterAddr = addr }
}

// WithRouteHeartbeat tunes route failure detection: a PING is sent on
// every route each interval, and a route silent for longer than suspect
// is declared dead and torn down (withdrawing the peer's interest).
// Defaults: 500ms interval, 4x interval suspect bound.
func WithRouteHeartbeat(interval, suspect time.Duration) Option {
	return func(o *options) {
		if interval > 0 {
			o.hbInterval = interval
		}
		if suspect > 0 {
			o.hbSuspect = suspect
		}
	}
}

// Server is the broker. Create with NewServer, start with Serve or
// ListenAndServe, stop with Shutdown (abrupt) or DrainShutdown
// (graceful: queued deliveries are flushed first).
type Server struct {
	opts   options
	id     string
	shards []*shard
	stats  counters
	adm    *admission // nil when admission is disabled
	quit   chan struct{}

	// numSubs is the live logical subscription count (a wildcard-first
	// pattern is stored in every shard but counts once).
	numSubs atomic.Int64

	// Federation state (route.go): live routes by peer server ID, the
	// refcounted local interest set propagated to peers, and the set of
	// route targets being dialed. All guarded by fedMu; fedMu is never
	// held together with a shard lock.
	fedMu         sync.Mutex
	routes        map[string]*route
	localInterest map[interestKey]int
	dialing       map[string]bool
	monitorOn     bool

	mu       sync.Mutex
	ln       net.Listener
	routeLns []net.Listener
	clients  map[*serverClient]struct{}
	nextCID  uint64
	shutdown bool
	done     chan struct{}
	doneOnce sync.Once
}

// interestKey identifies one propagated (pattern, queue) interest.
type interestKey struct {
	pattern string
	queue   string
}

// serverSub is one subscription entry in the routing trie: either a
// local client subscription (client set) or a peer broker's propagated
// interest (rt set). Exactly one of client/rt is non-nil.
type serverSub struct {
	client  *serverClient
	rt      *route
	pattern string
	queue   string
	sid     string
}

// serverIDSeq disambiguates default server IDs within one process.
var serverIDSeq atomic.Uint64

// NewServer returns an idle broker.
func NewServer(opts ...Option) *Server {
	o := options{
		shards:           8,
		queueFrames:      defaultQueueFrames,
		queueBytes:       defaultQueueBytes,
		slowPolicy:       SlowConsumerDisconnect,
		admissionBytes:   defaultAdmissionBytes,
		admissionTimeout: defaultAdmissionTimeout,
		clusterAddr:      "-",
		hbInterval:       defaultRouteHeartbeat,
		hbSuspect:        defaultRouteSuspect,
	}
	for _, fn := range opts {
		fn(&o)
	}
	if !o.hasSeed {
		if env := os.Getenv("ADAMANT_BROKER_SEED"); env != "" {
			if v, err := strconv.ParseInt(env, 10, 64); err == nil {
				o.seed = v
				o.hasSeed = true
			}
		}
	}
	if !o.hasSeed {
		o.seed = time.Now().UnixNano()
	}
	if o.id == "" {
		// Unique within the process via the counter, across processes
		// (overwhelmingly) via the clock. WithServerID pins it for tests
		// and multi-host meshes.
		o.id = fmt.Sprintf("s%x.%x", uint64(time.Now().UnixNano())&0xffffffff, serverIDSeq.Add(1))
	}
	if o.clusterAddr == "" {
		o.clusterAddr = "-"
	}
	s := &Server{
		opts:          o,
		id:            o.id,
		shards:        make([]*shard, o.shards),
		clients:       make(map[*serverClient]struct{}),
		routes:        make(map[string]*route),
		localInterest: make(map[interestKey]int),
		dialing:       make(map[string]bool),
		done:          make(chan struct{}),
		quit:          make(chan struct{}),
	}
	if o.admissionBytes > 0 {
		s.adm = &admission{limit: o.admissionBytes}
	}
	for i := range s.shards {
		s.shards[i] = newShard(o.seed + int64(i))
	}
	return s
}

// ID returns the broker's server ID (the RMSG origin tag).
func (s *Server) ID() string { return s.id }

// ListenAndServe listens on addr ("host:port", ":0" for ephemeral) and
// serves until Shutdown. It returns once the listener is bound; serving
// continues in background goroutines.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("broker: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	go s.Serve(ln)
	return nil
}

// ListenRoutes opens a dedicated listener for inter-broker route
// connections (the -cluster-listen port). Routes speak the same framed
// protocol — a connection becomes a route via the ROUTE handshake — so
// this is an isolation knob, not a different stack: client traffic and
// route traffic can be firewalled and provisioned separately.
func (s *Server) ListenRoutes(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("broker: cluster listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		ln.Close()
		return errors.New("broker: server is shut down")
	}
	s.routeLns = append(s.routeLns, ln)
	s.mu.Unlock()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if s.startClient(conn) == nil {
				return
			}
		}
	}()
	return nil
}

// Addr returns the bound listener address, or nil before ListenAndServe.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// RouteAddr returns the first bound route listener address, or nil when
// routes share the client listener.
func (s *Server) RouteAddr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.routeLns) == 0 {
		return nil
	}
	return s.routeLns[0].Addr()
}

// Serve accepts connections on ln until Shutdown.
func (s *Server) Serve(ln net.Listener) {
	defer s.doneOnce.Do(func() { close(s.done) })
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		ln.Close()
		return
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed by Shutdown
		}
		if s.startClient(conn) == nil {
			return
		}
	}
}

// startClient registers conn and spawns its reader and writer
// goroutines. It returns nil when the server is shutting down.
func (s *Server) startClient(conn net.Conn) *serverClient {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		conn.Close()
		return nil
	}
	s.nextCID++
	c := &serverClient{srv: s, id: s.nextCID, subs: make(map[string][]*serverSub)}
	c.link.init(conn, s.opts.queueFrames, s.opts.queueBytes, s.adm)
	s.clients[c] = struct{}{}
	s.mu.Unlock()
	st := &s.stats
	st.write(func() { st.connections.Add(1) })
	go c.run()
	c.startWriter()
	return c
}

// Shutdown closes the listeners and every client and route connection.
func (s *Server) Shutdown() {
	conns := s.beginShutdown()
	for _, c := range conns {
		c.Close()
	}
}

// DrainShutdown is the graceful stop: it stops accepting, closes every
// connection's outbound queue so the writer drains and flushes what is
// already queued, and waits up to timeout for the connections to wind
// down before force-closing stragglers. Queued deliveries that had
// already been routed reach their subscribers; a zero timeout degrades
// to Shutdown.
func (s *Server) DrainShutdown(timeout time.Duration) {
	conns := s.beginShutdown()
	if timeout <= 0 {
		for _, c := range conns {
			c.Close()
		}
		return
	}
	s.mu.Lock()
	clients := make([]*serverClient, 0, len(s.clients))
	for c := range s.clients {
		clients = append(clients, c)
	}
	s.mu.Unlock()
	// Closing the queue makes the writer drain the backlog, flush, and
	// close the connection; the reader then unblocks and tears down.
	for _, c := range clients {
		c.out.close()
	}
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		n := len(s.clients)
		s.mu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			for _, c := range conns {
				c.Close()
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// beginShutdown flips the shutdown flag, closes the listeners, and
// returns every live connection (clients and routes) without closing
// them — Shutdown and DrainShutdown differ only in what they do next.
func (s *Server) beginShutdown() []net.Conn {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		return nil
	}
	s.shutdown = true
	close(s.quit) // wake parked publishers, route dialers, the monitor
	ln := s.ln
	rlns := s.routeLns
	var conns []net.Conn
	for c := range s.clients {
		conns = append(conns, c.conn)
	}
	s.mu.Unlock()
	s.fedMu.Lock()
	for _, r := range s.routes {
		conns = append(conns, r.ln.conn)
	}
	s.fedMu.Unlock()
	for _, l := range rlns {
		l.Close()
	}
	if ln != nil {
		ln.Close()
		<-s.done
	}
	return conns
}

// Stats returns an internally consistent snapshot of the broker
// counters: the seqlock retry guarantees all fields belong to the same
// update generation (no torn reads across counters mid-publish).
func (s *Server) Stats() ServerStats {
	c := &s.stats
	for {
		s1 := c.seq.Load()
		if s1&1 == 0 {
			snap := ServerStats{
				Connections:             c.connections.Load(),
				MsgsIn:                  c.msgsIn.Load(),
				MsgsOut:                 c.msgsOut.Load(),
				BytesIn:                 c.bytesIn.Load(),
				BytesOut:                c.bytesOut.Load(),
				Subscriptions:           c.subscriptions.Load(),
				SlowConsumerDrops:       c.slowDrops.Load(),
				SlowConsumerDisconnects: c.slowDisconnects.Load(),
				AdmissionWaits:          c.admissionWaits.Load(),
				AdmissionTimeouts:       c.admissionTimeouts.Load(),
				Routes:                  c.routes.Load(),
				RemoteSubs:              c.remoteSubs.Load(),
				RoutedMsgs:              c.routedMsgs.Load(),
				DupsSuppressed:          c.dupsSuppressed.Load(),
			}
			if c.seq.Load() == s1 {
				return snap
			}
		}
		runtime.Gosched()
	}
}

// NumSubscriptions returns the live local subscription count.
func (s *Server) NumSubscriptions() int {
	return int(s.numSubs.Load())
}

// admitPublishes applies publish admission before a batch is routed:
// park (off every lock) while the outstanding-bytes gauge is over the
// window, for at most the configured timeout.
func (s *Server) admitPublishes() {
	a := s.adm
	if a == nil || !a.over() {
		return
	}
	st := &s.stats
	st.write(func() { st.admissionWaits.Add(1) })
	if !a.wait(s.opts.admissionTimeout, s.quit) {
		st.write(func() { st.admissionTimeouts.Add(1) })
	}
}

// pendingPub is one parsed-but-unrouted message in a reader's ingest
// batch: payload and subject in a refcounted arena buffer (publisher
// hold). A message that arrived on a route also carries the queue-group
// names of its RMSG line, separated by single spaces, and whether its
// origin tag is this broker's own ID.
type pendingPub struct {
	pb         *payloadRef
	queues     []byte
	selfOrigin bool
}

// ingest is the batch state of a link's reader goroutine, the same for a
// client connection (PUB) and a route (RMSG): the parsed messages waiting
// to be routed, and the scratch routeBatch needs to route them — the
// per-peer forwarding accumulator, the stager, and the member pool of an
// inbound queue-group pick.
type ingest struct {
	pending      []pendingPub
	pendingBytes int
	qnames       []byte // backing store of pendingPub.queues

	fwd    fwdScratch
	st     stager
	localQ []*serverSub
}

// full reports whether the batch has reached its bounds.
func (in *ingest) full() bool {
	return len(in.pending) >= maxIngestBatch || in.pendingBytes >= maxIngestBytes
}

// flushIngest routes a reader's pending batch and resets it. from is the
// route the batch arrived on, nil for a client's publishes; only those
// wait for admission (a parked route reader would stop answering
// heartbeats, and what it carries was admitted at the origin).
func (s *Server) flushIngest(in *ingest, from *route) {
	if len(in.pending) == 0 {
		return
	}
	if from == nil {
		s.admitPublishes()
	}
	s.routeBatch(in, from)
	clear(in.pending)
	in.pending = in.pending[:0]
	in.pendingBytes = 0
	in.qnames = in.qnames[:0]
}

// fwdEntry is one peer the current message must be forwarded to: plain
// interest, queue-group picks that landed on that peer, or both. One
// RMSG per entry carries it all — the per-peer dedup that makes mesh
// delivery exactly-once.
type fwdEntry struct {
	rt     *route
	queues []string
}

// fwdScratch is a reader goroutine's reusable forwarding accumulator.
// Entries (and their queue-name backing slices) are recycled across
// messages so the forwarding path allocates nothing in steady state.
type fwdScratch struct {
	entries []fwdEntry
	n       int
}

func (f *fwdScratch) reset() {
	for i := 0; i < f.n; i++ {
		f.entries[i].rt = nil
		f.entries[i].queues = f.entries[i].queues[:0]
	}
	f.n = 0
}

// add returns the entry for rt, creating it if this is the first
// delivery decision for that peer in the current message.
func (f *fwdScratch) add(rt *route) *fwdEntry {
	for i := 0; i < f.n; i++ {
		if f.entries[i].rt == rt {
			return &f.entries[i]
		}
	}
	if f.n < len(f.entries) {
		f.entries[f.n].rt = rt
	} else {
		f.entries = append(f.entries, fwdEntry{rt: rt})
	}
	f.n++
	return &f.entries[f.n-1]
}

// addQueue records a queue-group pick for the entry, deduplicating by
// group name (two patterns matching the same group on the same peer
// must not double-deliver).
func (e *fwdEntry) addQueue(name string) {
	for _, q := range e.queues {
		if q == name {
			return
		}
	}
	e.queues = append(e.queues, name)
}

// routeBatch delivers a reader's ingest batch in order. Consecutive
// messages on the same shard reuse one lock acquisition, consecutive
// messages on the same subject reuse one match result (valid for the
// whole run because sub/unsub needs the same shard lock we hold), the
// deliveries are staged per destination link and enter each queue a run at
// a time (stager), and the batch's counter updates collapse into a single
// seqlock write.
//
// A client's publish (from == nil) goes to every matching local
// subscription and to one member of every matching queue group, chosen by
// the shard's seeded rng among local members and peer interests alike —
// the pick that makes queue semantics mesh-wide. Matching remote interests
// collapse into at most one origin-tagged RMSG per peer per message
// (fwdScratch).
//
// A message that arrived on a route is the receiving half of the one-hop
// rule: remote interests in the match result are skipped (never
// re-forwarded), and a message carrying our own origin tag is dropped
// entirely and counted — together they make mesh delivery exactly-once and
// loop-free. For each queue-group name listed in the RMSG, the local
// members of every matching group with that name are pooled and one is
// chosen: the origin broker already picked this broker as the group's
// mesh-wide winner.
func (s *Server) routeBatch(in *ingest, from *route) {
	var (
		sh      *shard
		shardID = -1
		rs      *routeSet
		subject []byte

		msgsIn, bytesIn, dups uint64
	)
	st, fwd := &in.st, &in.fwd
	policy := s.opts.slowPolicy
	for i := range in.pending {
		m := &in.pending[i]
		if m.selfOrigin {
			dups++
			continue
		}
		pb := m.pb
		subj := pb.subj
		idx := shardIndexBytes(subj, len(s.shards))
		if idx != shardID {
			if sh != nil {
				st.flush() // before the unlock: stager rule 1
				sh.mu.Unlock()
			}
			sh = s.shards[idx]
			sh.mu.Lock()
			shardID = idx
			rs, subject = nil, nil
		}
		if rs == nil || !bytes.Equal(subj, subject) {
			rs = sh.matchBytes(subj)
			subject = subj
		}
		fwd.reset()
		for _, sub := range rs.plain {
			if sub.rt == nil {
				st.add(&sub.client.link, policy, outFrame{sid: sub.sid, pb: pb})
			} else if from == nil {
				fwd.add(sub.rt)
			}
		}
		if from == nil {
			for _, members := range rs.queues {
				pick := members[sh.rng.Intn(len(members))]
				if pick.rt != nil {
					fwd.add(pick.rt).addQueue(pick.queue)
					continue
				}
				st.add(&pick.client.link, policy, outFrame{sid: pick.sid, pb: pb})
			}
		}
		// The queue names of an RMSG; a client's publish has none.
		for rest := m.queues; len(rest) > 0; {
			name := rest
			if sp := bytes.IndexByte(rest, ' '); sp >= 0 {
				name, rest = rest[:sp], rest[sp+1:]
			} else {
				rest = nil
			}
			in.localQ = in.localQ[:0]
			for _, members := range rs.queues {
				if string(name) != members[0].queue {
					continue
				}
				for _, mem := range members {
					if mem.rt == nil {
						in.localQ = append(in.localQ, mem)
					}
				}
			}
			if len(in.localQ) == 0 {
				continue
			}
			pick := in.localQ[sh.rng.Intn(len(in.localQ))]
			st.add(&pick.client.link, policy, outFrame{sid: pick.sid, pb: pb})
		}
		// Routes always use the disconnect overflow policy: silently
		// dropping inter-broker traffic would violate exactly-once delivery
		// invisibly, while a disconnect is detected and repaired by the
		// redial/gossip machinery.
		for j := 0; j < fwd.n; j++ {
			e := &fwd.entries[j]
			hdr := encodeRMsgHeader(subj, s.id, len(pb.data), e.queues)
			st.add(e.rt.ln, SlowConsumerDisconnect, outFrame{hdr: hdr, pb: pb})
		}
		msgsIn++
		bytesIn += uint64(len(pb.data))
	}
	if sh != nil {
		st.flush()
		sh.mu.Unlock()
	}
	// Only now, after the last flush, do the publisher holds go: until a
	// run is flushed they are all that keeps its payloads (stager rule 3).
	for i := range in.pending {
		in.pending[i].pb.release(1)
	}
	out := st.total
	st.total = runResult{}
	c := &s.stats
	c.write(func() {
		c.msgsIn.Add(msgsIn)
		c.bytesIn.Add(bytesIn)
		c.msgsOut.Add(out.msgs)
		c.bytesOut.Add(out.msgBytes)
		if out.rmsgs > 0 {
			c.routedMsgs.Add(out.rmsgs)
		}
		if out.drops > 0 {
			c.slowDrops.Add(out.drops)
		}
		if out.disconnects > 0 {
			c.slowDisconnects.Add(out.disconnects)
		}
		if dups > 0 {
			c.dupsSuppressed.Add(dups)
		}
	})
}

func (s *Server) addSub(sub *serverSub) {
	c := sub.client
	c.smu.Lock()
	c.subs[sub.sid] = append(c.subs[sub.sid], sub)
	c.smu.Unlock()
	s.eachPatternShard(sub.pattern, func(sh *shard) {
		sh.insert(sub)
	})
	st := &s.stats
	st.write(func() { st.subscriptions.Add(1) })
	s.numSubs.Add(1)
	s.interestAdd(sub.pattern, sub.queue)
}

func (s *Server) removeSub(c *serverClient, sid string) {
	c.smu.Lock()
	subs := c.subs[sid]
	delete(c.subs, sid)
	c.smu.Unlock()
	for _, sub := range subs {
		s.eachPatternShard(sub.pattern, func(sh *shard) {
			sh.remove(sub)
		})
		s.numSubs.Add(-1)
		s.interestDrop(sub.pattern, sub.queue)
	}
}

// eachPatternShard runs fn under the lock of every shard the pattern
// routes through: one for a literal first token, all for a wildcard.
func (s *Server) eachPatternShard(pattern string, fn func(*shard)) {
	if idx := shardIndex(pattern, len(s.shards)); idx >= 0 {
		sh := s.shards[idx]
		sh.mu.Lock()
		fn(sh)
		sh.mu.Unlock()
		return
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		fn(sh)
		sh.mu.Unlock()
	}
}

// dropClient deregisters c and removes its subscriptions.
func (s *Server) dropClient(c *serverClient) {
	s.mu.Lock()
	delete(s.clients, c)
	s.mu.Unlock()
	s.clearSubs(c)
}

// clearSubs removes every subscription c holds (used on teardown and
// when a connection upgrades to a route, which keeps no client subs).
func (s *Server) clearSubs(c *serverClient) {
	c.smu.Lock()
	all := c.subs
	c.subs = make(map[string][]*serverSub)
	c.smu.Unlock()
	for _, subs := range all {
		for _, sub := range subs {
			s.eachPatternShard(sub.pattern, func(sh *shard) {
				sh.remove(sub)
			})
			s.numSubs.Add(-1)
			s.interestDrop(sub.pattern, sub.queue)
		}
	}
}

type serverClient struct {
	link
	srv *Server
	id  uint64

	smu  sync.Mutex
	subs map[string][]*serverSub // sid -> subs (duplicate sids allowed)
}

func (c *serverClient) run() {
	defer func() {
		// Route fully received publishes before teardown — a pipelined
		// publisher that disconnects right after writing must not lose its
		// tail (same semantics as the PR 7 route-per-publish path).
		c.flushPubs()
		c.srv.dropClient(c)
		// The writer drains queued replies (-ERR, PONG, trailing MSGs),
		// flushes, and closes the connection.
		c.out.close()
	}()
	var fields [8][]byte
	for {
		if len(c.in.pending) > 0 && !c.completeLineBuffered() {
			// The next read would block (or the buffer holds only a partial
			// line): route what we have instead of sitting on it.
			c.flushPubs()
		}
		line, err := c.readLine()
		if err != nil {
			return
		}
		nf := splitFields(line, fields[:0])
		if len(nf) == 0 {
			continue
		}
		cmd := nf[0]
		switch {
		case asciiFold(cmd, "PUB"):
			if err := c.handlePub(nf); err != nil {
				return
			}
		case asciiFold(cmd, "SUB"):
			c.flushPubs() // strict command order: prior PUBs route first
			c.handleSub(nf)
		case asciiFold(cmd, "UNSUB"):
			c.flushPubs()
			if len(nf) != 2 {
				c.sendErr("UNSUB requires <sid>")
				continue
			}
			c.srv.removeSub(c, string(nf[1]))
		case asciiFold(cmd, "PING"):
			// PONG is the client's flush barrier: everything sent before the
			// PING must be fully processed, so route pending publishes first.
			c.flushPubs()
			c.sendLine("PONG")
		case asciiFold(cmd, "CONNECT"):
			// Name is informational only.
		case asciiFold(cmd, "ROUTE"):
			// The peer is another broker: upgrade this connection to a
			// route (route.go). The link — reader position, outbound
			// queue, writer goroutine — carries over; only the command
			// loop changes. acceptRoute returns when the route dies and
			// the deferred client teardown completes the cleanup.
			c.flushPubs()
			c.srv.acceptRoute(c, nf)
			return
		default:
			c.flushPubs()
			c.sendErr("unknown command " + string(cmd))
		}
	}
}

// flushPubs routes the client's pending ingest batch.
func (c *serverClient) flushPubs() { c.srv.flushIngest(&c.in, nil) }

func (c *serverClient) handleSub(fields [][]byte) {
	var pattern, queue, sid string
	switch len(fields) {
	case 3:
		pattern, sid = string(fields[1]), string(fields[2])
	case 4:
		pattern, queue, sid = string(fields[1]), string(fields[2]), string(fields[3])
	default:
		c.sendErr("SUB requires <subject> [queue] <sid>")
		return
	}
	if err := ValidatePattern(pattern); err != nil {
		c.sendErr(err.Error())
		return
	}
	c.srv.addSub(&serverSub{client: c, pattern: pattern, queue: queue, sid: sid})
}

// handlePub parses one publish into the client's ingest batch. The batch
// is routed when it hits its size bounds, when the socket has nothing
// more buffered (see run), or — to preserve command order — before any
// non-PUB command. A returned error tears the connection down (the
// stream is unframeable).
func (c *serverClient) handlePub(fields [][]byte) error {
	if len(fields) != 3 {
		c.flushPubs() // error replies keep command order, like any non-PUB
		c.sendErr("PUB requires <subject> <nbytes>")
		return nil
	}
	n, ok := parseSize(fields[2])
	if !ok {
		c.flushPubs()
		c.sendErr("bad payload size")
		return errors.New("broker: bad payload size")
	}
	if len(c.in.pending) > 0 && c.r.Buffered() < n+2 {
		// The payload read below will block on the socket; route what we
		// already have first so batching never delays delivery.
		c.flushPubs()
	}
	pb, err := c.readPayload(fields[1], n)
	if err != nil {
		return err
	}
	if !validSubjectBytes(pb.subj) {
		bad := string(pb.subj)
		pb.release(1)
		c.flushPubs()
		if err := ValidateSubject(bad); err != nil {
			c.sendErr(err.Error())
		} else {
			c.sendErr("invalid subject")
		}
		return nil
	}
	c.in.pending = append(c.in.pending, pendingPub{pb: pb})
	c.in.pendingBytes += n
	if c.in.full() {
		c.flushPubs()
	}
	return nil
}

// validSubjectBytes is the allocation-free publish-subject check:
// non-empty dot tokens, no wildcards. (Whitespace cannot appear — the
// field splitter already consumed it.)
func validSubjectBytes(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	prev := byte('.')
	for _, ch := range b {
		switch ch {
		case '.':
			if prev == '.' {
				return false
			}
		case '*', '>':
			return false
		}
		prev = ch
	}
	return prev != '.'
}
