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
// subscriptions live in one subject-token trie with a per-subject match
// cache (sublist.go); a connection's protocol core parses every PUB (or,
// on a route, RMSG) in the bytes one socket read handed it into one ingest
// batch and routes the batch under one acquisition of the index lock, with
// one trie/cache probe per run of a subject (routeBatch, ingest.go),
// counting what it routed under the same lock (stats.go); payload and
// subject live in a refcounted arena buffer (arena.go) shared across the
// whole fan-out; deliveries are staged per destination and enter its
// bounded queue a run at a time, and writer goroutines drain the queues
// into vectored writev batches, encoding the MSG headers as they go
// (outbound.go); and a publish-admission gauge (admission.go) paces
// unpaced publishers instead of letting internal queues grow into seconds
// of latency.
//
// Every connection — client or inter-broker route — is built on the same
// link substrate (link.go): arena payloads, bounded outbound queue,
// vectored writer; and runs the same protocol core (conn.go), fed the
// bytes each read returns and the server clock's reading by one thin
// driver goroutine (serverClient.run); the role picks the message verb and
// the command set. Federation (route.go) adds a ROUTE handshake, RS+/RS-
// interest propagation, origin-tagged RMSG forwarding with one-hop dedup,
// and gossip membership with heartbeat failure detection.
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
// Inter-broker route protocol (conn.go, route.go):
//
//	B->B: ROUTE <serverID> <clusterAddr>
//	B->B: RS+ <pattern> [queue]     RS- <pattern> [queue]
//	B->B: RMSG <subject> <origin> <nbytes> [queue...]\r\n<payload>
//	B->B: RINFO <serverID> <clusterAddr>
//	B->B: PING / PONG
package broker

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// MaxPayload bounds a single message payload.
const MaxPayload = 1 << 20

// options collects server tuning knobs; all have workable defaults.
type options struct {
	seed             int64
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

// WithSeed fixes the seed of the routing index's rng, the one stream every
// queue-group member pick draws from, making pick order reproducible.
// Without it the seed comes from the clock.
func WithSeed(seed int64) Option {
	return func(o *options) { o.seed = seed }
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
	opts  options
	id    string
	sl    *sublist   // the routing index, with the data-path counters
	stats gauges     // every other counter (stats.go)
	adm   *admission // nil when admission is disabled
	quit  chan struct{}

	// now is the server clock, in nanoseconds: monotonic time in
	// production, stepped by tests. Route liveness (lastRecv), the
	// heartbeat's suspect check and the redial schedule read it.
	now func() int64

	// numSubs is the live local subscription count.
	numSubs atomic.Int64

	// Federation state (route.go): live routes by peer server ID, the
	// refcounted local interest set propagated to peers, and the set of
	// route targets being dialed. All guarded by fedMu; fedMu is never
	// held together with the index lock.
	fedMu         sync.Mutex
	routes        map[string]*route
	localInterest map[interestKey]int
	dialing       map[string]bool
	monitor       sync.Once // the first connection starts the heartbeat monitor

	mu       sync.Mutex
	ln       net.Listener
	routeLns []net.Listener
	clients  map[*serverClient]struct{}
	nextCID  uint64
	shutdown bool
	drained  chan struct{} // closed once shut down with no connection left
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
		seed:             time.Now().UnixNano(),
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
		sl:            newSublist(o.seed),
		clients:       make(map[*serverClient]struct{}),
		routes:        make(map[string]*route),
		localInterest: make(map[interestKey]int),
		dialing:       make(map[string]bool),
		drained:       make(chan struct{}),
		done:          make(chan struct{}),
		quit:          make(chan struct{}),
		now:           func() int64 { return int64(time.Since(clockBase)) },
	}
	if o.admissionBytes > 0 {
		s.adm = &admission{limit: o.admissionBytes}
	}
	return s
}

// clockBase anchors the production server clock: time.Since reads the
// monotonic clock, so no wall-clock step moves a deadline.
var clockBase = time.Now()

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
	go s.accept(ln)
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
	s.accept(ln)
}

// accept starts a connection for everything ln accepts, until Shutdown
// closes the listener.
func (s *Server) accept(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil || s.startClient(conn) == nil {
			return
		}
	}
}

// startClient registers an accepted conn and spawns its reader and writer
// goroutines. It returns nil when the server is shutting down.
func (s *Server) startClient(conn net.Conn) *serverClient {
	c := s.register(conn)
	if c == nil {
		return nil
	}
	s.stats.connections.Add(1)
	go c.run()
	go writeLoop(conn, &c.out)
	return c
}

// run is the connection's driver, its one reader goroutine: it feeds each
// read to the core (feed) with the server clock's reading, and dials the
// peers the core asks for, until the connection dies or the core drops it.
func (c *serverClient) run() {
	defer c.teardown()
	buf := make([]byte, maxControlLine)
	for {
		n, err := c.conn.Read(buf)
		keep := n == 0 || c.feed(c.srv.now(), buf[:n])
		for _, addr := range c.dials {
			c.srv.AddRoute(addr)
		}
		c.dials = c.dials[:0]
		if !keep || err != nil {
			return
		}
	}
}

// register enters conn in the connection table, the one place Shutdown and
// DrainShutdown find connections: accepted ones, whichever role they take,
// and the routes this broker dials. A server that is shutting down closes
// conn and returns nil.
func (s *Server) register(conn net.Conn) *serverClient {
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
	s.monitor.Do(func() { go s.routeMonitor() })
	return c
}

// Shutdown closes the listeners and every client and route connection.
func (s *Server) Shutdown() {
	for _, c := range s.beginShutdown() {
		c.conn.Close()
	}
}

// DrainShutdown is the graceful stop: it stops accepting, closes every
// connection's outbound queue so the writer drains and flushes what is
// already queued, and waits up to timeout for the connections to wind
// down before force-closing stragglers. Queued deliveries that had
// already been routed reach their subscribers, and queued RMSGs their
// peer broker; a zero timeout degrades to Shutdown.
func (s *Server) DrainShutdown(timeout time.Duration) {
	conns := s.beginShutdown()
	if timeout > 0 {
		// Closing the queue makes the writer drain the backlog, flush, and
		// close the connection; the reader then unblocks and tears down.
		for _, c := range conns {
			c.out.close()
		}
		select {
		case <-s.drained:
			return
		case <-time.After(timeout):
		}
	}
	for _, c := range conns {
		c.conn.Close()
	}
}

// beginShutdown flips the shutdown flag, closes the listeners, and
// returns every live connection (clients and routes; none can be added
// from here on) without closing them — Shutdown and DrainShutdown differ
// only in what they do next.
func (s *Server) beginShutdown() []*serverClient {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		return nil
	}
	s.shutdown = true
	close(s.quit) // wake parked publishers, route dialers, the monitor
	ln := s.ln
	rlns := s.routeLns
	conns := make([]*serverClient, 0, len(s.clients))
	for c := range s.clients {
		conns = append(conns, c)
	}
	if len(conns) == 0 {
		close(s.drained)
	}
	s.mu.Unlock()
	for _, l := range rlns {
		l.Close()
	}
	if ln != nil {
		ln.Close()
		<-s.done
	}
	return conns
}

// NumSubscriptions returns the live local subscription count.
func (s *Server) NumSubscriptions() int {
	return int(s.numSubs.Load())
}
