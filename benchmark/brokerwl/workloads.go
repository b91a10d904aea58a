// Package brokerwl holds the three broker workloads. Each starts its
// brokers as child processes, drives them over real loopback TCP from this
// process, verifies every delivery, and reads the brokers' own counters from
// outside at phase boundaries.
package brokerwl

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"
	"time"

	"adamant/benchmark/hist"
	"adamant/benchmark/load"
	"adamant/benchmark/sut"
	"adamant/internal/broker"
)

// workload is the frozen shape of one broker workload.
type workload struct {
	name    string
	payload int
	// window is the closed-loop bound on outstanding publishes and fanout
	// the nominal deliveries per publish.
	window, fanout uint64
	// rates are the open-loop ladder: about 25/50/75 % of the closed-loop
	// publish rate measured on the reference box when the benchmark was
	// frozen (README.md has the calibration record), two digits.
	rates [3]int
	// inputs draws the seed-dependent inputs once, before any set-up.
	inputs func(rng *rand.Rand, payload int) *inputs
	// setUp starts the brokers, connects, subscribes and waits until the
	// system is ready for its first publish.
	setUp func(s *session) error
}

var workloads = []workload{
	{name: "fanout_small", payload: 128, window: 64, fanout: 1000, rates: [3]int{1400, 2800, 4200}, inputs: fanoutInputs, setUp: fanoutSetUp},
	{name: "routed_large", payload: 4096, window: 1024, fanout: 2, rates: [3]int{29000, 58000, 87000}, inputs: routedInputs, setUp: routedSetUp},
	{name: "mesh_hop", payload: 512, window: 1024, fanout: 5, rates: [3]int{88000, 180000, 260000}, inputs: meshInputs, setUp: meshSetUp},
}

// inputs is everything a workload derives from the seed.
type inputs struct {
	bodies   [][]byte // payload fillers, stamped per publish
	subjects []string
	seqs     []uint64 // per-subject sequence numbers
	// draw picks the subject index of the next publish.
	draw func() int
	// churn is the SUB/UNSUB schedule of routed_large.
	churn []string
}

func newInputs(rng *rand.Rand, payload int, subjects []string) *inputs {
	in := &inputs{subjects: subjects, seqs: make([]uint64, len(subjects))}
	in.bodies = make([][]byte, 16)
	for i := range in.bodies {
		in.bodies[i] = make([]byte, payload)
		rng.Read(in.bodies[i])
	}
	return in
}

// session is one set-up system under test plus the generator attached to it.
type session struct {
	wl      *workload
	in      *inputs
	exe     string
	seed    int64
	brokers []*sut.Broker
	v       *load.Verifier
	drv     *load.Driver
	// groupsOf lists the groups a publish on each subject must reach.
	groupsOf [][]*load.Group
	closers  []func()
	// pub and sub are the raw connections (nil on routed_large).
	pub, sub *load.Conn
	// pubReader and subReader index the verifier's readers.
	pubReader, subReader int
	// probe runs on the publishing goroutine before each flush of a traced
	// phase. background runs beside the publisher: routed_large's churn in
	// every run, and the subscriber-side probes while probing is set.
	probe      func(now int64)
	background func(stop <-chan struct{}, probing *atomic.Bool)
	tr         *tracers
}

// tracers are the histograms only a traced run fills, each owned by one
// goroutine until the run has quiesced.
type tracers struct {
	publish, flush     hist.H // broker.Client calls (publisher goroutine)
	subRTT, subPingRTT hist.H // background goroutine
	interest           hist.H
	churnOps           uint64
}

func (s *session) startBroker(id string) (*sut.Broker, error) {
	b, err := sut.Start(s.exe, id, s.seed)
	if err != nil {
		return nil, err
	}
	s.brokers = append(s.brokers, b)
	s.closers = append(s.closers, b.Stop)
	return b, nil
}

func (s *session) dial(addr string) (*load.Conn, error) {
	c, err := load.Dial(addr, s.v.NewReader())
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, c.Close)
	return c, nil
}

// close tears the session down, connections before brokers.
func (s *session) close() {
	for _, f := range s.closers {
		defer f()
	}
}

// next is the Driver's publish builder: it draws the subject, stamps a
// body, and tells the verifier who must receive it.
func (s *session) next(id uint64, due int64) (string, []byte) {
	subj := s.in.draw()
	s.in.seqs[subj]++
	body := s.in.bodies[id%uint64(len(s.in.bodies))]
	load.Stamp(body, due, id, uint32(subj), s.in.seqs[subj])
	for _, g := range s.groupsOf[subj] {
		s.v.Expect(g, id)
	}
	return s.in.subjects[subj], body
}

const barrierTimeout = 30 * time.Second

// ---- fanout_small ----

const fanoutSids = 1000

func fanoutInputs(rng *rand.Rand, payload int) *inputs {
	in := newInputs(rng, payload, []string{"f.bcast"})
	in.draw = func() int { return 0 }
	return in
}

func fanoutSetUp(s *session) error {
	b, err := s.startBroker("A")
	if err != nil {
		return err
	}
	s.v = load.NewVerifier(fanoutSids + 1) // + the SUB probe's sid
	sub, err := s.dial(b.Addr)
	if err != nil {
		return err
	}
	sids := make([]int, fanoutSids)
	for i := range sids {
		sids[i] = i
		sub.Sub("f.bcast", "", i)
	}
	s.groupsOf = [][]*load.Group{{s.v.NewGroup(sids, true, false)}}
	if err := sub.Barrier(barrierTimeout); err != nil {
		return err
	}
	pub, err := s.dial(b.Addr)
	if err != nil {
		return err
	}
	s.pub, s.sub, s.subReader, s.pubReader = pub, sub, 0, 1
	s.drv = &load.Driver{V: s.v, Sink: load.RawSink{C: pub}, Next: s.next}
	s.probe = everyProbeTick(func() { pub.Ping(load.ProbePing) })
	s.background = rawBackground(sub, fanoutSids)
	return pub.Barrier(barrierTimeout)
}

// probeEvery is the period of the PING probes of a traced run.
const probeEvery = int64(50 * time.Millisecond)

func everyProbeTick(f func()) func(now int64) {
	var last int64
	return func(now int64) {
		if now-last >= probeEvery {
			last = now
			f()
		}
	}
}

// rawBackground probes a raw subscriber connection nobody else writes to:
// a PING every 50 ms (the PONG queues behind pending MSG frames, so its
// round trip is the outbound queue wait) and every 250 ms a SUB + PING on a
// never-published subject (a trie write under load).
func rawBackground(sub *load.Conn, probeSid int) func(stop <-chan struct{}, probing *atomic.Bool) {
	return func(stop <-chan struct{}, probing *atomic.Bool) {
		tick := time.NewTicker(time.Duration(probeEvery))
		defer tick.Stop()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if !probing.Load() {
				continue
			}
			if n%5 == 4 {
				sub.Unsub(probeSid)
				sub.Sub("probe.never", "", probeSid)
				sub.Ping(load.ProbeSub)
			} else {
				sub.Ping(load.ProbePing)
			}
			if sub.W.Flush() != nil {
				return // the read loop reports why the connection died
			}
		}
	}
}

// ---- routed_large ----

const (
	routedRoots  = 256
	routedLeaves = 1024
	churnHz      = 100
)

func routedInputs(rng *rand.Rand, payload int) *inputs {
	subjects := make([]string, routedRoots*routedLeaves)
	for k := 0; k < routedRoots; k++ {
		for j := 0; j < routedLeaves; j++ {
			subjects[k*routedLeaves+j] = "r" + strconv.Itoa(k) + ".s" + strconv.Itoa(j)
		}
	}
	in := newInputs(rng, payload, subjects)
	// Popularity rank -> subject through a seeded permutation, so the hot
	// subjects are spread over roots and shards.
	perm := rng.Perm(len(subjects))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(subjects)-1))
	in.draw = func() int { return perm[zipf.Uint64()] }
	in.churn = make([]string, 4096)
	for i := range in.churn {
		in.churn[i] = "r" + strconv.Itoa(rng.Intn(routedRoots)) + ".c" + strconv.Itoa(rng.Intn(1<<20))
	}
	return in
}

// clientSink publishes through the client library, timing each call when
// traced.
type clientSink struct {
	c *broker.Client
	s *session
}

func (k clientSink) Publish(subject string, payload []byte) error {
	if !k.s.drv.Trace {
		return k.c.Publish(subject, payload)
	}
	t0 := load.Now()
	err := k.c.Publish(subject, payload)
	k.s.tr.publish.Record(load.Now() - t0)
	return err
}
func (k clientSink) Flush() error { return nil } // Publish writes through

func routedSetUp(s *session) error {
	b, err := s.startBroker("A")
	if err != nil {
		return err
	}
	s.v = load.NewVerifier(routedRoots + 1)
	reader := s.v.NewReader()
	sub, err := broker.Dial(b.Addr)
	if err != nil {
		return err
	}
	s.closers = append(s.closers, func() { sub.Close() })
	handler := func(sid int) broker.Handler {
		return func(m broker.Msg) { reader.Deliver(sid, m.Data) }
	}
	// The wildcard-first pattern goes in first: it is replicated into
	// every shard.
	all := s.v.NewGroup([]int{routedRoots}, false, false)
	if _, err := sub.Subscribe(">", handler(routedRoots)); err != nil {
		return err
	}
	s.groupsOf = make([][]*load.Group, len(s.in.subjects))
	for k := 0; k < routedRoots; k++ {
		if _, err := sub.Subscribe("r"+strconv.Itoa(k)+".*", handler(k)); err != nil {
			return err
		}
		g := []*load.Group{s.v.NewGroup([]int{k}, false, false), all}
		for j := 0; j < routedLeaves; j++ {
			s.groupsOf[k*routedLeaves+j] = g
		}
	}
	if err := sub.Flush(barrierTimeout); err != nil {
		return err
	}
	pub, err := broker.Dial(b.Addr)
	if err != nil {
		return err
	}
	s.closers = append(s.closers, func() { pub.Close() })
	s.drv = &load.Driver{V: s.v, Sink: clientSink{c: pub, s: s}, Next: s.next}
	s.probe = everyProbeTick(func() {
		t0 := load.Now()
		if pub.Flush(barrierTimeout) == nil {
			s.tr.flush.Record(load.Now() - t0)
		}
	})
	s.background = s.routedBackground(sub, reader)
	return pub.Flush(barrierTimeout)
}

// routedBackground is the churn every run of routed_large carries: 100
// SUB/UNSUB pairs a second on subjects nobody publishes to, so the trie is
// written beside the reads and each write bumps a shard's cache generation.
// A traced run also times a Flush every 50 ms (the PONG queues behind
// pending MSG frames) and a Subscribe + Flush every 250 ms.
func (s *session) routedBackground(sub *broker.Client, reader *load.Reader) func(stop <-chan struct{}, probing *atomic.Bool) {
	t := s.tr
	return func(stop <-chan struct{}, probing *atomic.Bool) {
		tick := time.NewTicker(time.Second / churnHz)
		defer tick.Stop()
		stray := func(broker.Msg) { reader.Deliver(-1, nil) } // counted as a failure
		var prev *broker.Subscription
		for n := 0; ; n++ {
			select {
			case <-stop:
				if prev != nil {
					prev.Unsubscribe() // best effort: the session is closing
				}
				return
			case <-tick.C:
			}
			t0 := load.Now()
			cur, err := sub.Subscribe(s.in.churn[n%len(s.in.churn)], stray)
			if err != nil {
				return // the publisher will see the dead broker too
			}
			if prev != nil && prev.Unsubscribe() != nil {
				return
			}
			prev = cur
			t.churnOps++
			if !probing.Load() {
				continue
			}
			switch {
			case n%25 == 24:
				if sub.Flush(barrierTimeout) == nil {
					t.subRTT.Record(load.Now() - t0)
				}
			case n%5 == 4:
				t0 = load.Now()
				if sub.Flush(barrierTimeout) == nil {
					t.subPingRTT.Record(load.Now() - t0)
				}
			}
		}
	}
}

// ---- mesh_hop ----

const (
	meshSubjects  = 64
	meshEdgeSids  = 4 // sids per subject on broker B
	meshQueuePct  = 10
	meshProbes    = 50
	meshPlainSids = meshSubjects * (1 + meshEdgeSids)
	meshQueueBase = meshPlainSids
	meshProbeBase = meshQueueBase + 2*meshSubjects
)

func meshInputs(rng *rand.Rand, payload int) *inputs {
	subjects := make([]string, 2*meshSubjects)
	for k := 0; k < meshSubjects; k++ {
		subjects[k] = "m" + strconv.Itoa(k) + ".x"
		subjects[meshSubjects+k] = "q" + strconv.Itoa(k) + ".x"
	}
	in := newInputs(rng, payload, subjects)
	in.draw = func() int {
		k := rng.Intn(meshSubjects)
		if rng.Intn(100) < meshQueuePct {
			return meshSubjects + k
		}
		return k
	}
	return in
}

func meshSetUp(s *session) error {
	a, err := s.startBroker("A")
	if err != nil {
		return err
	}
	b, err := s.startBroker("B")
	if err != nil {
		return err
	}
	if err := b.AddRoute(a.Addr); err != nil {
		return err
	}
	s.v = load.NewVerifier(meshProbeBase + meshProbes + 1) // + the SUB probe's sid
	for i := 0; i < meshProbes; i++ {
		s.v.Loosen(meshProbeBase + i)
	}
	// The publisher's connection on A also carries the A-local sids.
	pub, err := s.dial(a.Addr)
	if err != nil {
		return err
	}
	sub, err := s.dial(b.Addr)
	if err != nil {
		return err
	}
	s.groupsOf = make([][]*load.Group, 2*meshSubjects)
	for k := 0; k < meshSubjects; k++ {
		subject := s.in.subjects[k]
		sids := []int{k}
		pub.Sub(subject, "", k)
		for e := 0; e < meshEdgeSids; e++ {
			sid := meshSubjects + k*meshEdgeSids + e
			sids = append(sids, sid)
			sub.Sub(subject, "", sid)
		}
		s.groupsOf[k] = []*load.Group{s.v.NewGroup(sids, true, false)}
		// One queue-group member on each broker: exactly one receives.
		qa, qb := meshQueueBase+k, meshQueueBase+meshSubjects+k
		pub.Sub(s.in.subjects[meshSubjects+k], "workers", qa)
		sub.Sub(s.in.subjects[meshSubjects+k], "workers", qb)
		s.groupsOf[meshSubjects+k] = []*load.Group{s.v.NewGroup([]int{qa, qb}, false, true)}
	}
	if err := pub.Barrier(barrierTimeout); err != nil {
		return err
	}
	if err := sub.Barrier(barrierTimeout); err != nil {
		return err
	}
	// Each broker must hold the other's interest before the first publish:
	// one RS+ per plain subject and one per queue subject.
	for _, br := range s.brokers {
		if err := br.WaitFor("route and interest propagation", func(st broker.ServerStats) bool {
			return st.Routes == 1 && st.RemoteSubs >= 2*meshSubjects
		}); err != nil {
			return err
		}
	}
	s.pub, s.sub, s.pubReader, s.subReader = pub, sub, 0, 1
	s.drv = &load.Driver{V: s.v, Sink: load.RawSink{C: pub}, Next: s.next}
	s.probe = everyProbeTick(func() { pub.Ping(load.ProbePing) })
	s.background = rawBackground(sub, meshProbeBase+meshProbes)
	return nil
}

// meshInterestProbes measures how long new interest takes to cross the
// route: SUB on B, then publish on A every 100 us until B delivers. The
// probe sids are loose, so what they receive is not counted as traffic.
func (s *session) meshInterestProbes() error {
	body := s.in.bodies[0]
	for i := 0; i < meshProbes; i++ {
		sid, subject := meshProbeBase+i, "p"+strconv.Itoa(i)+".x"
		t0 := load.Now()
		s.sub.Sub(subject, "", sid)
		if err := s.sub.W.Flush(); err != nil {
			return err
		}
		for s.v.FirstRead(sid) == 0 {
			if load.Now()-t0 > int64(barrierTimeout) {
				return fmt.Errorf("mesh_hop: interest in %s never reached broker A", subject)
			}
			s.pub.Pub(subject, body)
			if err := s.pub.W.Flush(); err != nil {
				return err
			}
			time.Sleep(100 * time.Microsecond)
		}
		s.tr.interest.Record(s.v.FirstRead(sid) - t0)
		s.sub.Unsub(sid)
	}
	if err := s.sub.Barrier(barrierTimeout); err != nil {
		return err
	}
	return s.pub.Barrier(barrierTimeout)
}
