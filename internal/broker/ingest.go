package broker

import "bytes"

// Ingest batching bounds: a connection's core routes its pending
// publishes once it has this many messages or payload bytes, or at the end
// of the bytes a read handed it (so batching never adds latency — it only
// amortizes work that is already waiting).
const (
	maxIngestBatch = 256
	maxIngestBytes = 256 << 10
)

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
// route the batch arrived on, nil for a client's publishes. Only those
// wait for admission (a parked route reader would stop answering
// heartbeats, and what it carries was admitted at the origin): the reader
// parks, off every lock, while the outstanding-bytes gauge is over the
// window, for at most the configured timeout.
func (s *Server) flushIngest(in *ingest, from *route) {
	if len(in.pending) == 0 {
		return
	}
	if a := s.adm; from == nil && a != nil && a.over() {
		s.stats.admissionWaits.Add(1)
		if !a.wait(s.opts.admissionTimeout, s.quit) {
			s.stats.admissionTimeouts.Add(1)
		}
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

// routeBatch delivers a reader's ingest batch in order, under one
// acquisition of the index lock. Consecutive messages on the same subject
// reuse one match result (valid for the whole batch because sub/unsub
// needs the lock we hold), the deliveries are staged per destination link
// and enter each queue a run at a time (stager), and the batch is counted —
// its messages and what became of their deliveries — under the same hold
// of the lock (flowStats), so routeBatch takes no lock beyond the index
// lock and queue locks.
//
// A client's publish (from == nil) goes to every matching local
// subscription and to one member of every matching queue group, chosen by
// the index's seeded rng among local members and peer interests alike —
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
		rs      *routeSet
		subject []byte
		dups    uint64
	)
	sl, st, fwd := s.sl, &in.st, &in.fwd
	policy := s.opts.slowPolicy
	sl.mu.Lock()
	for i := range in.pending {
		m := &in.pending[i]
		if m.selfOrigin {
			dups++
			continue
		}
		pb := m.pb
		subj := pb.subj
		if rs == nil || !bytes.Equal(subj, subject) {
			rs = sl.matchBytes(subj)
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
				pick := members[sl.rng.Intn(len(members))]
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
			pick := in.localQ[sl.rng.Intn(len(in.localQ))]
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
		sl.flow.msgsIn++
		sl.flow.bytesIn += uint64(len(pb.data))
	}
	// Every staged delivery enters its queue before the unlock (stager
	// rule 1), and what they came to is counted under the same hold of the
	// lock as their messages were, which keeps every Stats snapshot
	// consistent.
	st.flush()
	sl.flow.out.add(st.total)
	st.total = runResult{}
	sl.mu.Unlock()
	// Only now, after the last flush, do the publisher holds go: until a
	// run is flushed they are all that keeps its payloads (stager rule 3).
	for i := range in.pending {
		in.pending[i].pb.release(1)
	}
	if dups > 0 {
		s.stats.dupsSuppressed.Add(dups)
	}
}

// A stager is a reader goroutine's staging area between match and queue.
// routeBatch adds each delivery to the open run of its destination link,
// and a run is handed to the link (link.enqueueRun) when it reaches
// stagerRunFrames, when a delivery to a link without an open run finds all
// stagerRuns slots taken, and — all runs — when routeBatch is about to
// release the index lock. Per-link order is add order: a link has at most
// one open run, and a run is enqueued whole, before the next run for that
// link can be opened.
//
// Three rules keep what per-frame enqueueing under the index lock gave:
//
//  1. Every run is flushed before the index lock its deliveries were
//     matched under is released. UNSUB removes the subscription under that
//     lock, so once it returns no delivery for the sid is staged anywhere:
//     a PONG queued after it is behind the sid's last MSG.
//  2. A run's arena references are taken before its enqueue
//     (link.enqueueRun); staged frames hold none.
//  3. That is safe because the publisher hold of every payload in the
//     batch outlives the batch's last flush (routeBatch).
type stager struct {
	runs [stagerRuns]stagedRun
	n    int // open runs

	// total is what the runs flushed in the current batch came to.
	total runResult
}

const (
	stagerRuns      = 8
	stagerRunFrames = 512
)

type stagedRun struct {
	dst    *link
	policy SlowConsumerPolicy
	frames []outFrame
}

// add stages f for dst, to be offered under policy.
func (st *stager) add(dst *link, policy SlowConsumerPolicy, f outFrame) {
	var run *stagedRun
	for i := st.n - 1; i >= 0; i-- {
		if st.runs[i].dst == dst {
			run = &st.runs[i]
			break
		}
	}
	if run == nil {
		if st.n == stagerRuns {
			st.flush()
		}
		run = &st.runs[st.n]
		st.n++
		run.dst, run.policy = dst, policy
	}
	run.frames = append(run.frames, f)
	if len(run.frames) >= stagerRunFrames {
		st.flushRun(run)
	}
}

func (st *stager) flushRun(run *stagedRun) {
	st.total.add(run.dst.enqueueRun(run.frames, run.policy))
	run.frames = run.frames[:0]
}

// flush hands every open run to its link and closes it.
func (st *stager) flush() {
	for i := 0; i < st.n; i++ {
		run := &st.runs[i]
		if len(run.frames) > 0 {
			st.flushRun(run)
		}
		run.dst = nil
	}
	st.n = 0
}
