// Package conformance is the transport crucible: the behavioural suite
// every ANT transport protocol must pass. Every registered protocol is run
// through the chaos scenario library under one shared set of invariant
// checkers, which ask whether it keeps its advertised guarantees while the
// network is hostile, and whether it converges, quiesces and stays bounded
// afterwards. A calm run and a run at uniform loss are scenarios like any
// other. New protocol implementations get the whole suite by adding one line
// to the spec lists in the package tests.
//
// A crucible cell is (protocol spec, chaos scenario, seed). Executing a
// cell builds a full stack per receiver — netem node, stream splitter,
// heartbeat membership detector on the control stream, protocol receiver on
// the data stream — arms the scenario on each target node's env through
// chaos.Schedule, publishes a fixed sample stream, and then drains the
// simulation to quiescence. The invariants checked against the outcome:
//
//   - payload integrity: every delivered payload matches its sequence
//     number's canonical bytes; SentAt survives so latency is plausible.
//   - no duplicate delivery, ever, on any transport.
//   - ordered transports deliver strictly increasing sequence numbers.
//   - reliable (NAK-based) transports converge to complete delivery on
//     every receiver that ends the scenario connected; crashed receivers,
//     and every receiver of a crashed sender, must actually have missed
//     the tail.
//   - best-effort transports stay within sanity floors and are perfect on
//     the calm control scenario.
//   - recovery state stays bounded (ReceiverStats.MaxBuffered) and the
//     kernel fully quiesces after detectors close — a protocol that leaks
//     timers or re-arms retransmissions forever fails the cell via the
//     event limit.
//   - membership: survivors evict crashed nodes; fully healed groups
//     converge back to full views.
//
// Every cell is executed twice with the same seed and the two outcomes must
// hash identically (sha256 over the canonical serialization of delivery
// logs, stats, and membership views) — chaos runs are replayable by seed,
// which is what makes a printed failing cell reproducible from its report
// line alone (see EXPERIMENTS.md).
package conformance

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"time"

	"adamant/internal/experiment"
	"adamant/internal/membership"
	"adamant/internal/netem"
	"adamant/internal/netem/chaos"
	"adamant/internal/transport"
	"adamant/internal/transport/protocols"
	"adamant/internal/wire"
)

// payloadFor derives the deterministic payload for a sequence number so
// integrity can be checked at the receiver without shared state.
func payloadFor(seq uint64) []byte {
	var b [12]byte
	binary.BigEndian.PutUint64(b[:8], seq*2654435761)
	binary.BigEndian.PutUint32(b[8:], uint32(seq))
	return b[:]
}

// TransportSwitch is one scripted mid-run hot-swap: at At, the sender
// binding drains its current protocol generation and hands the stream off
// to Spec (see transport.SenderBinding).
type TransportSwitch struct {
	At   time.Duration
	Spec transport.Spec
}

// CrucibleScenario parameterizes one crucible cell.
type CrucibleScenario struct {
	Spec      transport.Spec
	Chaos     chaos.Scenario
	Receivers int
	Samples   int
	RateHz    float64
	Seed      int64
	// Settle is how long the simulation keeps running after the later of
	// the publish window and the chaos horizon, before the final drain.
	Settle time.Duration
	// Switches scripts transport hot-swaps during the run, in time order.
	// The invariant checker derives the cell's effective guarantees from
	// the whole protocol chain: ordering and completeness are only global
	// obligations when every generation advertises them.
	Switches []TransportSwitch
	// Shards > 0 runs the cell on the lane-sharded engine (one lane per
	// node) with that many workers; 0 keeps the classic single-kernel
	// execution. The outcome hash does not depend on the worker count, but
	// 0 and >0 are separate golden families: the two engines order
	// same-instant events differently.
	Shards int
	// Heartbeat overrides the membership detector interval (default 50ms;
	// a peer is suspected after 3.5 intervals). Large-group cells slow the
	// heartbeat down so membership traffic scales with the group instead
	// of quadratically swamping it.
	Heartbeat time.Duration
	// wrap decorates each node's endpoint under the cell's stack (a test
	// watches every send through it); the default is none.
	wrap func(transport.Endpoint) transport.Endpoint
}

func (cs *CrucibleScenario) fillDefaults() {
	if cs.Receivers == 0 {
		cs.Receivers = 4
	}
	if cs.Samples == 0 {
		cs.Samples = 400
	}
	if cs.RateHz == 0 {
		cs.RateHz = 100
	}
	if cs.Seed == 0 {
		cs.Seed = 1
	}
	if cs.Settle == 0 {
		cs.Settle = 3 * time.Second
	}
	if cs.Heartbeat == 0 {
		cs.Heartbeat = 50 * time.Millisecond
	}
	if cs.wrap == nil {
		cs.wrap = func(ep transport.Endpoint) transport.Endpoint { return ep }
	}
}

// Name identifies the cell in reports: spec[->spec@t...]/scenario/seed,
// with group-size and shard suffixes when they deviate from the defaults.
func (cs CrucibleScenario) Name() string {
	var b strings.Builder
	b.WriteString(cs.Spec.String())
	for _, sw := range cs.Switches {
		fmt.Fprintf(&b, "->%s@%s", sw.Spec, sw.At)
	}
	fmt.Fprintf(&b, "/%s/seed=%d", cs.Chaos.Name, cs.Seed)
	if cs.Receivers != 0 {
		fmt.Fprintf(&b, "/g=%d", cs.Receivers)
	}
	if cs.Shards != 0 {
		fmt.Fprintf(&b, "/shards=%d", cs.Shards)
	}
	return b.String()
}

// CrucibleOutcome is everything the invariant checkers assert on.
type CrucibleOutcome struct {
	// Deliveries[i] is receiver i's delivery log in delivery order,
	// complete through final quiescence (tail recovery included).
	Deliveries [][]transport.Delivery
	// Lost[i] is every seq receiver i reported through OnLost, in report
	// order.
	Lost [][]uint64
	// Stats[i] is receiver i's protocol counters after quiescence.
	Stats []transport.ReceiverStats
	// Views[i] is receiver i's membership view at the end of the scenario
	// (snapshotted before the detectors close, so LEAVEs from shutdown do
	// not pollute it).
	Views []membership.View
	// IDs[i] is receiver i's node ID; SenderID is the publisher's.
	IDs      []wire.NodeID
	SenderID wire.NodeID
	// Epochs[i] is receiver i's transport-generation chain after the drain:
	// which protocols it saw, each generation's sequence slice, and whether
	// and how fast superseded generations drained.
	Epochs [][]transport.EpochInfo
	// Chain is the sender's applied rebind chain — the ground truth the
	// receivers' Epochs are checked against. It can be shorter than the
	// scenario's switch schedule when a switch raced sender shutdown.
	Chain []wire.RebindRecord
	// Events is how many events the engine fired, drain included.
	Events uint64
	// Hash is the sha256 of the canonical outcome serialization. Two runs
	// of the same cell must produce the same hash.
	Hash string
}

// crucibleEventLimit sizes the quiescence backstop for a cell: the sample
// term bounds protocol traffic, the quadratic term bounds membership
// gossip (every detector multicasts to the whole group each interval), and
// the constant keeps tiny cells from tripping on setup traffic. Large
// groups are dominated by the quadratic term — at 500 receivers a single
// heartbeat interval is 250k packet events.
func crucibleEventLimit(cs CrucibleScenario) uint64 {
	limit := uint64(cs.Samples)*uint64(cs.Receivers)*1000 + 2_000_000
	wall := time.Duration(float64(cs.Samples)/cs.RateHz*float64(time.Second)) +
		cs.Chaos.Horizon() + cs.Settle + 2*time.Second
	intervals := uint64(wall/cs.Heartbeat) + 1
	limit += intervals * uint64(cs.Receivers) * uint64(cs.Receivers) * 8
	return limit
}

// ExecuteCrucible runs one cell to full quiescence and returns the outcome.
func ExecuteCrucible(cs CrucibleScenario) (CrucibleOutcome, error) {
	cs.fillDefaults()
	if err := cs.Chaos.Validate(); err != nil {
		return CrucibleOutcome{}, err
	}
	network, drv, err := netem.NewSimulated(cs.Seed, cs.Shards, netem.Config{})
	if err != nil {
		return CrucibleOutcome{}, err
	}
	drv.SetEventLimit(crucibleEventLimit(cs))
	reg := protocols.MustRegistry()

	senderNode := network.AddNode(netem.PC3000)
	readerNodes := make([]*netem.Node, cs.Receivers)
	ids := make([]wire.NodeID, cs.Receivers)
	for i := range readerNodes {
		readerNodes[i] = network.AddNode(netem.PC3000)
		ids[i] = readerNodes[i].Local()
	}

	out := CrucibleOutcome{
		Deliveries: make([][]transport.Delivery, cs.Receivers),
		Lost:       make([][]uint64, cs.Receivers),
		Stats:      make([]transport.ReceiverStats, cs.Receivers),
		Views:      make([]membership.View, cs.Receivers),
		IDs:        ids,
		SenderID:   senderNode.Local(),
		Epochs:     make([][]transport.EpochInfo, cs.Receivers),
	}

	// Per-receiver stack: splitter so membership (control stream) and the
	// protocol (stream 1) share the node, heartbeat detector, protocol
	// receiver — wrapped in a hot-swap binding — fed by the detector's live
	// view. Every component schedules on its own node's env: under the
	// classic engine that is the one shared kernel env, under the sharded
	// engine it is the node's lane, which keeps each receiver's stack on the
	// lane that owns its netem node.
	detectors := make([]*membership.Detector, cs.Receivers)
	instances := make([]*transport.ReceiverBinding, cs.Receivers)
	for i := range readerNodes {
		i := i
		split := transport.NewSplitter(cs.wrap(readerNodes[i]))
		det, err := membership.NewDetector(readerNodes[i].Env(), split.Route(wire.ControlStream), membership.DetectorOptions{
			Interval: cs.Heartbeat,
			// Large groups answer JOINs with unicasts: the multicast
			// reply storm at cold start is O(group^3) deliveries, which
			// at 500 receivers is more packets than the entire rest of
			// the cell.
			UnicastJoinReplies: cs.Receivers > 64,
		})
		if err != nil {
			return CrucibleOutcome{}, fmt.Errorf("detector %d: %w", i, err)
		}
		detectors[i] = det
		r, err := transport.NewReceiverBinding(transport.BindingConfig{
			Config: transport.Config{
				Env:       readerNodes[i].Env(),
				Endpoint:  split.Route(1),
				Stream:    1,
				SenderID:  senderNode.Local(),
				Receivers: det.Receivers,
				Deliver:   func(d transport.Delivery) { out.Deliveries[i] = append(out.Deliveries[i], d) },
				OnLost:    func(seq uint64) { out.Lost[i] = append(out.Lost[i], seq) },
			},
			Registry: reg,
			Spec:     cs.Spec,
		})
		if err != nil {
			return CrucibleOutcome{}, fmt.Errorf("receiver %d: %w", i, err)
		}
		instances[i] = r
	}
	senderEnv := senderNode.Env()
	sender, err := transport.NewSenderBinding(transport.BindingConfig{
		Config: transport.Config{
			Env: senderEnv, Endpoint: cs.wrap(senderNode), Stream: 1,
			Receivers: transport.StaticReceivers(ids...),
		},
		Registry: reg,
		Spec:     cs.Spec,
	})
	if err != nil {
		return CrucibleOutcome{}, fmt.Errorf("sender: %w", err)
	}

	// Chaos fan-out: each event is armed on its target node's env, the
	// shared kernel env under the classic engine and the node's lane under
	// the sharded one, which keeps knob flips inside the lane that owns the
	// node's state.
	horizon, err := chaos.Schedule(chaos.Nodes{Sender: senderNode, Receivers: readerNodes}, cs.Chaos)
	if err != nil {
		return CrucibleOutcome{}, err
	}

	// Script the transport switches. A swap failure fails the cell, except
	// ErrClosed: a switch scheduled past the publish window races sender
	// shutdown, and — like Participant.Rebind skipping closed writers — that
	// race resolves as a no-op, not a fault.
	var swapErr error
	for _, sw := range cs.Switches {
		sw := sw
		if sw.At <= 0 {
			return CrucibleOutcome{}, fmt.Errorf("switch to %s at non-positive time %v", sw.Spec, sw.At)
		}
		senderEnv.After(sw.At, func() {
			if err := sender.Swap(sw.Spec); err != nil && !errors.Is(err, transport.ErrClosed) && swapErr == nil {
				swapErr = fmt.Errorf("swap to %s at %v: %w", sw.Spec, sw.At, err)
			}
		})
		if horizon < sw.At+100*time.Millisecond {
			horizon = sw.At + 100*time.Millisecond
		}
	}

	period := time.Duration(float64(time.Second) / cs.RateHz)
	published := 0
	var pubErr error
	var tick func()
	tick = func() {
		if published >= cs.Samples {
			pubErr = sender.Close()
			return
		}
		published++
		if err := sender.Publish(payloadFor(uint64(published))); err != nil {
			pubErr = err
			return
		}
		senderEnv.After(period, tick)
	}
	senderEnv.Post(tick)

	total := time.Duration(cs.Samples) * period
	if horizon > total {
		total = horizon
	}
	total += cs.Settle
	if err := drv.RunFor(total); err != nil {
		return CrucibleOutcome{}, err
	}
	if pubErr != nil {
		return CrucibleOutcome{}, pubErr
	}
	if swapErr != nil {
		return CrucibleOutcome{}, swapErr
	}

	// End-of-scenario membership, before shutdown LEAVEs rewrite it.
	for i, det := range detectors {
		out.Views[i] = det.View()
	}
	// Quiescence: detectors heartbeat forever by design, so close them,
	// then the rest of the world must drain on its own — leaked timers or
	// unbounded retransmission loops hit the event limit and fail here.
	for i, det := range detectors {
		if err := det.Close(); err != nil {
			return CrucibleOutcome{}, fmt.Errorf("detector %d close: %w", i, err)
		}
	}
	if err := drv.Run(); err != nil {
		return CrucibleOutcome{}, fmt.Errorf("drain after close: %w (protocol leaked timers or retransmits forever)", err)
	}
	if pending := drv.Pending(); pending != 0 {
		return CrucibleOutcome{}, fmt.Errorf("%d events still pending after drain", pending)
	}
	for i, r := range instances {
		out.Stats[i] = r.Stats()
		out.Epochs[i] = r.Epochs()
		if err := r.Close(); err != nil {
			return CrucibleOutcome{}, fmt.Errorf("receiver %d close: %w", i, err)
		}
	}
	out.Chain = sender.Chain()
	out.Events = drv.Fired()
	out.Hash = out.hash()
	return out, nil
}

// hash serializes the outcome canonically and returns its sha256. Delivery
// logs (sequence, timestamps, recovery flag, payload), final stats, and
// membership views all participate: any behavioral divergence between two
// runs of the same cell changes the hash.
func (o *CrucibleOutcome) hash() string {
	h := sha256.New()
	for i, ds := range o.Deliveries {
		fmt.Fprintf(h, "receiver %d id=%d\n", i, o.IDs[i])
		for _, d := range ds {
			fmt.Fprintf(h, "seq=%d sent=%d del=%d rec=%t pay=%x\n",
				d.Seq, d.SentAt.UnixNano(), d.DeliveredAt.UnixNano(), d.Recovered, d.Payload)
		}
		fmt.Fprintf(h, "stats=%+v\n", o.Stats[i])
		for _, ep := range o.Epochs[i] {
			fmt.Fprintf(h, "epoch=%d spec=%s base=%d cut=%d cutKnown=%t done=%t drain=%d\n",
				ep.Epoch, ep.Spec, ep.Base, ep.Cut, ep.CutKnown, ep.Done, ep.DrainLatency)
		}
		fmt.Fprintf(h, "view v%d members=%v\n", o.Views[i].Version, o.Views[i].Members)
	}
	for _, rec := range o.Chain {
		fmt.Fprintf(h, "chain epoch=%d cut=%d spec=%s\n", rec.Epoch, rec.Cut, rec.Spec)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// bestEffortFloorPct is the delivery floor for non-reliable transports on
// faulty scenarios: even best-effort multicast must get at least this share
// through to every receiver that ends the scenario connected, given that
// every library scenario heals within the publish window.
const bestEffortFloorPct = 50.0

// CheckCrucible runs every invariant against one outcome and returns the
// violations (nil when the cell is green).
func CheckCrucible(cs CrucibleScenario, out CrucibleOutcome) []error {
	cs.fillDefaults()
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	// With a switch chain, ordering and completeness are only global
	// obligations when EVERY generation's spec advertises them: one
	// best-effort epoch in the chain forfeits end-to-end completeness, one
	// unordered epoch forfeits the global ordering guarantee. The sender's
	// applied chain is the ground truth (a switch scheduled past sender
	// shutdown is a no-op and never enters it).
	reg := protocols.MustRegistry()
	// A dead sender sends neither an end of stream nor later data, and
	// ricochet and fountcast close their tail only on one of those. So with
	// the sender crashed only NAK-reliable epochs owe conservation, and only
	// up to the highest seq the receiver delivered or reported lost.
	senderEnd, ends := cs.Chaos.EndState(cs.Receivers)
	accounted := transport.PropNAKReliability | transport.PropFEC
	if senderEnd.Crashed {
		accounted = transport.PropNAKReliability
	}
	var epochSpecs []transport.Spec
	var accounts []bool // per epoch: whether its protocol reports what it loses
	var spanCap uint64  // the largest epoch's span cap (DESIGN.md "Receive window")
	reliable, ordered := true, true
	for _, rec := range out.Chain {
		spec, err := transport.ParseSpec(rec.Spec)
		if err != nil {
			return []error{fmt.Errorf("sender chain epoch %d: %w", rec.Epoch, err)}
		}
		epochSpecs = append(epochSpecs, spec)
		f, err := reg.Lookup(spec.Name)
		if err != nil {
			return []error{err}
		}
		props, err := f.Props(spec.Params)
		if err != nil {
			return []error{err}
		}
		span, err := f.Span(spec.Params)
		if err != nil {
			return []error{err}
		}
		if !props.Has(transport.PropNAKReliability) {
			reliable = false
		}
		if !props.Has(transport.PropOrdered) {
			ordered = false
		}
		accounts = append(accounts, props&accounted != 0)
		spanCap = max(spanCap, span)
	}
	bufCap := min(uint64(cs.Samples), spanCap) + 64
	calm := len(cs.Chaos.Events) == 0

	for i, ds := range out.Deliveries {
		end := ends[i]
		// Integrity, duplicates, ordering, timestamp sanity.
		seen := make(map[uint64]bool, len(ds))
		var top uint64 // the highest seq delivered or reported lost
		var lastSeq uint64
		var lastAt time.Time
		for j, d := range ds {
			if d.Seq == 0 || d.Seq > uint64(cs.Samples) {
				fail("receiver %d: delivered seq %d outside published range 1..%d", i, d.Seq, cs.Samples)
				break
			}
			if seen[d.Seq] {
				fail("receiver %d: seq %d delivered twice", i, d.Seq)
				break
			}
			seen[d.Seq] = true
			top = max(top, d.Seq)
			if !bytes.Equal(d.Payload, payloadFor(d.Seq)) {
				fail("receiver %d: seq %d payload corrupted", i, d.Seq)
				break
			}
			if lat := d.Latency(); lat <= 0 || lat > time.Minute {
				fail("receiver %d: seq %d latency %v implausible", i, d.Seq, lat)
				break
			}
			if d.DeliveredAt.Before(lastAt) {
				fail("receiver %d: delivery %d went back in time (%v after %v)", i, j, d.DeliveredAt, lastAt)
				break
			}
			lastAt = d.DeliveredAt
			if ordered {
				if d.Seq <= lastSeq {
					fail("receiver %d: ordered transport delivered seq %d after %d", i, d.Seq, lastSeq)
					break
				}
				lastSeq = d.Seq
			}
		}
		if len(ds) > cs.Samples {
			fail("receiver %d: %d deliveries for %d samples", i, len(ds), cs.Samples)
		}

		// Conservation: a seq is reported lost at most once and never when
		// delivered, and on a receiver connected at the end every seq an
		// epoch published is delivered or reported lost. Best-effort
		// multicast reports nothing, so its epochs owe only the first part.
		lost := make(map[uint64]bool, len(out.Lost[i]))
		for _, seq := range out.Lost[i] {
			if seen[seq] || lost[seq] || seq == 0 || seq > uint64(cs.Samples) {
				fail("receiver %d: seq %d reported lost after it was delivered or reported, or never published", i, seq)
				break
			}
			lost[seq] = true
			top = max(top, seq)
		}
		for e, rec := range out.Chain {
			if end.Down() || !accounts[e] {
				continue
			}
			hi := uint64(cs.Samples)
			if e+1 < len(out.Chain) {
				hi = out.Chain[e+1].Cut
			}
			if senderEnd.Crashed {
				hi = min(hi, top)
			}
			for seq := rec.Cut + 1; seq <= hi; seq++ {
				if !seen[seq] && !lost[seq] {
					fail("receiver %d: seq %d of epoch %d (%s) neither delivered nor reported lost", i, seq, e, rec.Spec)
					break
				}
			}
		}

		// Epoch-chain invariants: every receiver that ends the scenario
		// connected must have learned the full protocol chain, and every
		// superseded generation must have fully drained — a stuck drain
		// means samples are stranded in a closed protocol's recovery state.
		if len(out.Epochs) > i && !end.Down() {
			eps := out.Epochs[i]
			if len(eps) != len(epochSpecs) {
				fail("receiver %d: saw %d transport generations, chain has %d", i, len(eps), len(epochSpecs))
			}
			for j, ep := range eps {
				if j < len(epochSpecs) && ep.Spec.String() != epochSpecs[j].String() {
					fail("receiver %d: generation %d is %s, chain says %s", i, j, ep.Spec, epochSpecs[j])
				}
				if j < len(eps)-1 && !ep.Done {
					fail("receiver %d: superseded generation %d (%s) never drained (covered slice (%d,%d])",
						i, ep.Epoch, ep.Spec, ep.Base, ep.Cut)
				}
			}
		}

		// Stats consistency: counters must agree with the log after the
		// drain, and recovery state must have stayed bounded.
		st := out.Stats[i]
		if st.Delivered != uint64(len(ds)) {
			fail("receiver %d: stats.Delivered=%d but log has %d", i, st.Delivered, len(ds))
		}
		if st.MaxBuffered > bufCap {
			fail("receiver %d: recovery state peaked at %d buffered entries, cap %d for a %d-sample stream (unbounded holdback)",
				i, st.MaxBuffered, bufCap, cs.Samples)
		}

		// Completeness by advertised property and end state.
		switch {
		case end.Crashed || senderEnd.Crashed:
			// A crash of this receiver or of the sender must actually have
			// cost the receiver the tail.
			if len(ds) >= cs.Samples {
				fail("receiver %d: a crash cut its stream mid-run yet it delivered all %d samples (crash ineffective)", i, cs.Samples)
			}
		case end.Down():
			// Partitioned-but-not-crashed at scenario end: no obligation.
		case reliable:
			if len(ds) != cs.Samples {
				fail("receiver %d: reliable transport converged to %d/%d after heal", i, len(ds), cs.Samples)
			}
		case calm:
			if len(ds) != cs.Samples {
				fail("receiver %d: %d/%d on the calm control scenario", i, len(ds), cs.Samples)
			}
		default:
			floor := bestEffortFloorPct
			if cs.Samples < 400 {
				// The calibrated floor assumes the default-length publish
				// window, which outlasts every library scenario's fault
				// interval. Shortened (fuzz) runs can spend most of the
				// window inside a fault, so only liveness is required.
				floor = 1
			}
			if pct := 100 * float64(len(ds)) / float64(cs.Samples); pct < floor {
				fail("receiver %d: best-effort delivery %.1f%% below the %.0f%% floor", i, pct, floor)
			}
		}
	}

	// Membership: survivors must evict receivers that ended crashed, and a
	// fully healed group must converge back to complete views. (The sender
	// runs no detector, so views only ever contain receivers.)
	anyDown := false
	for _, end := range ends {
		if end.Down() {
			anyDown = true
		}
	}
	for i := range out.Views {
		if ends[i].Down() {
			continue // a dead node's own view owes nothing
		}
		for j, end := range ends {
			if end.Crashed {
				if out.Views[i].Contains(out.IDs[j]) {
					fail("receiver %d: still lists crashed receiver %d in its membership view", i, j)
				}
			} else if !anyDown || !end.Down() {
				if !out.Views[i].Contains(out.IDs[j]) {
					fail("receiver %d: healed receiver %d missing from its membership view", i, j)
				}
			}
		}
	}
	return errs
}

// CrucibleResult is one cell's verdict from RunCrucibleMatrix.
type CrucibleResult struct {
	Cell CrucibleScenario
	// Hash is the outcome hash of the first execution.
	Hash string
	// Failures lists invariant violations and replay divergence; empty
	// means the cell is green. Err is set when the cell failed to execute
	// at all (which is itself a crucible failure).
	Failures []string
	Err      error
}

// RunCell executes one cell twice with the same seed, demands byte-identical
// outcomes, and checks every invariant.
func RunCell(cs CrucibleScenario) CrucibleResult {
	res := CrucibleResult{Cell: cs}
	first, err := ExecuteCrucible(cs)
	if err != nil {
		res.Err = err
		return res
	}
	res.Hash = first.Hash
	second, err := ExecuteCrucible(cs)
	if err != nil {
		res.Err = fmt.Errorf("rerun: %w", err)
		return res
	}
	if first.Hash != second.Hash {
		res.Failures = append(res.Failures,
			fmt.Sprintf("same-seed rerun diverged: %.12s != %.12s", first.Hash, second.Hash))
	}
	for _, e := range CheckCrucible(cs, first) {
		res.Failures = append(res.Failures, e.Error())
	}
	return res
}

// DefaultCrucibleSpecs returns the canonical protocol matrix: one spec per
// registered protocol, tuned the way the chaos scenarios expect (fast NAK
// timers).
func DefaultCrucibleSpecs() []transport.Spec {
	return []transport.Spec{
		mustSpec("bemcast"),
		mustSpec("nakcast(timeout=5ms)"),
		mustSpec("ricochet(c=3,r=4)"),
		mustSpec("fountcast(k=8,oh=25)"),
	}
}

func mustSpec(s string) transport.Spec {
	spec, err := transport.ParseSpec(s)
	if err != nil {
		panic(err)
	}
	return spec
}

// SwitchTargetFor returns the canonical hot-swap destination for a base
// protocol: each hands off to a different protocol family, so the switch
// matrix exercises every kind of epoch boundary (best-effort->reliable,
// reliable->FEC, reactive->proactive FEC, and FEC->reliable, which is
// also ordered->ordered).
func SwitchTargetFor(spec transport.Spec) transport.Spec {
	switch spec.Name {
	case "bemcast":
		return mustSpec("nakcast(timeout=5ms)")
	case "nakcast":
		// The adaptation figure's own switch: a NAKcast candidate hands off
		// to Ricochet when loss rises.
		return mustSpec("ricochet(c=3,r=4)")
	case "ricochet":
		// Reactive-FEC to proactive-FEC handoff: both generations repair
		// without sender feedback, but across different wire types.
		return mustSpec("fountcast(k=8,oh=25)")
	default: // fountcast and anything unregistered here
		return mustSpec("nakcast(timeout=5ms)")
	}
}

// SwitchCells builds the mid-run hot-swap matrix for the given specs: a
// calm switch, a switch at the peak of a loss ramp, a switch at the moment
// a partition heals, and back-to-back flapping. Every cell runs the full
// crucible invariant set with chain-aware guarantees.
func SwitchCells(specs []transport.Spec, seeds []int64) []CrucibleScenario {
	ms := time.Millisecond
	var cells []CrucibleScenario
	for _, spec := range specs {
		target := SwitchTargetFor(spec)
		shapes := []struct {
			chaos    chaos.Scenario
			switches []TransportSwitch
		}{
			// Calm switch: no faults, so every chain must deliver 100%.
			{chaos.CalmControl(), []TransportSwitch{{At: 2000 * ms, Spec: target}}},
			// Switch at the 30% peak of the loss ramp: the old generation
			// drains through heavy loss while the new one takes over.
			{chaos.LossyRamp(), []TransportSwitch{{At: 1900 * ms, Spec: target}}},
			// Switch at the instant the split-brain partition heals: half
			// the receivers learn about the swap and the missed slice at
			// the same time.
			{chaos.SplitBrain(), []TransportSwitch{{At: 1600 * ms, Spec: target}}},
			// Flapping: three swaps 300ms apart, ending on the target.
			{chaos.CalmControl(), []TransportSwitch{
				{At: 1200 * ms, Spec: target},
				{At: 1500 * ms, Spec: spec},
				{At: 1800 * ms, Spec: target},
			}},
		}
		for _, sh := range shapes {
			for _, seed := range seeds {
				cells = append(cells, CrucibleScenario{
					Spec: spec, Chaos: sh.chaos, Seed: seed, Switches: sh.switches,
				})
			}
		}
	}
	return cells
}

// LostEOS cuts receiver 0 off from 45 ms before a default cell's Close (400
// samples at 100 Hz close at 4 s) until 300 ms after it: the last four
// samples and Close's end of stream never reach it, only the sender
// binding's repeats of the end of stream inside their linger.
func LostEOS() chaos.Scenario {
	closeAt, ms := 4*time.Second, time.Millisecond
	return chaos.Scenario{Name: "lost-eos", Info: "receiver 0 cut off across Close, healed inside the EOS linger", Events: []chaos.Event{
		{At: closeAt - 45*ms, Kind: chaos.KindPartition, Target: chaos.Receiver(0)},
		{At: closeAt + 300*ms, Kind: chaos.KindHeal, Target: chaos.Receiver(0)},
	}}
}

// LongStreamCells builds the long-stream matrix: every spec streams 100 000
// samples at 1 kHz to one receiver, calm, under 5 % uniform loss held
// through the tail, and under Gilbert-Elliott burst loss held through the
// tail; fountcast and ricochet also ride out a 20 000-seq outage. No
// library cell runs past a few hundred samples, and a window that leaks a
// record per block only shows tens of thousands of samples in.
//
// nakcast stays out of the outage cell: its 16 384-sample history bounds
// what it can repair, so it reports the rest lost and fails convergence
// only. It joins once a scenario's fault budget can waive convergence for
// a spec whose recovery budget does not cover the outage.
func LongStreamCells(specs []transport.Spec, seeds []int64) []CrucibleScenario {
	const samples, rateHz = 100_000, 1000
	s := time.Second
	scenarios := []chaos.Scenario{
		chaos.CalmControl(),
		{Name: "loss=5%-tail", Events: []chaos.Event{{Kind: chaos.KindLoss, Target: chaos.AllReceivers(), Pct: 5}}},
		{Name: "burst-tail", Events: []chaos.Event{{Kind: chaos.KindBurst, Target: chaos.AllReceivers(), PGB: 0.02, PBG: 0.25, DropBad: 1}}},
	}
	outage := chaos.Scenario{Name: "outage=20000", Events: []chaos.Event{
		{At: 10 * s, Kind: chaos.KindPartition, Target: chaos.AllReceivers()},
		{At: 30 * s, Kind: chaos.KindHeal, Target: chaos.AllReceivers()},
	}}
	cells := CrucibleCells(specs, scenarios, seeds)
	outageSpecs := []transport.Spec{mustSpec("fountcast(k=8,oh=25)"), mustSpec("ricochet(c=3,r=4)")}
	cells = append(cells, CrucibleCells(outageSpecs, []chaos.Scenario{outage}, seeds)...)
	for i := range cells {
		cells[i].Receivers, cells[i].Samples, cells[i].RateHz = 1, samples, rateHz
	}
	return cells
}

// CrucibleCells builds the full spec x scenario x seed matrix.
func CrucibleCells(specs []transport.Spec, scenarios []chaos.Scenario, seeds []int64) []CrucibleScenario {
	cells := make([]CrucibleScenario, 0, len(specs)*len(scenarios)*len(seeds))
	for _, spec := range specs {
		for _, sc := range scenarios {
			for _, seed := range seeds {
				cells = append(cells, CrucibleScenario{Spec: spec, Chaos: sc, Seed: seed})
			}
		}
	}
	return cells
}

// RunCrucibleMatrix fans the cells out over a worker pool (jobs <= 0 means
// GOMAXPROCS) and returns every cell's result in input order. Failing cells
// do not abort the matrix: the caller gets the complete picture.
func RunCrucibleMatrix(cells []CrucibleScenario, jobs int, progress func(done, total int)) []CrucibleResult {
	results := make([]CrucibleResult, len(cells))
	runner := &experiment.Runner{Jobs: jobs, Progress: progress}
	// RunCell never returns an error through ForEach: execution failures
	// are recorded in the cell's result instead.
	_ = runner.ForEach(len(cells), func(i int) error {
		results[i] = RunCell(cells[i])
		return nil
	})
	return results
}
