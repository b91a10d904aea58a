// Package ricochet implements the Ricochet transport protocol (Balakrishnan
// et al., NSDI 2007) as used by the ANT framework: a bimodal multicast with
// Lateral Error Correction (LEC), a receiver-to-receiver forward-error-
// correction scheme.
//
// The sender multicasts data packets and never retransmits. Each receiver
// XORs every R directly-received packets into a repair packet and unicasts
// it to C randomly chosen peer receivers. A receiver missing exactly one of
// a repair's covered packets reconstructs it locally — recovery latency is
// receiver-to-receiver, decoupled from the sender's round trip.
//
// R and C are the protocol's tunables (the paper evaluates R=4,C=3 and
// R=8,C=3): R trades repair traffic and CPU against the probability that
// two losses land in one XOR group (unrecoverable by a single repair);
// C trades repair fan-out against per-receiver recovery probability.
//
// Delivery is immediate and unordered (time-critical mode): data packets go
// to the application the instant they arrive, recovered packets when they
// decode. Packets that no repair can reconstruct stay lost — Ricochet
// provides probabilistic, not absolute, reliability; that is exactly the
// latency/reliability trade the composite ReLate2 metrics score.
package ricochet

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"adamant/internal/transport"
	"adamant/internal/wire"
)

// Name is the protocol's registry/spec name.
const Name = "ricochet"

// Props advertises Ricochet's transport properties.
const Props = transport.PropMulticast | transport.PropFEC

// Defaults for spec params left out.
const (
	DefaultR = 4
	DefaultC = 3
	// DefaultFlush bounds how long a partially filled XOR group may sit
	// before its repair is sent anyway. Without it, recovery latency at
	// low data rates would be R packet intervals; with it, low-rate
	// repairs degenerate toward per-packet lateral copies (Slingshot-
	// style), which is what keeps Ricochet's recovery latency low at
	// 10-25 Hz.
	DefaultFlush = 8 * time.Millisecond

	// window is the receiver packet cache size used for XOR decoding and
	// duplicate suppression; it bounds r. span is the window's span cap:
	// the cache evicts by count, so its span grows with the losses in it,
	// and a packet past the cap slides the window up to it rather than
	// stretching it.
	window = 4096
	span   = 4 * window

	// maxC bounds c. Every repair draws C peers, and a spec also arrives
	// from the network in a rebind record, so an unbounded c would let one
	// record make each data packet cost a draw per unit of c.
	maxC = 64

	// procCost models the reference-machine CPU time the LEC receiver
	// spends per directly received data packet: window insert, group
	// bookkeeping, XOR accumulation, and its share of repair-stream
	// handling in the managed-runtime Ricochet implementation the paper
	// plugs into DDS. It is the dominant reason Ricochet's latency
	// advantage shrinks on slow (pc850-class) nodes; see DESIGN.md
	// ("calibration targets") for how this constant was fit.
	procCost = 300 * time.Microsecond
	// decodeCost is the per-recovery lateral-repair path cost at
	// reference speed: buffered-repair scan, XOR reconstruction, and
	// reassembly on the implementation's background recovery thread. It
	// delays recovered deliveries (machine-scaled) without occupying the
	// receive path.
	decodeCost = 13 * time.Millisecond

	maxPendingRepairs = 256
	repairBuildWork   = 60 * time.Microsecond
	repairPerByteWork = 20 * time.Nanosecond
	repairRecvWork    = 600 * time.Microsecond
)

// Options are Ricochet's tunables.
type Options struct {
	// R is the number of directly received packets XORed into one repair.
	R int
	// C is the number of peer receivers each repair is sent to.
	C int
	// Flush bounds the age of a partial XOR group before its repair is
	// emitted anyway. Zero or negative disables the flush timer (classic
	// fixed-R grouping).
	Flush time.Duration
	// Stagger offsets this receiver's first XOR group: 0 derives the
	// offset from the node ID (default; peers' group boundaries then
	// interleave), -1 disables staggering, 1..R-1 are explicit offsets.
	Stagger int
}

// staggerFor resolves the initial group offset for a node.
func (o Options) staggerFor(id wire.NodeID) int {
	if o.Stagger == 0 {
		return int(id) % o.R
	}
	return max(o.Stagger, 0)
}

// Spec returns the canonical transport.Spec for an (R, C) pair, e.g.
// Spec(4, 3) == "ricochet(c=3,r=4)".
func Spec(r, c int) transport.Spec {
	return transport.Spec{Name: Name, Params: transport.Params{
		"r": fmt.Sprintf("%d", r),
		"c": fmt.Sprintf("%d", c),
	}}
}

// ParseOptions extracts Options from spec params.
func ParseOptions(p transport.Params) (Options, error) {
	var o Options
	if err := p.Read(
		transport.IntParam("r", &o.R, DefaultR),
		transport.IntParam("c", &o.C, DefaultC),
		transport.DurationParam("flush", &o.Flush, DefaultFlush),
		transport.IntParam("stagger", &o.Stagger, 0),
	); err != nil {
		return o, err
	}
	if o.R < 2 || o.R > window {
		return o, fmt.Errorf("ricochet: r=%d outside 2..%d", o.R, window)
	}
	if o.C < 1 || o.C > maxC {
		return o, fmt.Errorf("ricochet: c=%d outside 1..%d", o.C, maxC)
	}
	if o.Stagger < -1 || o.Stagger >= o.R {
		return o, fmt.Errorf("ricochet: stagger=%d outside -1..%d", o.Stagger, o.R-1)
	}
	return o, nil
}

// Factory returns the registry factory for Ricochet. The sender has no
// tunables, but its spec is still checked.
func Factory() *transport.Factory {
	return transport.NewFactory(Name, ParseOptions, Props,
		func(Options) uint64 { return span },
		func(cfg transport.Config, _ Options) (*Sender, error) { return NewSender(cfg) }, NewReceiver)
}

// Sender is the writer-side Ricochet instance: pure multicast with sequence
// numbering; all recovery is lateral among receivers. Close announces the
// end of stream, on which receivers report their unresolved tail.
type Sender struct{ transport.SenderCore }

// NewSender builds a Ricochet sender on cfg.Endpoint.
func NewSender(cfg transport.Config) (*Sender, error) {
	core, err := transport.NewSenderCore(cfg)
	if err != nil {
		return nil, err
	}
	return &Sender{core}, nil
}

// Receiver is the reader-side Ricochet instance.
type Receiver struct {
	transport.ReceiverCore
	opts Options
	rng  *rand.Rand

	window  transport.Window[*wire.Packet] // received + recovered packets, for XOR decode
	group   []*wire.Packet                 // directly received packets since last repair
	pending []wire.Repair                  // repairs that could not decode yet
	held    []*wire.Packet                 // scratch: a decoding repair's held siblings
	targets []wire.NodeID                  // scratch: a repair's peers
	// stagger skips this many initial receptions before the first XOR
	// group so different receivers' group boundaries interleave (their
	// reception orders differ in practice), which both speeds recovery
	// and lets shifted repairs resolve double losses by cascade.
	stagger int
	ended   bool // an end of stream arrived and armed the tail report
}

// NewReceiver builds a Ricochet receiver on cfg.Endpoint.
func NewReceiver(cfg transport.Config, opts Options) (*Receiver, error) {
	core, err := transport.NewReceiverCore(cfg)
	if err != nil {
		return nil, err
	}
	r := &Receiver{
		ReceiverCore: core,
		opts:         opts,
		rng:          cfg.Env.Rand(fmt.Sprintf("ricochet/%d", cfg.Endpoint.Local())),
		window:       transport.NewWindow[*wire.Packet](cfg.BaseSeq+1, span),
		stagger:      opts.staggerFor(cfg.Endpoint.Local()),
	}
	// The core's timer is the flush deadline of a partial group.
	r.OnTimer(func() {
		if len(r.group) > 0 {
			r.emitRepair()
		}
	})
	r.Handle(wire.TypeData, r.onData)
	r.Handle(wire.TypeRepair, r.onRepair)
	r.Handle(wire.TypeHeartbeat, r.onEOS)
	return r, nil
}

// onEOS ends the stream at the first end-of-stream heartbeat's high seq
// (the sender binding repeats it). Once the peers' last repairs have had
// time to arrive (a flush period for a peer's partial group, a second one
// for its repair's hop, and a decode), every seq up to it that is not held
// is reported lost, and the window slides past it, so no later copy or
// repair delivers a seq that was reported lost.
func (r *Receiver) onEOS(_ wire.NodeID, pkt *wire.Packet) {
	hb, err := wire.DecodeHeartbeat(pkt.Payload)
	if err != nil || pkt.Flags&wire.FlagEOS == 0 || r.ended {
		return
	}
	r.ended = true
	r.Cfg.Env.After(2*max(r.opts.Flush, 0)+decodeCost, func() { r.forget(hb.HighSeq + 1) })
}

func (r *Receiver) onData(src wire.NodeID, pkt *wire.Packet) {
	if pkt.Seq == 0 {
		return
	}
	if pkt.Seq < r.window.Low() {
		r.Counts.OutOfWindow++
		return
	}
	if r.window.State(pkt.Seq) == transport.SlotHeld {
		r.Counts.Duplicates++
		return
	}
	r.store(pkt) // kept as handed over: see transport.Endpoint
	// Per-packet LEC processing consumes CPU; delivery lands when the
	// CPU is done with it.
	r.Deliver(r.Cfg.Endpoint.Work(procCost), pkt.Seq, pkt.Payload, pkt.SentAt, false)

	// Accumulate toward the next repair: every R direct receptions emit
	// one XOR repair to C random peers (lateral error correction). The
	// initial stagger offsets this receiver's group boundaries from its
	// peers'.
	if r.stagger > 0 {
		r.stagger--
	} else {
		r.group = append(r.group, pkt)
		if len(r.group) >= r.opts.R {
			r.emitRepair()
		} else if len(r.group) == 1 && r.opts.Flush > 0 {
			// Age-bound the partial group so low-rate streams still get
			// timely repairs.
			r.ArmAt(r.Cfg.Env.Now().Add(r.opts.Flush))
		}
	}
	r.decodePending()
}

func (r *Receiver) emitRepair() {
	r.StopTimer()
	peers := r.repairTargets()
	defer func() { r.group = r.group[:0] }()
	if len(peers) == 0 {
		return
	}
	var bytes int
	for _, p := range r.group {
		bytes += len(p.Payload)
	}
	r.Cfg.Endpoint.Work(repairBuildWork + time.Duration(bytes)*repairPerByteWork)
	body, err := wire.AppendRepair(nil, r.group)
	if err != nil {
		return
	}
	pkt := r.Cfg.Packet(wire.TypeRepair, r.group[len(r.group)-1].Seq, body)
	for _, peer := range peers {
		if err := r.Cfg.Endpoint.Unicast(peer, pkt); err != nil {
			continue
		}
		r.Counts.RepairsSent++
	}
}

// repairTargets picks C random peer receivers with replacement (the
// original protocol's random targeting), deduplicated — so a repair may
// reach fewer than C distinct peers. The resulting imperfect coverage is
// part of Ricochet's probabilistic reliability. A draw indexes the receiver
// set with this node skipped; a lone peer needs no draw. The result is
// reused by the next call.
func (r *Receiver) repairTargets() []wire.NodeID {
	if r.Cfg.Receivers == nil {
		return nil
	}
	all := r.Cfg.Receivers()
	self, peers := slices.Index(all, r.Cfg.Endpoint.Local()), len(all)-1
	if self < 0 {
		self, peers = len(all), len(all)
	}
	targets := r.targets[:0]
	for i := 0; i < r.opts.C && peers > 0; i++ {
		k := 0
		if peers > 1 {
			k = r.rng.Intn(peers)
		}
		if k >= self {
			k++
		}
		if !slices.Contains(targets, all[k]) {
			targets = append(targets, all[k])
		}
	}
	r.targets = targets
	return targets
}

func (r *Receiver) onRepair(src wire.NodeID, pkt *wire.Packet) {
	rep, err := wire.DecodeRepair(pkt.Payload)
	if err != nil {
		return
	}
	r.Cfg.Endpoint.Work(repairRecvWork)
	switch r.tryDecode(rep) {
	case decodeDone, decodeUseless:
		// Either recovered a packet (and cascaded) or nothing to recover.
	case decodeStuck:
		if len(r.pending) >= maxPendingRepairs {
			r.pending = r.pending[1:]
		}
		r.pending = append(r.pending, rep)
	}
	r.decodePending()
}

type decodeResult int

const (
	decodeDone decodeResult = iota
	decodeUseless
	decodeStuck
)

// tryDecode attempts to reconstruct from one repair. decodeDone means a
// packet was recovered; decodeUseless means the repair covers nothing
// missing (or is stale); decodeStuck means >= 2 covered packets are missing.
// Only a repair with exactly one seq missing gathers its held siblings.
func (r *Receiver) tryDecode(rep wire.Repair) decodeResult {
	var missingSeq uint64
	missing := 0
	for i := 0; i < rep.Count(); i++ {
		seq := rep.Seq(i)
		if r.window.Get(seq) != nil {
			continue
		}
		if seq < r.window.Low() {
			// Evicted: we cannot XOR it out, so the repair is dead.
			r.Counts.RepairsUseless++
			return decodeUseless
		}
		missing++
		missingSeq = seq
	}
	switch missing {
	case 0:
		r.Counts.RepairsUseless++
		return decodeUseless
	case 1:
		// The recovery path runs off the receive thread: scale its cost
		// to this machine without blocking data-packet processing.
		delay := r.Cfg.Endpoint.ScaleCPU(decodeCost) + r.Cfg.Endpoint.Work(repairRecvWork)
		held := r.held[:0]
		for i := 0; i < rep.Count(); i++ {
			if seq := rep.Seq(i); seq != missingSeq {
				held = append(held, r.window.Get(seq))
			}
		}
		r.held = held
		sentAt, payload, err := rep.Reconstruct(held)
		if err != nil {
			r.Counts.RepairsUseless++
			return decodeUseless
		}
		r.store(&wire.Packet{
			Type:    wire.TypeData,
			Flags:   wire.FlagRecovered,
			Stream:  r.Cfg.Stream,
			Seq:     missingSeq,
			SentAt:  sentAt,
			Payload: payload,
		})
		r.Deliver(delay, missingSeq, payload, sentAt, true)
		r.Counts.RepairsUsed++
		return decodeDone
	default:
		return decodeStuck
	}
}

// decodePending retries buffered repairs until a pass makes no progress.
func (r *Receiver) decodePending() {
	for {
		progress := false
		kept := r.pending[:0]
		for _, rep := range r.pending {
			switch r.tryDecode(rep) {
			case decodeDone:
				progress = true
			case decodeUseless:
				// drop
			case decodeStuck:
				kept = append(kept, rep)
			}
		}
		r.pending = kept
		if !progress {
			return
		}
	}
}

func (r *Receiver) store(pkt *wire.Packet) {
	if !r.window.Fits(pkt.Seq) {
		r.forget(pkt.Seq - span + 1)
	}
	*r.window.Set(pkt.Seq, transport.SlotHeld) = pkt
	held := r.window.Count(transport.SlotHeld)
	r.Counts.NoteBuffered(held + len(r.pending))
	if held > window {
		r.evict(held)
	}
}

// evict drops the oldest quarter of the held packets.
func (r *Receiver) evict(held int) {
	left := max(held/4, 1)
	var cutoff uint64
	r.window.Each(transport.SlotHeld, func(seq uint64, _ **wire.Packet) {
		if left > 0 {
			cutoff, left = seq, left-1
		}
	})
	r.forget(cutoff + 1)
}

// forget raises the window's low end to cut. Any sequence number passing
// below it without ever having been delivered is now permanently
// unrecoverable and reported: via OnLost one at a time within a span of the
// old low end, past that as one sum in Abandoned. Only a corrupt or
// restarted seq jumps further, and walking such a gap could take forever.
func (r *Receiver) forget(cut uint64) {
	if r.Cfg.OnLost != nil {
		low := r.window.Low()
		end := min(cut, low+span)
		for s := low; s < end; s++ {
			if r.window.State(s) != transport.SlotHeld {
				r.Lost(s)
			}
		}
		r.Counts.Abandoned += cut - end
	}
	r.window.SlideTo(cut)
}
