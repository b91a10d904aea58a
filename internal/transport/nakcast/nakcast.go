// Package nakcast implements the ANT framework's NAKcast protocol: a
// NAK-based reliable multicast. The sender multicasts data packets and
// keeps a bounded retransmission history; receivers detect sequence gaps
// (from later data packets or from sender heartbeats), wait a tunable NAK
// timeout, then send a NAK listing the missing ranges; the sender answers
// with unicast retransmissions that preserve the original send timestamps.
//
// The NAK timeout is the protocol's headline tunable — the paper evaluates
// 50 ms, 25 ms, 10 ms, and 1 ms. Smaller timeouts recover faster at the
// cost of more NAK traffic under reordering.
//
// Delivery is in-order (the reliability the DDS RELIABLE QoS expects),
// which is where NAKcast's latency profile comes from: a lost packet
// head-of-line blocks its successors until recovery. Unrecoverable packets
// (sender history evicted, or the NAK retry budget exhausted) are abandoned
// so delivery always makes progress.
package nakcast

import (
	"fmt"
	"time"

	"adamant/internal/env"
	"adamant/internal/transport"
	"adamant/internal/wire"
)

// Name is the protocol's registry/spec name.
const Name = "nakcast"

// Props advertises NAKcast's transport properties.
const Props = transport.PropMulticast | transport.PropNAKReliability | transport.PropOrdered

// DefaultTimeout is the NAK timeout of a spec that leaves it out.
const DefaultTimeout = 10 * time.Millisecond

const (
	// A receiver abandons a gap after maxNaks NAKs; the sender keeps
	// historySize packets to retransmit, and its heartbeat every
	// hbInterval reveals tail gaps.
	maxNaks     = 8
	historySize = 1 << 14
	hbInterval  = 100 * time.Millisecond
	// procCost models the reference-machine CPU time the receiver spends
	// per data packet on sequencing and holdback bookkeeping (the ANT
	// framework data path without Ricochet's XOR work).
	procCost           = 50 * time.Microsecond
	retransWorkPerPkt  = 40 * time.Microsecond
	nakBuildWork       = 30 * time.Microsecond
	defaultHoldbackCap = 1 << 15

	// retransBurst is how many retransmissions a NAK is served
	// synchronously; anything beyond it is queued and paced. Small NAKs
	// (ordinary loss recovery) behave exactly as before; only big
	// backfills after a long partition take the paced path.
	retransBurst = 64
	// retransPace is the interval between paced retransmission bursts.
	// Pacing turns the post-heal backfill from one egress-queue-flooding
	// burst into a bounded trickle the NAK backoff can ride on.
	retransPace = 2 * time.Millisecond
	// maxRetransQueue bounds the sender's pending retransmission queue;
	// excess requests are dropped and recovered by the receiver's next
	// NAK retry.
	maxRetransQueue = 1 << 14
	// maxRetransScan bounds how many history slots one NAK may probe, so
	// a malformed or hostile NAK range (e.g. 1..2^60) cannot stall the
	// sender scanning sequence numbers it never published.
	maxRetransScan = 1 << 16
)

// Options are NAKcast's tunables.
type Options struct {
	// Timeout is the NAK timeout: how long a receiver waits after
	// detecting a gap before NAKing the sender. Retries back off
	// exponentially from this base.
	Timeout time.Duration
}

// Spec returns the canonical transport.Spec for a NAK timeout, e.g.
// Spec(time.Millisecond) == "nakcast(timeout=1ms)".
func Spec(timeout time.Duration) transport.Spec {
	return transport.Spec{Name: Name, Params: transport.Params{"timeout": timeout.String()}}
}

// ParseOptions extracts Options from spec params.
func ParseOptions(p transport.Params) (Options, error) {
	var o Options
	if err := p.Read(transport.DurationParam("timeout", &o.Timeout, DefaultTimeout)); err != nil {
		return o, err
	}
	if o.Timeout <= 0 {
		return o, fmt.Errorf("nakcast: timeout=%v, want a positive timeout", o.Timeout)
	}
	return o, nil
}

// Factory returns the registry factory for NAKcast.
func Factory() *transport.Factory {
	return transport.NewFactory(Name, ParseOptions, Props, func(Options) uint64 { return defaultHoldbackCap }, NewSender, NewReceiver)
}

// Sender is the writer-side NAKcast instance.
type Sender struct {
	transport.SenderCore
	hist transport.History

	// Paced retransmission state: backfill requests beyond the synchronous
	// burst budget queue here (deduplicated per destination+seq) and drain
	// retransBurst at a time every retransPace.
	rtq     []retransReq
	rtqSet  map[retransReq]bool
	rtTimer env.Timer
}

// retransReq identifies one queued retransmission.
type retransReq struct {
	dst wire.NodeID
	seq uint64
}

// NewSender builds a NAKcast sender on cfg.Endpoint; every option is the receiver's.
func NewSender(cfg transport.Config, _ Options) (*Sender, error) {
	core, err := transport.NewSenderCore(cfg)
	if err != nil {
		return nil, err
	}
	s := &Sender{SenderCore: core, hist: transport.NewHistory(historySize), rtqSet: make(map[retransReq]bool)}
	cfg.Endpoint.SetHandler(s.onNak)
	s.StartHeartbeat(hbInterval)
	return s, nil
}

// Publish implements transport.Sender.
func (s *Sender) Publish(payload []byte) error {
	pkt, err := s.Stamp(payload)
	if err != nil {
		return err
	}
	s.hist.Put(pkt)
	return s.Cfg.Endpoint.Multicast(pkt)
}

// onNak serves retransmissions. It deliberately keeps working after Close:
// Close ends publishing and heartbeats, but receivers may still be
// recovering tail losses announced by the EOS heartbeat. The first
// retransBurst packets go out synchronously (ordinary loss recovery);
// larger backfills — a healed partition NAKing hundreds of sequences at
// once — queue and drain at retransPace so the sender cannot flood its own
// egress queue into drop-tail losses the receiver must re-NAK.
func (s *Sender) onNak(src wire.NodeID, pkt *wire.Packet) {
	if pkt.Type != wire.TypeNak || pkt.Stream != s.Cfg.Stream {
		return
	}
	body, err := wire.DecodeNak(pkt.Payload)
	if err != nil {
		return
	}
	sent, scanned := 0, 0
	for _, r := range body.Ranges {
		hi := min(r.To, s.Seq()) // never scan past what was published
		for seq := r.From; seq <= hi && scanned < maxRetransScan; seq++ {
			scanned++
			if !s.hist.Has(seq) {
				continue // evicted from history or bogus
			}
			if sent < retransBurst {
				if !s.retransmit(src, seq) {
					return
				}
				sent++
			} else {
				s.enqueueRetrans(src, seq)
			}
		}
	}
}

// retransmit unicasts one held seq to dst, charging the CPU cost. It
// reports false on endpoint errors (unknown destination).
func (s *Sender) retransmit(dst wire.NodeID, seq uint64) bool {
	s.Cfg.Endpoint.Work(retransWorkPerPkt)
	return s.Cfg.Endpoint.Unicast(dst, s.hist.Retrans(seq)) == nil
}

// enqueueRetrans adds a paced retransmission, deduplicating repeat
// requests (NAK retries for a seq already queued) and dropping beyond the
// queue bound — the receiver's next backoff retry re-requests anything
// dropped here.
func (s *Sender) enqueueRetrans(dst wire.NodeID, seq uint64) {
	key := retransReq{dst: dst, seq: seq}
	if s.rtqSet[key] || len(s.rtq) >= maxRetransQueue {
		return
	}
	s.rtqSet[key] = true
	s.rtq = append(s.rtq, key)
	if !s.rtTimer.Pending() {
		s.rtTimer = s.Cfg.Env.After(retransPace, s.fireRetrans)
	}
}

// fireRetrans drains one pacing burst from the retransmission queue.
func (s *Sender) fireRetrans() {
	n := 0
	for len(s.rtq) > 0 && n < retransBurst {
		key := s.rtq[0]
		s.rtq = s.rtq[1:]
		delete(s.rtqSet, key)
		if !s.hist.Has(key.seq) {
			continue // evicted while queued
		}
		s.retransmit(key.dst, key.seq)
		n++
	}
	if len(s.rtq) > 0 {
		s.rtTimer = s.Cfg.Env.After(retransPace, s.fireRetrans)
	}
}

// Receiver is the reader-side NAKcast instance.
type Receiver struct {
	transport.ReceiverCore
	opts Options

	maxSeen uint64
	// win's low end is the delivery cursor: the lowest seq neither
	// delivered nor abandoned.
	win transport.Window[slot]
}

// slot is one sequence number's receive state: the sample while held, the
// NAK retry state while missing.
type slot struct {
	sentAt    time.Time
	payload   []byte
	recovered bool
	naks      int
	due       time.Time
}

// NewReceiver builds a NAKcast receiver on cfg.Endpoint.
func NewReceiver(cfg transport.Config, opts Options) (*Receiver, error) {
	core, err := transport.NewReceiverCore(cfg)
	if err != nil {
		return nil, err
	}
	r := &Receiver{
		ReceiverCore: core,
		opts:         opts,
		maxSeen:      cfg.BaseSeq,
		win:          transport.NewWindow[slot](cfg.BaseSeq+1, defaultHoldbackCap),
	}
	r.OnTimer(r.fireNaks)
	r.Handle(wire.TypeData, r.onData)
	r.Handle(wire.TypeRetrans, r.onData)
	r.Handle(wire.TypeHeartbeat, r.onHeartbeat)
	return r, nil
}

func (r *Receiver) onData(_ wire.NodeID, pkt *wire.Packet) {
	seq := pkt.Seq
	if seq <= r.Cfg.BaseSeq {
		return // below this instance's sequence space (covers bogus seq 0)
	}
	if st := r.win.State(seq); seq < r.win.Low() || st == transport.SlotHeld || st == transport.SlotAbandoned {
		r.Counts.Duplicates++
		return
	}
	if !r.win.Fits(seq) {
		r.Counts.OutOfWindow++
		return
	}
	*r.win.Set(seq, transport.SlotHeld) = slot{
		sentAt:    pkt.SentAt,
		payload:   pkt.Payload,
		recovered: pkt.Type == wire.TypeRetrans,
	}
	r.noteHigh(seq, true)
	r.noteBuffered()
	r.drain()
}

func (r *Receiver) onHeartbeat(_ wire.NodeID, pkt *wire.Packet) {
	hb, err := wire.DecodeHeartbeat(pkt.Payload)
	if err != nil {
		return
	}
	r.noteHigh(hb.HighSeq, false)
	r.drain()
}

// noteHigh records a new high watermark, marking any newly discovered gap
// sequences missing and arming the NAK timer. receivedHigh distinguishes a
// data arrival (seq itself is present) from a heartbeat announcement (seq
// itself may be missing too). An announcement past the window is clamped
// to its end: a heartbeat's HighSeq is outside input, and one corrupt value
// must not make the receiver materialise an unbounded gap.
func (r *Receiver) noteHigh(seq uint64, receivedHigh bool) {
	seq = min(seq, r.win.Low()+defaultHoldbackCap-1)
	if seq <= r.maxSeen {
		return
	}
	now := r.Cfg.Env.Now()
	due := now.Add(r.opts.Timeout)
	hi := seq
	if receivedHigh {
		hi = seq - 1
	}
	for m := r.maxSeen + 1; m <= hi; m++ {
		*r.win.Set(m, transport.SlotMissing) = slot{due: due}
	}
	r.maxSeen = seq
	r.noteBuffered()
	r.armNakTimer()
}

// noteBuffered records the recovery state: held samples, open gaps, and
// the abandoned seqs the window holds.
func (r *Receiver) noteBuffered() {
	r.Counts.NoteBuffered(r.win.Count(transport.SlotHeld) + r.win.Count(transport.SlotMissing) +
		r.win.Count(transport.SlotAbandoned))
}

// armNakTimer (re)schedules the core's timer for the earliest due missing
// packet.
func (r *Receiver) armNakTimer() {
	var earliest time.Time
	r.win.Each(transport.SlotMissing, func(_ uint64, m *slot) {
		if earliest.IsZero() || m.due.Before(earliest) {
			earliest = m.due
		}
	})
	r.ArmAt(earliest)
}

// fireNaks NAKs every due gap, lowest first, and abandons those whose retry
// budget is spent — so OnLost reports ascending seqs.
func (r *Receiver) fireNaks() {
	now := r.Cfg.Env.Now()
	due := false
	var naks []wire.SeqRange
	r.win.Each(transport.SlotMissing, func(seq uint64, m *slot) {
		if m.due.After(now) {
			return
		}
		due = true
		m.naks++
		if m.naks > maxNaks {
			r.abandon(seq)
			return
		}
		m.due = now.Add(r.opts.Timeout << uint(m.naks)) // exponential from base
		if n := len(naks); n > 0 && naks[n-1].To+1 == seq {
			naks[n-1].To = seq
		} else {
			naks = append(naks, wire.SeqRange{From: seq, To: seq})
		}
	})
	if due {
		if len(naks) > 0 {
			r.sendNak(naks)
		}
		r.drain()
	}
	r.armNakTimer()
}

// abandon gives up on the gap at seq.
func (r *Receiver) abandon(seq uint64) {
	r.win.Set(seq, transport.SlotAbandoned)
	r.Lost(seq)
}

func (r *Receiver) sendNak(ranges []wire.SeqRange) {
	if len(ranges) > 255 {
		ranges = ranges[:255]
	}
	body, err := (&wire.NakBody{Ranges: ranges}).Encode(nil)
	if err != nil {
		return
	}
	r.Cfg.Endpoint.Work(nakBuildWork)
	if err := r.Cfg.Endpoint.Unicast(r.Cfg.SenderID, r.Cfg.Packet(wire.TypeNak, 0, body)); err != nil {
		return
	}
	r.Counts.NaksSent++
}

// drain delivers in order from the cursor, passing abandoned seqs.
func (r *Receiver) drain() { r.win.Drain(r.deliver) }

func (r *Receiver) deliver(seq uint64, e *slot) {
	// Sequencing/holdback bookkeeping consumes CPU; delivery lands when
	// the CPU is done. Bursts released by a recovery stack up naturally.
	r.Deliver(r.Cfg.Endpoint.Work(procCost), seq, e.payload, e.sentAt, e.recovered)
}
