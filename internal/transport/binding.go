package transport

import (
	"errors"
	"fmt"
	"time"

	"adamant/internal/env"
	"adamant/internal/wire"
)

// This file implements epoch-based hot-swappable transport bindings: the
// drain-and-handoff state machine that lets a live stream change protocol
// (e.g. nakcast -> ricochet) with no sample loss, no duplicates, and
// preserved per-stream ordering.
//
// Model: every protocol instance belongs to an *epoch* (a binding
// generation, stamped into each packet's header). A swap closes the old
// sender at a cut sequence — it stops publishing but keeps serving recovery
// for its own epoch — and starts the new protocol with BaseSeq = cut, so
// the epochs own disjoint, contiguous slices of one sequence space:
// epoch e covers (base_e, cut_e]. The swap is announced in-band (TypeRebind
// carrying the full chain of switches) and re-announced periodically, so
// receivers partitioned across one or several swaps can reconstruct every
// generation they missed. On the receiver side, deliveries from a newer
// epoch are held back until every earlier *ordered* epoch has accounted for
// its whole slice (each sequence delivered or reported lost), which
// preserves per-stream ordering across the swap. Whether an epoch is ordered
// is a property of its protocol: ricochet and bemcast never promised
// ordering, so their epochs complete as soon as their cut is known.

const (
	// announceInterval is how often a sender binding re-multicasts its
	// rebind chain after a swap, and its end of stream once closed. A lost
	// one is recovered by the next period.
	announceInterval = 100 * time.Millisecond
	// announceLinger is how many further end-of-stream heartbeats (and
	// chain announcements, after a swap) follow Close, so receivers healing
	// late in the run still learn where the stream ends. Bounded so a
	// closed binding quiesces.
	announceLinger = 10
	// maxParked bounds packets buffered for epochs the receiver has not
	// learned yet (the announcement is still in flight). Dropped packets
	// are recovered by the new epoch's own protocol, or stay lost on
	// best-effort transports.
	maxParked = 512
	// maxBindingEpochs bounds the rebind chain; it must not exceed the wire
	// format's announcement record cap.
	maxBindingEpochs = 32
)

// BindingConfig configures a hot-swappable sender or receiver binding.
type BindingConfig struct {
	Config
	// Registry resolves protocol specs to factories.
	Registry *Registry
	// Spec is the initial (epoch-0) protocol.
	Spec Spec
	// OnTransportChanged, when non-nil, is invoked on the receiver side
	// each time a new epoch is activated locally (the middleware's
	// TRANSPORT_CHANGED status).
	OnTransportChanged func(epoch uint16, spec Spec)
}

func (bc *BindingConfig) validate() error {
	if bc.Registry == nil {
		return errors.New("transport: binding config missing Registry")
	}
	if bc.Spec.Name == "" {
		return errors.New("transport: binding config missing Spec")
	}
	return nil
}

// fromSender marks the packet types only a stream's sender originates. The
// router drops them from any other source, so no other node can set a
// stream's sequence state, end it, or extend its rebind chain. Repairs come
// from peer receivers and NAKs from receivers, so they pass from anyone.
var fromSender = [...]bool{
	wire.TypeData:      true,
	wire.TypeRetrans:   true,
	wire.TypeHeartbeat: true,
	wire.TypeSymbol:    true,
	wire.TypeRebind:    true,
}

// epochRouter owns the endpoint handler and dispatches ingress packets to
// per-epoch protocol instances by the packet's epoch stamp.
type epochRouter struct {
	ep        Endpoint
	sender    wire.NodeID      // the only source of fromSender types
	routes    []*epochEndpoint // index == epoch; dense from 0
	onRebind  func(src wire.NodeID, pkt *wire.Packet)
	onUnknown func(src wire.NodeID, pkt *wire.Packet)
}

func newEpochRouter(ep Endpoint, sender wire.NodeID) *epochRouter {
	r := &epochRouter{ep: ep, sender: sender}
	ep.SetHandler(r.dispatch)
	return r
}

func (r *epochRouter) dispatch(src wire.NodeID, pkt *wire.Packet) {
	if int(pkt.Type) < len(fromSender) && fromSender[pkt.Type] && src != r.sender {
		return
	}
	if pkt.Type == wire.TypeRebind {
		if r.onRebind != nil {
			r.onRebind(src, pkt)
		}
		return
	}
	if int(pkt.Epoch) < len(r.routes) {
		r.inject(pkt.Epoch, src, pkt)
		return
	}
	if r.onUnknown != nil {
		r.onUnknown(src, pkt)
	}
}

// config returns cfg for one epoch's protocol instance: the epoch, which
// Config.Packet stamps on every packet, and the epoch's endpoint view, made
// on first use (epochs come in order), whose handler the instance owns.
func (r *epochRouter) config(cfg Config, epoch uint16) Config {
	if int(epoch) == len(r.routes) {
		r.routes = append(r.routes, &epochEndpoint{Endpoint: r.ep})
	}
	cfg.Endpoint, cfg.epoch = r.routes[epoch], epoch
	return cfg
}

// inject feeds a locally synthesized packet to an epoch's handler as if it
// had arrived from the network.
func (r *epochRouter) inject(epoch uint16, src wire.NodeID, pkt *wire.Packet) {
	if int(epoch) < len(r.routes) && r.routes[epoch].handler != nil {
		r.routes[epoch].handler(src, pkt)
	}
}

// epochEndpoint is an epoch-scoped view of the router's endpoint: ingress
// packets were routed to it by their epoch stamp. Egress passes straight
// through, since each packet carries its epoch from the moment it is built.
type epochEndpoint struct {
	Endpoint
	handler func(src wire.NodeID, pkt *wire.Packet)
}

func (e *epochEndpoint) SetHandler(h func(src wire.NodeID, pkt *wire.Packet)) { e.handler = h }

// SenderBinding owns the writer side of one stream across epochs. It
// implements Sender; Swap performs a live protocol change.
type SenderBinding struct {
	cfg    Config
	reg    *Registry
	router *epochRouter

	senders []Sender // one per epoch; index == epoch, the last publishes
	curSpec Spec
	chain   []wire.RebindRecord

	annTimer   env.Timer
	lingerLeft int
	closed     bool
}

var _ Sender = (*SenderBinding)(nil)

// NewSenderBinding builds the writer-side binding with its epoch-0 protocol
// instance.
func NewSenderBinding(bc BindingConfig) (*SenderBinding, error) {
	if err := bc.validate(); err != nil {
		return nil, err
	}
	if err := bc.Config.ValidateSender(); err != nil {
		return nil, err
	}
	b := &SenderBinding{cfg: bc.Config, reg: bc.Registry}
	b.router = newEpochRouter(bc.Config.Endpoint, bc.SenderID)
	s, err := bc.Registry.NewSender(bc.Spec, b.router.config(b.cfg, 0))
	if err != nil {
		return nil, err
	}
	b.senders, b.curSpec = []Sender{s}, bc.Spec
	b.chain = []wire.RebindRecord{{Epoch: 0, Cut: bc.Config.BaseSeq, Spec: bc.Spec.String()}}
	return b, nil
}

// Publish implements Sender through the current epoch's protocol.
func (b *SenderBinding) Publish(payload []byte) error {
	if b.closed {
		return ErrClosed
	}
	return b.cur().Publish(payload)
}

func (b *SenderBinding) cur() Sender { return b.senders[len(b.senders)-1] }

// Seq implements Sender. Epoch bases chain the instances onto one shared
// sequence space, so this is the stream-global published count.
func (b *SenderBinding) Seq() uint64 { return b.cur().Seq() }

// Epoch returns the current binding generation.
func (b *SenderBinding) Epoch() uint16 { return uint16(len(b.senders) - 1) }

// Spec returns the current epoch's protocol spec.
func (b *SenderBinding) Spec() Spec { return b.curSpec }

// Swaps returns how many live protocol swaps have been performed.
func (b *SenderBinding) Swaps() int { return len(b.senders) - 1 }

// Chain returns a copy of the rebind chain, oldest first. Record e's Cut is
// the sequence where epoch e-1 ends and epoch e begins publishing.
func (b *SenderBinding) Chain() []wire.RebindRecord {
	return append([]wire.RebindRecord(nil), b.chain...)
}

// Swap hands the stream over to a new protocol. The new instance is built
// first (a failed swap leaves the old binding untouched), then the old
// sender is closed at the cut — it stops publishing and heartbeating but
// keeps serving recovery for its own epoch per its protocol's contract —
// and the swap is announced in-band immediately and then periodically, so
// receivers partitioned across the swap still learn the chain.
func (b *SenderBinding) Swap(spec Spec) error {
	if b.closed {
		return ErrClosed
	}
	if spec.String() == b.curSpec.String() {
		return nil
	}
	if len(b.chain) >= maxBindingEpochs {
		return fmt.Errorf("transport: rebind chain full (%d epochs)", len(b.chain))
	}
	old := b.cur()
	cut := old.Seq()
	next := b.Epoch() + 1
	cfg := b.router.config(b.cfg, next)
	cfg.BaseSeq = cut
	ns, err := b.reg.NewSender(spec, cfg)
	if err != nil {
		return err
	}
	b.senders, b.curSpec = append(b.senders, ns), spec
	b.chain = append(b.chain, wire.RebindRecord{Epoch: next, Cut: cut, Spec: spec.String()})
	_ = old.Close()
	b.announce()
	b.armAnnounce()
	return nil
}

// Close implements Sender: every epoch instance closes, the current one
// with its end-of-stream heartbeat (protocols may keep serving recovery per
// their own post-Close contracts). A bounded linger then repeats that end
// of stream, and the chain after a swap, so a partitioned receiver healing
// late still learns both, and a closed binding always quiesces.
func (b *SenderBinding) Close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	err := b.cur().Close()
	for _, s := range b.senders[:len(b.senders)-1] {
		_ = s.Close()
	}
	b.lingerLeft = announceLinger
	if b.Swaps() > 0 {
		b.announce()
	}
	b.armAnnounce()
	return err
}

func (b *SenderBinding) announce() {
	body, err := (&wire.RebindBody{Records: b.chain}).Encode(nil)
	if err != nil {
		return
	}
	cfg := b.router.config(b.cfg, b.Epoch())
	// Announcement loss surfaces as parked packets at receivers until the
	// next period; nothing useful to do with an error here.
	_ = cfg.Endpoint.Multicast(cfg.Packet(wire.TypeRebind, 0, body))
}

func (b *SenderBinding) armAnnounce() {
	if b.annTimer.Pending() {
		return
	}
	b.annTimer = b.cfg.Env.After(announceInterval, b.fireAnnounce)
}

// fireAnnounce re-announces the chain after a swap and, once closed,
// repeats the current epoch's end of stream until the linger runs out.
// Superseded epochs need no repeat: their cut is in the chain, and
// ReceiverBinding.injectEOS ends them from it.
func (b *SenderBinding) fireAnnounce() {
	if b.closed {
		if b.lingerLeft <= 0 {
			return
		}
		b.lingerLeft--
		cfg := b.router.config(b.cfg, b.Epoch())
		cfg.multicastHeartbeat(b.Seq(), wire.FlagEOS)
	}
	if b.Swaps() > 0 {
		b.announce()
	}
	b.annTimer = b.cfg.Env.After(announceInterval, b.fireAnnounce)
}

// epochState tracks one protocol generation on the receiver side.
type epochState struct {
	epoch    uint16
	spec     Spec
	props    Properties
	recv     Receiver
	base     uint64 // previous epoch's cut: this epoch publishes from base+1
	cut      uint64 // this epoch's final sequence; meaningful once cutKnown
	cutKnown bool
	covered  uint64 // sequences in (base, cut] delivered or reported lost
	done     bool
	held     []Delivery // deliveries gated behind an earlier draining epoch

	superseded   bool
	supersededAt time.Time // when a newer epoch was first activated locally
	doneAt       time.Time
}

// EpochInfo is a harness-facing snapshot of one receiver-side epoch.
type EpochInfo struct {
	Epoch    uint16
	Spec     Spec
	Props    Properties
	Base     uint64
	Cut      uint64
	CutKnown bool
	Done     bool
	// DrainLatency is how long the epoch took to finish after a newer epoch
	// took over locally: the receiver-observed drain-and-handoff cost.
	DrainLatency time.Duration
}

// ReceiverBinding owns the reader side of one stream across epochs. It
// implements Receiver and follows the sender's swaps via in-band rebind
// announcements.
type ReceiverBinding struct {
	cfg      Config
	reg      *Registry
	router   *epochRouter
	onChange func(epoch uint16, spec Spec)

	epochs []*epochState // instantiated epochs, the learned chain; index == epoch number

	parked      []parkedPacket
	parkedDrops uint64

	delivered  uint64
	recoveredN uint64
	holdHigh   uint64 // holdback+parked high-water; counts toward MaxBuffered
	closed     bool
}

type parkedPacket struct {
	src wire.NodeID
	pkt *wire.Packet
}

var _ Receiver = (*ReceiverBinding)(nil)

// NewReceiverBinding builds the reader-side binding with its epoch-0
// protocol instance.
func NewReceiverBinding(bc BindingConfig) (*ReceiverBinding, error) {
	if err := bc.validate(); err != nil {
		return nil, err
	}
	if err := bc.Config.ValidateReceiver(); err != nil {
		return nil, err
	}
	b := &ReceiverBinding{
		cfg:      bc.Config,
		reg:      bc.Registry,
		onChange: bc.OnTransportChanged,
	}
	b.router = newEpochRouter(bc.Config.Endpoint, bc.SenderID)
	b.router.onRebind = b.onRebind
	b.router.onUnknown = b.park
	if _, err := b.addEpoch(0, bc.Config.BaseSeq, bc.Spec); err != nil {
		return nil, err
	}
	return b, nil
}

// addEpoch instantiates one protocol generation. Callers add epochs in
// ascending order (the chain is dense from 0).
func (b *ReceiverBinding) addEpoch(epoch uint16, base uint64, spec Spec) (*epochState, error) {
	props, err := b.reg.Props(spec)
	if err != nil {
		return nil, err
	}
	es := &epochState{epoch: epoch, spec: spec, props: props, base: base}
	cfg := b.router.config(b.cfg, epoch)
	cfg.BaseSeq = base
	cfg.Deliver = func(d Delivery) { b.onDeliver(es, d) }
	cfg.OnLost = func(seq uint64) { b.onLost(es, seq) }
	recv, err := b.reg.NewReceiver(spec, cfg)
	if err != nil {
		return nil, err
	}
	es.recv = recv
	now := b.cfg.Env.Now()
	for _, old := range b.epochs {
		if !old.superseded {
			old.superseded, old.supersededAt = true, now
		}
	}
	b.epochs = append(b.epochs, es)
	return es, nil
}

// Epoch returns the newest locally activated binding generation.
func (b *ReceiverBinding) Epoch() uint16 { return uint16(len(b.epochs) - 1) }

// Spec returns the newest locally activated epoch's protocol spec.
func (b *ReceiverBinding) Spec() Spec { return b.epochs[b.Epoch()].spec }

// Epochs returns a snapshot of every instantiated epoch, ascending.
func (b *ReceiverBinding) Epochs() []EpochInfo {
	out := make([]EpochInfo, 0, len(b.epochs))
	for _, es := range b.epochs {
		info := EpochInfo{
			Epoch: es.epoch, Spec: es.spec, Props: es.props,
			Base: es.base, Cut: es.cut, CutKnown: es.cutKnown, Done: es.done,
		}
		if es.done && es.superseded && es.doneAt.After(es.supersededAt) {
			info.DrainLatency = es.doneAt.Sub(es.supersededAt)
		}
		out = append(out, info)
	}
	return out
}

// ParkedDrops returns how many packets were dropped because they arrived
// for an epoch the receiver had not learned yet and the parking buffer was
// full.
func (b *ReceiverBinding) ParkedDrops() uint64 { return b.parkedDrops }

// Stats implements Receiver: protocol counters summed across epochs, with
// Delivered/Recovered replaced by the binding's app-visible counts (samples
// still gated behind a draining epoch have not reached the application) and
// MaxBuffered the max of per-instance high-waters and the binding's own
// holdback/parking high-water.
func (b *ReceiverBinding) Stats() ReceiverStats {
	var out ReceiverStats
	for _, es := range b.epochs {
		st := es.recv.Stats()
		out.Duplicates += st.Duplicates
		out.NaksSent += st.NaksSent
		out.RepairsSent += st.RepairsSent
		out.RepairsUsed += st.RepairsUsed
		out.RepairsUseless += st.RepairsUseless
		out.Abandoned += st.Abandoned
		out.OutOfWindow += st.OutOfWindow
		if st.MaxBuffered > out.MaxBuffered {
			out.MaxBuffered = st.MaxBuffered
		}
	}
	if b.holdHigh > out.MaxBuffered {
		out.MaxBuffered = b.holdHigh
	}
	out.Delivered = b.delivered
	out.Recovered = b.recoveredN
	return out
}

// Close implements Receiver.
func (b *ReceiverBinding) Close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	for _, es := range b.epochs {
		_ = es.recv.Close()
	}
	b.parked = nil
	return nil
}

func (b *ReceiverBinding) onRebind(src wire.NodeID, pkt *wire.Packet) {
	if b.closed || pkt.Stream != b.cfg.Stream {
		return
	}
	body, err := wire.DecodeRebind(pkt.Payload)
	if err != nil {
		return
	}
	b.learnChain(body.Records)
}

// learnChain extends the local chain with any records not seen yet and
// instantiates their protocol generations. Chains are append-only and dense
// from epoch 0, so a record either is already known or extends the tail.
func (b *ReceiverBinding) learnChain(records []wire.RebindRecord) {
	var newest *epochState
	for _, rec := range records {
		if int(rec.Epoch) < len(b.epochs) {
			continue
		}
		if int(rec.Epoch) != len(b.epochs) || len(b.epochs) >= maxBindingEpochs {
			break // gap or overflow: wait for a well-formed announcement
		}
		spec, err := ParseSpec(rec.Spec)
		if err != nil {
			break
		}
		es, err := b.addEpoch(rec.Epoch, rec.Cut, spec)
		if err != nil {
			break
		}
		prev := b.epochs[rec.Epoch-1]
		prev.cut, prev.cutKnown = rec.Cut, true
		newest = es
	}
	// Re-run on every announcement, not just on news: an ordered epoch
	// that has not drained gets its synthetic EOS again (injectEOS says
	// why). It goes before the parked packets replay, whose deliveries
	// already mark an unordered epoch done.
	b.injectEOS()
	if newest != nil {
		b.replayParked()
		if b.onChange != nil {
			b.onChange(newest.epoch, newest.spec)
		}
	}
	b.checkProgress()
}

// injectEOS synthesizes the old sender's end-of-stream heartbeat (its real
// one may have been lost) for every superseded, incomplete epoch whose cut
// is known: once if unordered (checkProgress then marks it done), on every
// announcement if ordered until it drains, since nakcast opens gaps only up
// to its window (32 768 seqs) past its cursor and the closed old sender
// heartbeats no more, so after a longer outage each repeat opens the next
// part of the tail. Ricochet and fountcast close their tail on it.
func (b *ReceiverBinding) injectEOS() {
	for _, es := range b.epochs {
		if !es.cutKnown || es.done {
			continue
		}
		body, err := (&wire.HeartbeatBody{HighSeq: es.cut}).Encode(nil)
		if err != nil {
			continue
		}
		b.router.inject(es.epoch, b.cfg.SenderID, &wire.Packet{
			Type:    wire.TypeHeartbeat,
			Flags:   wire.FlagEOS,
			Src:     b.cfg.SenderID,
			Stream:  b.cfg.Stream,
			Seq:     es.cut,
			Epoch:   es.epoch,
			SentAt:  b.cfg.Env.Now(),
			Payload: body,
		})
	}
}

// park keeps a packet whose epoch the receiver has not learned yet; it is
// replayed into the epoch's instance once an announcement teaches us the
// chain.
func (b *ReceiverBinding) park(src wire.NodeID, pkt *wire.Packet) {
	if b.closed {
		return
	}
	if len(b.parked) >= maxParked {
		b.parkedDrops++
		return
	}
	b.parked = append(b.parked, parkedPacket{src: src, pkt: pkt})
	b.noteHold()
}

func (b *ReceiverBinding) replayParked() {
	if len(b.parked) == 0 {
		return
	}
	pending := b.parked
	b.parked = nil
	for _, pp := range pending {
		if int(pp.pkt.Epoch) < len(b.epochs) {
			b.router.inject(pp.pkt.Epoch, pp.src, pp.pkt)
		} else {
			b.parked = append(b.parked, pp)
		}
	}
}

func (b *ReceiverBinding) onDeliver(es *epochState, d Delivery) {
	if b.closed {
		return
	}
	// Coverage counts protocol-level accounting, not app hand-up: every
	// delivery's sequence lies in this epoch's (base, cut] slice, and a
	// sequence is delivered at most once (or reported lost, never both).
	es.covered++
	if b.gated(es) {
		es.held = append(es.held, d)
		b.noteHold()
		b.checkProgress()
		return
	}
	b.handUp(d)
	b.checkProgress()
}

func (b *ReceiverBinding) onLost(es *epochState, seq uint64) {
	es.covered++
	if b.cfg.OnLost != nil {
		b.cfg.OnLost(seq)
	}
	if !b.closed {
		b.checkProgress()
	}
}

// gated reports whether deliveries from es must be held because an earlier
// ordered epoch has not drained its slice yet.
func (b *ReceiverBinding) gated(es *epochState) bool {
	for _, prior := range b.epochs[:es.epoch] {
		if prior.props.Has(PropOrdered) && !prior.done {
			return true
		}
	}
	return false
}

// checkProgress recomputes epoch completion and flushes deliveries held
// behind drained epochs. An ordered epoch is done when every sequence in
// (base, cut] has been delivered or declared lost; an unordered epoch is
// done as soon as its cut is known — it never promised ordering, so nothing
// downstream waits on its stragglers.
func (b *ReceiverBinding) checkProgress() {
	now := b.cfg.Env.Now()
	blocked := false
	for _, es := range b.epochs {
		if !es.done && es.cutKnown {
			if !es.props.Has(PropOrdered) || es.covered >= es.cut-es.base {
				es.done, es.doneAt = true, now
			}
		}
		if !blocked && len(es.held) > 0 {
			held := es.held
			es.held = nil
			for _, d := range held {
				// Held samples land when the gate opens; restamping keeps
				// app-visible delivery times monotonic.
				d.DeliveredAt = now
				b.handUp(d)
			}
		}
		if es.props.Has(PropOrdered) && !es.done {
			blocked = true
		}
	}
}

func (b *ReceiverBinding) handUp(d Delivery) {
	b.delivered++
	if d.Recovered {
		b.recoveredN++
	}
	b.cfg.Deliver(d)
}

func (b *ReceiverBinding) noteHold() {
	n := uint64(len(b.parked))
	for _, es := range b.epochs {
		n += uint64(len(es.held))
	}
	if n > b.holdHigh {
		b.holdHigh = n
	}
}
