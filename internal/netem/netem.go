// Package netem emulates the cloud computing environment the paper
// provisions from Emulab: a switched LAN of nodes with configurable machine
// type (CPU speed), link bandwidth, and end-host packet loss.
//
// The emulator runs in virtual time on an env.Env (normally a SimEnv) and
// models, per packet:
//
//  1. sender-side CPU cost (middleware marshal + OS send path), serialized
//     on the sending node's CPU and scaled by its machine's CPUFactor;
//  2. egress serialization delay (frame bits / link bandwidth) on a bounded
//     drop-tail egress queue;
//  3. switch store-and-forward plus propagation delay;
//  4. receiver-side CPU cost, serialized on the receiving node's CPU —
//     which is how CPU contention turns into queueing latency on slow
//     machines at high rates;
//  5. loss: end-host random drop of data-bearing packets (the paper's
//     methodology: readers programmatically drop the configured percentage),
//     plus an optional Gilbert-Elliott bursty link-loss model for failure-
//     injection tests.
//
// Multicast follows switched-Ethernet semantics: the sender serializes a
// frame once and the switch replicates it to every other node.
package netem

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"adamant/internal/env"
	"adamant/internal/metrics"
	"adamant/internal/sim"
	"adamant/internal/wire"
)

// Machine describes a compute platform profile. CPUFactor scales every
// CPU cost relative to the reference machine (pc3000 == 1.0).
type Machine struct {
	Name      string
	MHz       int
	RAMMB     int
	CPUFactor float64
}

// Machine profiles: the Emulab hardware used in the paper, the two machine
// types the knowledge base is trained on.
var (
	PC850  = Machine{Name: "pc850", MHz: 850, RAMMB: 256, CPUFactor: 5.0}
	PC3000 = Machine{Name: "pc3000", MHz: 3000, RAMMB: 2048, CPUFactor: 1.0}
)

// MachineByName resolves a machine profile by its Emulab-style name.
func MachineByName(name string) (Machine, error) {
	for _, m := range []Machine{PC850, PC3000} {
		if m.Name == name {
			return m, nil
		}
	}
	return Machine{}, fmt.Errorf("netem: unknown machine type %q", name)
}

// Bandwidth is a link speed in bits per second.
type Bandwidth int64

// LAN bandwidths from the paper's Table 1.
const (
	Mbps10  Bandwidth = 10_000_000
	Mbps100 Bandwidth = 100_000_000
	Gbps1   Bandwidth = 1_000_000_000
)

// String implements fmt.Stringer ("10Mb", "100Mb", "1Gb", else raw bps).
func (b Bandwidth) String() string {
	switch b {
	case Mbps10:
		return "10Mb"
	case Mbps100:
		return "100Mb"
	case Gbps1:
		return "1Gb"
	}
	return fmt.Sprintf("%dbps", int64(b))
}

// BandwidthByName parses the paper's bandwidth labels.
func BandwidthByName(name string) (Bandwidth, error) {
	switch name {
	case "10Mb":
		return Mbps10, nil
	case "100Mb":
		return Mbps100, nil
	case "1Gb":
		return Gbps1, nil
	}
	return 0, fmt.Errorf("netem: unknown bandwidth %q", name)
}

// FrameOverhead is the per-frame Ethernet+IP+UDP overhead in bytes added on
// top of the wire-format packet when modeling serialization and bandwidth.
const FrameOverhead = 54

// Per-packet CPU costs on the reference machine (CPUFactor 1.0): a
// 2005-era QoS pub/sub middleware data path (marshal, QoS bookkeeping,
// socket syscall) on the pc3000 reference node. Costs grow linearly with
// frame size via the per-KB terms and are multiplied by the node's
// CPUFactor and ProcScale.
const (
	sendBase  = 18 * time.Microsecond
	sendPerKB = 3 * time.Microsecond
	recvBase  = 26 * time.Microsecond
	recvPerKB = 3 * time.Microsecond
)

func sendCost(frameBytes int) time.Duration {
	return sendBase + time.Duration(frameBytes)*sendPerKB/1024
}

func recvCost(frameBytes int) time.Duration {
	return recvBase + time.Duration(frameBytes)*recvPerKB/1024
}

// Config parameterizes a Network. The zero value is completed by New with
// the defaults documented on each field.
type Config struct {
	// Bandwidth is the LAN link speed. Default: Gbps1.
	Bandwidth Bandwidth
}

// DefaultPropDelay is the one-way propagation plus switch latency. On a
// sharded network it is also the conservative lookahead: no packet reaches
// another node sooner than one propagation time, which is what makes
// DefaultPropDelay-wide time windows safe to run in parallel.
const DefaultPropDelay = 30 * time.Microsecond

// maxQueueDelay bounds each node's egress queueing delay; a frame that
// would wait longer is dropped (drop-tail).
const maxQueueDelay = 50 * time.Millisecond

func (c *Config) fillDefaults() {
	if c.Bandwidth == 0 {
		c.Bandwidth = Gbps1
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Bandwidth < 0 {
		return errors.New("netem: negative bandwidth")
	}
	return nil
}

// Network is a single switched LAN of emulated nodes.
//
// A network runs in one of two modes. The classic mode (New) drives every
// node from one shared env on a single kernel. The sharded mode
// (NewSharded) gives every node its own lane of a sim.Sharded engine —
// per-node state is then only touched by that node's lane, so lanes run in
// parallel under the engine's conservative DefaultPropDelay-wide time windows
// while producing the same deterministic behavior at any worker count.
type Network struct {
	env   env.Env // classic mode only; nil when sharded
	sh    *sim.Sharded
	cfg   Config
	nodes []*Node
	// freeIn recycles the switch-delivery records handed to env.ScheduleArg
	// (Node.freeRx does the same for CPU-done dispatches), so the emulator's
	// hot path runs closure- and allocation-free in steady state.
	// Single-threaded by the env serialization contract.
	freeIn []*inflight
}

// maxFreeDispatch bounds the dispatch-record pools the same way the kernel
// bounds its event free list.
const maxFreeDispatch = 4096

// inflight is a frame traversing the switch: scheduled at transmit time,
// delivered to every target at arrival time by deliverInflight.
type inflight struct {
	net     *Network
	src     wire.NodeID
	pkt     *wire.Packet
	frame   int
	targets []*Node
}

// deliverInflight is the static ScheduleArg callback for switch delivery.
func deliverInflight(a any) {
	f := a.(*inflight)
	for _, t := range f.targets {
		t.receive(f.src, f.pkt, f.frame)
	}
	f.net.putInflight(f)
}

func (n *Network) getInflight() *inflight {
	if ln := len(n.freeIn); ln > 0 {
		f := n.freeIn[ln-1]
		n.freeIn[ln-1] = nil
		n.freeIn = n.freeIn[:ln-1]
		return f
	}
	return &inflight{net: n}
}

func (n *Network) putInflight(f *inflight) {
	f.pkt = nil
	f.targets = f.targets[:0]
	if len(n.freeIn) < maxFreeDispatch {
		n.freeIn = append(n.freeIn, f)
	}
}

// rxDispatch hands a received packet to the node handler once the receiver
// CPU finishes its per-packet cost.
type rxDispatch struct {
	nd  *Node
	src wire.NodeID
	pkt *wire.Packet
}

// dispatchRx is the static ScheduleArg callback for receiver-CPU completion.
// The record goes back to its node's pool before the handler runs.
func dispatchRx(a any) {
	d := a.(*rxDispatch)
	nd, src, pkt := d.nd, d.src, d.pkt
	d.nd, d.pkt = nil, nil
	if len(nd.freeRx) < maxFreeDispatch {
		nd.freeRx = append(nd.freeRx, d)
	}
	if nd.handler != nil {
		nd.handler(src, pkt)
	}
}

func (nd *Node) getRx() *rxDispatch {
	if ln := len(nd.freeRx); ln > 0 {
		d := nd.freeRx[ln-1]
		nd.freeRx[ln-1] = nil
		nd.freeRx = nd.freeRx[:ln-1]
		return d
	}
	return &rxDispatch{}
}

// xArrival carries one frame across a lane boundary: scheduled on the
// sender's lane, delivered on the receiver's. The records go through a
// sync.Pool because Get/Put happen on different workers; pooling order is
// determinism-neutral since every field is rewritten before use.
type xArrival struct {
	nd    *Node
	src   wire.NodeID
	pkt   *wire.Packet
	frame int
}

var xArrivalPool = sync.Pool{New: func() any { return new(xArrival) }}

// deliverXArrival is the cross-lane counterpart of deliverInflight, running
// on the receiving node's lane.
func deliverXArrival(v any) {
	a := v.(*xArrival)
	nd, src, pkt, frame := a.nd, a.src, a.pkt, a.frame
	a.nd, a.pkt = nil, nil
	xArrivalPool.Put(a)
	nd.receive(src, pkt, frame)
}

// New builds a LAN on the given environment.
func New(e env.Env, cfg Config) (*Network, error) {
	if e == nil {
		return nil, errors.New("netem: nil env")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	return &Network{env: e, cfg: cfg}, nil
}

// NewSharded builds a LAN on a lane-sharded engine: every AddNode claims a
// fresh lane, and packets crossing nodes go through the engine's
// conservative window barrier. The engine's lookahead must not exceed the
// propagation delay — DefaultPropDelay is the guarantee that makes the
// windows safe.
func NewSharded(sh *sim.Sharded, cfg Config) (*Network, error) {
	if sh == nil {
		return nil, errors.New("netem: nil sharded engine")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	if DefaultPropDelay < sh.Lookahead() {
		return nil, fmt.Errorf("netem: propagation delay %v below engine lookahead %v",
			DefaultPropDelay, sh.Lookahead())
	}
	return &Network{sh: sh, cfg: cfg}, nil
}

// NewSimulated builds a LAN on a fresh engine seeded with seed: the classic
// single kernel when shards is 0 (New), else the lane-sharded engine with
// that many workers (NewSharded). The two engines break same-instant ties
// differently (see shard_test.go), so a run's outcome depends on which one
// it gets, though not on the worker count.
func NewSimulated(seed int64, shards int, cfg Config) (*Network, sim.Engine, error) {
	if shards > 0 {
		sh := sim.NewSharded(seed, DefaultPropDelay)
		sh.SetWorkers(shards)
		n, err := NewSharded(sh, cfg)
		return n, sh, err
	}
	k := sim.New(seed)
	n, err := New(env.NewSim(k), cfg)
	return n, k, err
}

// Env returns the environment the network runs on in classic mode, nil in
// sharded mode (where each node has its own lane env — see Node.Env).
func (n *Network) Env() env.Env { return n.env }

// Sharded returns the engine a sharded network runs on, nil in classic mode.
func (n *Network) Sharded() *sim.Sharded { return n.sh }

// Config returns the (default-filled) configuration.
func (n *Network) Config() Config { return n.cfg }

// AddNode attaches a node of the given machine type and returns it. Node
// IDs are assigned densely in attachment order. On a sharded network the
// node claims its own engine lane; its loss rng derives from the same
// (seed, name) pair as in classic mode, so a node's drop decisions are the
// same function of its delivery stream in both modes.
func (n *Network) AddNode(m Machine) *Node {
	node := &Node{
		net:       n,
		id:        wire.NodeID(len(n.nodes)),
		machine:   m,
		procScale: 1.0,
		lane:      -1,
	}
	if n.sh != nil {
		node.lane = n.sh.AddLane()
		node.env = env.NewSim(n.sh.LaneKernel(node.lane))
	} else {
		node.env = n.env
	}
	node.rng = node.env.Rand(fmt.Sprintf("netem/node/%d", node.id))
	n.nodes = append(n.nodes, node)
	return node
}

// Node returns the node with the given ID, or nil.
func (n *Network) Node(id wire.NodeID) *Node {
	if int(id) >= len(n.nodes) {
		return nil
	}
	return n.nodes[id]
}

// Nodes returns all attached nodes in ID order. The returned slice is a
// copy.
func (n *Network) Nodes() []*Node {
	return append([]*Node(nil), n.nodes...)
}

// lossMask is a bitset over wire.Type (values 1..15 fit a uint16): one
// branch-free AND per delivered packet instead of a map lookup.
type lossMask uint16

func (m lossMask) has(t wire.Type) bool { return m&(lossMask(1)<<uint(t)) != 0 }

// dataBearing are the packet types end-host loss drops: the paper drops at
// the receiving data readers, never control traffic.
const dataBearing = lossMask(1)<<uint(wire.TypeData) |
	lossMask(1)<<uint(wire.TypeRetrans) |
	lossMask(1)<<uint(wire.TypeRepair)

// Stats are cumulative per-node traffic counters.
type Stats struct {
	TxPackets, RxPackets uint64
	TxBytes, RxBytes     uint64
	DroppedLoss          uint64 // end-host/link loss drops
	DroppedQueue         uint64 // egress queue overflows
}

// Node is one emulated host on the LAN. It implements the transport
// Endpoint contract: Unicast, Multicast, Work, SetHandler, Local, MTU.
//
// A node is not safe for concurrent use; all interaction must happen from
// env callbacks, which the env serializes.
type Node struct {
	net *Network
	// env is the node's execution environment: the shared network env in
	// classic mode, the node's own lane env in sharded mode.
	env       env.Env
	lane      int // engine lane, -1 in classic mode
	id        wire.NodeID
	machine   Machine
	procScale float64
	handler   func(src wire.NodeID, pkt *wire.Packet)
	// freeRx recycles the node's CPU-done dispatch records; per node, so a
	// sharded node's pool is lane-local.
	freeRx []*rxDispatch

	lossPct   float64
	ge        *gilbertElliott
	partition bool

	cpuBusyUntil  time.Time
	linkBusyUntil time.Time

	stats Stats
	rxBW  metrics.Bandwidth
	rng   *rand.Rand
}

// Local returns the node's ID.
func (nd *Node) Local() wire.NodeID { return nd.id }

// Env returns the environment the node's callbacks run on: the shared
// network env in classic mode, the node's own lane env in sharded mode.
// Components attached to this node (protocol stacks, detectors, chaos
// effects) must schedule through it.
func (nd *Node) Env() env.Env { return nd.env }

// Lane returns the node's engine lane, or -1 in classic mode.
func (nd *Node) Lane() int { return nd.lane }

// Partitioned reports whether the node is currently isolated.
func (nd *Node) Partitioned() bool { return nd.partition }

// LossPct returns the node's configured end-host loss percentage.
func (nd *Node) LossPct() float64 { return nd.lossPct }

// ProcScale returns the node's CPU cost multiplier.
func (nd *Node) ProcScale() float64 { return nd.procScale }

// BurstLossActive reports whether the Gilbert-Elliott model is enabled.
func (nd *Node) BurstLossActive() bool { return nd.ge != nil }

// Machine returns the node's machine profile.
func (nd *Node) Machine() Machine { return nd.machine }

// MTU returns the maximum payload the node will accept for a single send.
func (nd *Node) MTU() int { return 9000 }

// Stats returns a copy of the node's traffic counters.
func (nd *Node) Stats() Stats { return nd.stats }

// RxBandwidth returns the receive-side bandwidth accumulator.
func (nd *Node) RxBandwidth() *metrics.Bandwidth { return &nd.rxBW }

// SetProcScale sets an additional multiplier on the node's CPU costs,
// modeling middleware implementation overhead differences (the DDS
// implementation axis of the paper's Table 1). scale <= 0 is reset to 1.
func (nd *Node) SetProcScale(scale float64) {
	if scale <= 0 {
		scale = 1
	}
	nd.procScale = scale
}

// SetLoss configures end-host random drop probability (percent, 0-100) for
// data-bearing packet types (DATA, RETRANS, REPAIR), mirroring the paper's
// methodology of dropping at the receiving data readers.
func (nd *Node) SetLoss(pct float64) {
	if pct < 0 {
		pct = 0
	}
	if pct > 100 {
		pct = 100
	}
	nd.lossPct = pct
}

// SetBurstLoss enables a Gilbert-Elliott two-state bursty loss model on the
// node's inbound path in addition to (and before) uniform end-host loss.
// pGoodToBad/pBadToGood are per-packet transition probabilities and lossBad
// is the drop probability while in the bad state. Passing zeros disables it.
func (nd *Node) SetBurstLoss(pGoodToBad, pBadToGood, lossBad float64) {
	if pGoodToBad <= 0 {
		nd.ge = nil
		return
	}
	nd.ge = &gilbertElliott{p: pGoodToBad, r: pBadToGood, h: lossBad}
}

// SetPartitioned isolates the node: while true, every packet to or from it
// is dropped (failure injection).
func (nd *Node) SetPartitioned(v bool) { nd.partition = v }

// SetHandler registers the receive callback. The handler runs in env
// callback context; the packet it receives is owned by the handler.
func (nd *Node) SetHandler(h func(src wire.NodeID, pkt *wire.Packet)) { nd.handler = h }

// Work consumes local CPU: cost is at reference-machine speed and is scaled
// by the node's CPUFactor and ProcScale. Subsequent packet processing on
// this node queues behind it. It returns the time until the CPU is free
// again (the scaled cost plus any queueing behind earlier work).
func (nd *Node) Work(cost time.Duration) time.Duration {
	if cost <= 0 {
		return 0
	}
	now := nd.env.Now()
	start := nd.cpuBusyUntil
	if start.Before(now) {
		start = now
	}
	nd.cpuBusyUntil = start.Add(nd.scaled(cost))
	return nd.cpuBusyUntil.Sub(now)
}

func (nd *Node) scaled(d time.Duration) time.Duration {
	return time.Duration(float64(d) * nd.machine.CPUFactor * nd.procScale)
}

// ScaleCPU converts a reference-machine duration to this node's speed
// without occupying the node's CPU.
func (nd *Node) ScaleCPU(d time.Duration) time.Duration { return nd.scaled(d) }

// Unicast sends pkt to dst, modeling the full cost pipeline. It returns an
// error only for malformed packets or unknown destinations; loss and queue
// drops are silent, as on a real network.
func (nd *Node) Unicast(dst wire.NodeID, pkt *wire.Packet) error {
	target := nd.net.Node(dst)
	if target == nil {
		return fmt.Errorf("netem: unicast to unknown node %d", dst)
	}
	if dst == nd.id {
		return errors.New("netem: unicast to self")
	}
	if nd.net.sh != nil {
		return nd.transmitSharded(pkt, target)
	}
	f := nd.net.getInflight()
	f.targets = append(f.targets, target)
	return nd.transmit(f, pkt)
}

// Multicast sends pkt to every other node on the LAN with one egress
// serialization (switched-Ethernet multicast semantics).
func (nd *Node) Multicast(pkt *wire.Packet) error {
	if nd.net.sh != nil {
		return nd.transmitSharded(pkt, nil)
	}
	f := nd.net.getInflight()
	for _, t := range nd.net.nodes {
		if t.id != nd.id {
			f.targets = append(f.targets, t)
		}
	}
	return nd.transmit(f, pkt)
}

// admit runs the sender-side pipeline shared by both modes: MTU check,
// partition drop, sender CPU, drop-tail egress queue, tx accounting. It
// returns the switch arrival time (store-and-forward: a second
// serialization after linkDone, then propagation) and whether the frame
// made it onto the wire. The operation order is part of the determinism
// contract — the classic golden hashes pin it.
func (nd *Node) admit(pkt *wire.Packet) (arrival time.Time, frame int, ok bool, err error) {
	if len(pkt.Payload) > nd.MTU() {
		return time.Time{}, 0, false, fmt.Errorf("netem: payload %d exceeds MTU %d", len(pkt.Payload), nd.MTU())
	}
	now := nd.env.Now()
	frame = pkt.EncodedSize() + FrameOverhead

	if nd.partition {
		nd.stats.DroppedLoss++
		return time.Time{}, frame, false, nil
	}

	// Sender CPU: marshal + send path, serialized on this node's CPU.
	cpuStart := maxTime(now, nd.cpuBusyUntil)
	cpuDone := cpuStart.Add(nd.scaled(sendCost(frame)))
	nd.cpuBusyUntil = cpuDone

	// Egress serialization on the NIC, after the CPU hands the frame off.
	// Frames that would queue longer than maxQueueDelay are dropped.
	txTime := serialization(frame, nd.net.cfg.Bandwidth)
	linkStart := maxTime(cpuDone, nd.linkBusyUntil)
	if linkStart.Sub(cpuDone) > maxQueueDelay {
		nd.stats.DroppedQueue++
		return time.Time{}, frame, false, nil
	}
	linkDone := linkStart.Add(txTime)
	nd.linkBusyUntil = linkDone

	nd.stats.TxPackets++
	nd.stats.TxBytes += uint64(frame)

	return linkDone.Add(txTime).Add(DefaultPropDelay), frame, true, nil
}

func (nd *Node) transmit(f *inflight, pkt *wire.Packet) error {
	arrival, frame, ok, err := nd.admit(pkt)
	if err != nil || !ok {
		nd.net.putInflight(f)
		return err
	}
	// Every target receives the sender's packet itself: a sent packet is
	// never written again (transport.Endpoint's ownership rule).
	f.src = nd.id
	f.pkt = pkt
	f.frame = frame
	nd.env.ScheduleArg(arrival.Sub(nd.env.Now()), deliverInflight, f)
	return nil
}

// transmitSharded is the lane-crossing delivery path: one admit on the
// sending lane, then one cross-lane message per target (every target is on
// its own lane). All targets share the sender's read-only packet, as on the
// classic path. Arrival is at least DefaultPropDelay >= lookahead in the
// future, satisfying the engine's conservative send bound. target == nil
// means multicast to all others.
func (nd *Node) transmitSharded(pkt *wire.Packet, target *Node) error {
	arrival, frame, ok, err := nd.admit(pkt)
	if err != nil || !ok {
		return err
	}
	if target != nil {
		nd.sendLane(target, pkt, frame, arrival)
		return nil
	}
	for _, t := range nd.net.nodes {
		if t.id != nd.id {
			nd.sendLane(t, pkt, frame, arrival)
		}
	}
	return nil
}

func (nd *Node) sendLane(t *Node, pkt *wire.Packet, frame int, arrival time.Time) {
	a := xArrivalPool.Get().(*xArrival)
	a.nd, a.src, a.pkt, a.frame = t, nd.id, pkt, frame
	nd.net.sh.Send(nd.lane, t.lane, arrival, deliverXArrival, a, nil)
}

func (nd *Node) receive(src wire.NodeID, pkt *wire.Packet, frame int) {
	e := nd.env
	now := e.Now()
	if nd.partition {
		nd.stats.DroppedLoss++
		return
	}
	// Bursty link loss first (applies to all packet types).
	if nd.ge != nil && nd.ge.drop(nd.rng) {
		nd.stats.DroppedLoss++
		return
	}
	// End-host loss for data-bearing packets (paper methodology).
	if nd.lossPct > 0 && dataBearing.has(pkt.Type) {
		if nd.rng.Float64()*100 < nd.lossPct {
			nd.stats.DroppedLoss++
			return
		}
	}
	nd.stats.RxPackets++
	nd.stats.RxBytes += uint64(frame)
	nd.rxBW.Add(now, frame)

	// Receiver CPU: demarshal + dispatch, serialized on this node's CPU.
	cpuStart := maxTime(now, nd.cpuBusyUntil)
	cpuDone := cpuStart.Add(nd.scaled(recvCost(frame)))
	nd.cpuBusyUntil = cpuDone
	d := nd.getRx()
	d.nd, d.src, d.pkt = nd, src, pkt
	e.ScheduleArg(cpuDone.Sub(now), dispatchRx, d)
}

func serialization(frameBytes int, bw Bandwidth) time.Duration {
	if bw <= 0 {
		return 0
	}
	bits := float64(frameBytes * 8)
	sec := bits / float64(bw)
	return time.Duration(sec * float64(time.Second))
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// gilbertElliott is the classic two-state bursty loss channel.
type gilbertElliott struct {
	p, r, h float64 // P(good->bad), P(bad->good), P(drop | bad)
	bad     bool
}

func (g *gilbertElliott) drop(rng *rand.Rand) bool {
	if g.bad {
		if rng.Float64() < g.r {
			g.bad = false
		}
	} else {
		if rng.Float64() < g.p {
			g.bad = true
		}
	}
	return g.bad && rng.Float64() < g.h
}
