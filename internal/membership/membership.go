// Package membership provides group membership views and heartbeat-based
// failure detection — two of the configurable transport properties in the
// ANT framework. Ricochet consults the view to pick live repair targets;
// experiments use static views, while the failure-injection tests exercise
// the detector.
package membership

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"adamant/internal/env"
	"adamant/internal/transport"
	"adamant/internal/wire"
)

// View is an immutable snapshot of group membership.
type View struct {
	// Members is the sorted list of live member node IDs.
	Members []wire.NodeID
	// Version increments on every membership change.
	Version uint64
}

// Contains reports whether id is in the view.
func (v View) Contains(id wire.NodeID) bool {
	for _, m := range v.Members {
		if m == id {
			return true
		}
	}
	return false
}

// String implements fmt.Stringer.
func (v View) String() string {
	return fmt.Sprintf("view{v%d, %d members}", v.Version, len(v.Members))
}

// Provider supplies membership views. Implementations: Static, Detector.
type Provider interface {
	// View returns the current membership snapshot.
	View() View
	// Receivers adapts the view to transport.Config.Receivers.
	Receivers() []wire.NodeID
}

// Static is a fixed membership view.
type Static struct {
	view View
}

var _ Provider = (*Static)(nil)

// NewStatic builds a fixed view of the given members.
func NewStatic(members ...wire.NodeID) *Static {
	ms := slices.Clone(members)
	slices.Sort(ms)
	return &Static{view: View{Members: ms, Version: 1}}
}

// View implements Provider.
func (s *Static) View() View { return s.view }

// Receivers implements Provider.
func (s *Static) Receivers() []wire.NodeID { return s.view.Members }

// DetectorOptions tune a heartbeat failure Detector.
type DetectorOptions struct {
	// Interval is the heartbeat period. Default 100ms.
	Interval time.Duration
	// SuspectAfter is how long without a heartbeat before a peer is
	// declared dead. Default 3.5x Interval.
	SuspectAfter time.Duration
	// UnicastJoinReplies answers a JOIN with a heartbeat unicast to the
	// joiner instead of a multicast to the whole group. The multicast
	// reply spreads liveness in one round but is quadratic in packets —
	// at cold start, when every member joins at once, the reply storm is
	// O(group^2) multicasts and O(group^3) deliveries. Groups of
	// hundreds of nodes should turn this on; the regular heartbeat round
	// repairs whatever a unicast reply does not spread.
	UnicastJoinReplies bool
}

func (o *DetectorOptions) fillDefaults() {
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	if o.SuspectAfter <= 0 {
		o.SuspectAfter = o.Interval*3 + o.Interval/2
	}
}

// Detector is a heartbeat-based group membership tracker for one node. All
// participating nodes run one; each multicasts JOIN on start, heartbeats
// every Interval, LEAVE on Close, and removes peers whose heartbeats stop.
//
// The detector owns its endpoint's handler. To share a node with data-plane
// protocols, give it a transport.Splitter's control route.
type Detector struct {
	env      env.Env
	ep       transport.Endpoint
	opts     DetectorOptions
	self     wire.NodeID
	lastSeen map[wire.NodeID]time.Time
	view     View
	onChange func(View)
	inc      uint32
	hbTimer  env.Timer
	closed   bool
}

// NewDetector attaches a detector to ep. onChange (optional) fires on every
// membership change with the new view.
func NewDetector(e env.Env, ep transport.Endpoint, opts DetectorOptions, onChange func(View)) (*Detector, error) {
	if e == nil || ep == nil {
		return nil, errors.New("membership: nil env or endpoint")
	}
	opts.fillDefaults()
	d := &Detector{
		env:      e,
		ep:       ep,
		opts:     opts,
		self:     ep.Local(),
		lastSeen: make(map[wire.NodeID]time.Time),
	}
	d.view = View{Members: []wire.NodeID{d.self}, Version: 1}
	ep.SetHandler(d.dispatch)
	d.onChange = onChange
	d.announce(wire.TypeJoin)
	d.hbTimer = e.After(opts.Interval, d.tick)
	return d, nil
}

// View implements Provider.
func (d *Detector) View() View { return d.view }

// Receivers implements Provider.
func (d *Detector) Receivers() []wire.NodeID { return d.view.Members }

var _ Provider = (*Detector)(nil)

// Close announces departure and stops the heartbeat timer.
func (d *Detector) Close() error {
	if d.closed {
		return nil
	}
	d.closed = true
	if d.hbTimer != nil {
		d.hbTimer.Stop()
	}
	d.announce(wire.TypeLeave)
	return nil
}

func (d *Detector) announce(t wire.Type) {
	body, err := (&wire.HeartbeatBody{Incarnation: d.inc}).Encode(nil)
	if err != nil {
		return
	}
	// Membership announcements are best-effort; missed ones are repaired
	// by the next heartbeat (or by the suspect timeout on LEAVE loss).
	_ = d.ep.Multicast(&wire.Packet{
		Type:    t,
		Src:     d.self,
		SentAt:  d.env.Now(),
		Payload: body,
	})
}

func (d *Detector) tick() {
	if d.closed {
		return
	}
	d.announce(wire.TypeHeartbeat)
	d.expire()
	d.hbTimer = d.env.After(d.opts.Interval, d.tick)
}

func (d *Detector) expire() {
	now := d.env.Now()
	changed := false
	for id, seen := range d.lastSeen {
		if now.Sub(seen) > d.opts.SuspectAfter {
			delete(d.lastSeen, id)
			changed = true
		}
	}
	if changed {
		d.setView(slices.DeleteFunc(slices.Clone(d.view.Members), func(id wire.NodeID) bool {
			_, live := d.lastSeen[id]
			return id != d.self && !live
		}))
	}
}

// dispatch routes JOIN, LEAVE and heartbeat packets; other types are not
// membership traffic.
func (d *Detector) dispatch(src wire.NodeID, pkt *wire.Packet) {
	switch pkt.Type {
	case wire.TypeJoin:
		d.onJoin(src)
	case wire.TypeLeave:
		d.onLeave(src)
	case wire.TypeHeartbeat:
		d.onHeartbeat(src, pkt)
	}
}

func (d *Detector) onJoin(src wire.NodeID) {
	if d.closed || src == d.self {
		return
	}
	_, known := d.lastSeen[src]
	d.lastSeen[src] = d.env.Now()
	if !known {
		d.insert(src)
		// Answer a JOIN with an immediate heartbeat so the joiner learns
		// about us without waiting a full interval.
		if d.opts.UnicastJoinReplies {
			d.reply(src)
		} else {
			d.announce(wire.TypeHeartbeat)
		}
	}
}

// reply unicasts a heartbeat straight to the joiner.
func (d *Detector) reply(dst wire.NodeID) {
	body, err := (&wire.HeartbeatBody{Incarnation: d.inc}).Encode(nil)
	if err != nil {
		return
	}
	_ = d.ep.Unicast(dst, &wire.Packet{
		Type:    wire.TypeHeartbeat,
		Src:     d.self,
		SentAt:  d.env.Now(),
		Payload: body,
	})
}

func (d *Detector) onHeartbeat(src wire.NodeID, pkt *wire.Packet) {
	// Data-plane heartbeats (e.g. NAKcast's) carry a data stream ID and
	// are not membership traffic.
	if d.closed || src == d.self || pkt.Stream != wire.ControlStream {
		return
	}
	_, known := d.lastSeen[src]
	d.lastSeen[src] = d.env.Now()
	if !known {
		d.insert(src)
	}
}

func (d *Detector) onLeave(src wire.NodeID) {
	if d.closed || src == d.self {
		return
	}
	if _, known := d.lastSeen[src]; known {
		delete(d.lastSeen, src)
		i, _ := slices.BinarySearch(d.view.Members, src)
		d.setView(slices.Delete(slices.Clone(d.view.Members), i, i+1))
	}
}

// insert publishes the view with a newly learned member in its sorted
// place. Each view is a fresh slice: earlier ones escape through View and
// onChange, so they are never written again.
func (d *Detector) insert(id wire.NodeID) {
	old := d.view.Members
	i, _ := slices.BinarySearch(old, id)
	members := make([]wire.NodeID, len(old)+1)
	copy(members, old[:i])
	members[i] = id
	copy(members[i+1:], old[i:])
	d.setView(members)
}

func (d *Detector) setView(members []wire.NodeID) {
	d.view = View{Members: members, Version: d.view.Version + 1}
	if d.onChange != nil {
		d.onChange(d.view)
	}
}
