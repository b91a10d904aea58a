// Package dds is a QoS-enabled publish/subscribe middleware layer modeled
// on the OMG Data Distribution Service entity hierarchy: a
// DomainParticipant owns Topics, DataWriters publish typed samples on
// topics, and DataReaders receive them through listeners and a history
// cache. There is no mature DDS implementation in Go, so this package is
// the repository's stand-in for OpenDDS/OpenSplice (see DESIGN.md): a
// NATS-style pub/sub data model with DDS-style QoS policies and, crucially
// for the paper, a pluggable ANT transport underneath.
//
// Two implementation profiles (ImplA "opendds-like" and ImplB
// "opensplice-like") model the per-sample processing cost differences
// between middleware implementations — the "DDS implementation" axis of the
// paper's Table 1, which the machine-learning configurator treats as a
// categorical environment feature.
package dds

import (
	"errors"
	"fmt"
	"time"

	"adamant/internal/env"
	"adamant/internal/transport"
	"adamant/internal/wire"
)

// Impl selects a middleware implementation profile.
type Impl int

// Implementation profiles.
const (
	// ImplA models an OpenDDS-1.2-like implementation: portable C++
	// broker-less data path with heavier per-sample marshal/dispatch.
	ImplA Impl = iota
	// ImplB models an OpenSplice-3.4-like implementation: shared-memory-
	// assisted data path with lighter per-sample costs.
	ImplB
)

// implProfile gives per-sample CPU costs at reference machine speed.
type implProfile struct {
	name         string
	writeCost    time.Duration
	dispatchCost time.Duration
}

var implProfiles = map[Impl]implProfile{
	ImplA: {name: "opendds", writeCost: 7 * time.Microsecond, dispatchCost: 9 * time.Microsecond},
	ImplB: {name: "opensplice", writeCost: 5 * time.Microsecond, dispatchCost: 6 * time.Microsecond},
}

// String implements fmt.Stringer ("opendds" / "opensplice").
func (im Impl) String() string {
	if p, ok := implProfiles[im]; ok {
		return p.name
	}
	return fmt.Sprintf("Impl(%d)", int(im))
}

// ImplByName resolves an implementation profile from its name.
func ImplByName(name string) (Impl, error) {
	for im, p := range implProfiles {
		if p.name == name {
			return im, nil
		}
	}
	return 0, fmt.Errorf("dds: unknown implementation %q", name)
}

// Impls returns all implementation profiles in stable order.
func Impls() []Impl { return []Impl{ImplA, ImplB} }

// ParticipantConfig configures a DomainParticipant.
type ParticipantConfig struct {
	// Env supplies time and timers.
	Env env.Env
	// Endpoint is the node's network attachment. The participant wraps it
	// in a stream splitter; nothing else may set its handler.
	Endpoint transport.Endpoint
	// Registry resolves transport specs; use protocols.NewRegistry().
	Registry *transport.Registry
	// Transport is the participant-wide transport protocol configuration
	// (ADAMANT sets this from the machine-learning recommendation) of
	// every RELIABLE writer and reader.
	Transport transport.Spec
	// Impl selects the implementation cost profile.
	Impl Impl
	// SenderID is the node that publishes data streams in this domain:
	// readers NAK it and take stream state only from it.
	SenderID wire.NodeID
	// Writers names the node that writes a topic, by topic name, for the
	// topics SenderID does not write.
	Writers map[string]wire.NodeID
	// Receivers enumerates the data reader nodes in the domain, for
	// protocols that need the peer set (Ricochet repairs).
	Receivers func() []wire.NodeID
}

func (c *ParticipantConfig) validate() error {
	if c.Env == nil {
		return errors.New("dds: config missing Env")
	}
	if c.Endpoint == nil {
		return errors.New("dds: config missing Endpoint")
	}
	if c.Registry == nil {
		return errors.New("dds: config missing Registry")
	}
	if c.Transport.Name == "" {
		return errors.New("dds: config missing Transport spec")
	}
	if _, ok := implProfiles[c.Impl]; !ok {
		return fmt.Errorf("dds: unknown impl %d", int(c.Impl))
	}
	return nil
}

// DomainParticipant is the root DDS entity on one node.
type DomainParticipant struct {
	cfg      ParticipantConfig
	profile  implProfile
	splitter *transport.Splitter
	topics   map[string]*Topic
	byStream map[wire.StreamID]*Topic
	writers  []*DataWriter
	readers  []*DataReader
	closed   bool
}

// NewParticipant creates a participant on the given endpoint.
func NewParticipant(cfg ParticipantConfig) (*DomainParticipant, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &DomainParticipant{
		cfg:      cfg,
		profile:  implProfiles[cfg.Impl],
		splitter: transport.NewSplitter(cfg.Endpoint),
		topics:   make(map[string]*Topic),
		byStream: make(map[wire.StreamID]*Topic),
	}, nil
}

// TransportSpec returns the participant-wide transport configuration.
func (p *DomainParticipant) TransportSpec() transport.Spec { return p.cfg.Transport }

// Rebind hot-swaps the participant-wide transport to spec while writers and
// readers stay live. Every RELIABLE writer's binding drains its current
// protocol generation and hands the sequence space to the new one (see
// transport.SenderBinding); readers learn the change in-band and surface it
// through Listener.OnTransportChanged. BEST_EFFORT writers stay on bemcast
// and are skipped. Returns the number of writers swapped. On a per-writer
// failure the error is returned but remaining writers are still attempted;
// a failed writer keeps its old binding (Swap is atomic per writer).
func (p *DomainParticipant) Rebind(spec transport.Spec) (int, error) {
	if p.closed {
		return 0, ErrEntityClosed
	}
	if spec.Name == "" {
		return 0, errors.New("dds: Rebind with empty spec")
	}
	if _, err := p.cfg.Registry.Lookup(spec.Name); err != nil {
		return 0, err
	}
	p.cfg.Transport = spec
	swapped := 0
	var firstErr error
	for _, w := range p.writers {
		if w.qos.Reliability == BestEffort || w.closed {
			continue
		}
		before := w.sender.Spec().String()
		if err := w.sender.Swap(spec); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("dds: rebinding topic %q: %w", w.topic.name, err)
			}
			continue
		}
		if before != spec.String() {
			swapped++
		}
	}
	return swapped, firstErr
}

// CreateTopic registers (or returns the existing) topic with the given
// name. Topic names map deterministically to wire stream IDs; a hash
// collision between distinct names is reported as an error. The TopicQoS
// is accepted for the DDS call shape and not stored.
func (p *DomainParticipant) CreateTopic(name string, _ TopicQoS) (*Topic, error) {
	if p.closed {
		return nil, ErrEntityClosed
	}
	if name == "" {
		return nil, errors.New("dds: empty topic name")
	}
	if t, ok := p.topics[name]; ok {
		return t, nil
	}
	stream := StreamIDForTopic(name)
	if prev, collision := p.byStream[stream]; collision {
		return nil, fmt.Errorf("dds: topic %q collides with %q on stream %d", name, prev.name, stream)
	}
	t := &Topic{participant: p, name: name, stream: stream}
	p.topics[name] = t
	p.byStream[stream] = t
	return t, nil
}

// Close tears down every writer and reader created by the participant.
func (p *DomainParticipant) Close() error {
	if p.closed {
		return nil
	}
	p.closed = true
	var firstErr error
	for _, w := range p.writers {
		if err := w.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, r := range p.readers {
		if err := r.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ErrEntityClosed is returned by operations on closed DDS entities.
var ErrEntityClosed = errors.New("dds: entity closed")

// StreamIDForTopic maps a topic name to its wire stream ID (FNV-1a, never
// the reserved control stream 0).
func StreamIDForTopic(name string) wire.StreamID {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	if h == uint32(wire.ControlStream) {
		h = 1
	}
	return wire.StreamID(h)
}

// Topic is a named data stream within a domain.
type Topic struct {
	participant *DomainParticipant
	name        string
	stream      wire.StreamID
}

// Name returns the topic name.
func (t *Topic) Name() string { return t.name }

// Stream returns the topic's wire stream ID.
func (t *Topic) Stream() wire.StreamID { return t.stream }
