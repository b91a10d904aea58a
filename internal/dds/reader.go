package dds

import (
	"fmt"
	"time"

	"adamant/internal/transport"
)

// SampleInfo carries the metadata of one received sample.
type SampleInfo struct {
	Topic      string
	Seq        uint64
	SentAt     time.Time
	ReceivedAt time.Time
	Recovered  bool
}

// Latency returns the sample's end-to-end latency.
func (i SampleInfo) Latency() time.Duration { return i.ReceivedAt.Sub(i.SentAt) }

// Sample is one received data sample.
type Sample struct {
	Data []byte // may share the packet it came in: read-only, may be kept
	Info SampleInfo
}

// Listener receives reader callbacks. Callbacks run in env callback context
// and must not block. A zero ListenerFuncs embeds safely.
type Listener interface {
	// OnData fires for every sample delivered by the transport.
	OnData(s Sample)
	// OnSampleLost fires when the transport gives up recovering a sample
	// (the DDS SAMPLE_LOST status).
	OnSampleLost(topic string, seq uint64)
	// OnTransportChanged fires when the reader's transport binding learns
	// that the writer hot-swapped the topic onto a new protocol (see
	// DomainParticipant.Rebind). The spec is the new epoch's transport.
	OnTransportChanged(topic string, spec transport.Spec)
}

// ListenerFuncs adapts plain functions to Listener; nil fields are no-ops.
type ListenerFuncs struct {
	Data             func(s Sample)
	SampleLost       func(topic string, seq uint64)
	TransportChanged func(topic string, spec transport.Spec)
}

var _ Listener = ListenerFuncs{}

// OnData implements Listener.
func (l ListenerFuncs) OnData(s Sample) {
	if l.Data != nil {
		l.Data(s)
	}
}

// OnSampleLost implements Listener.
func (l ListenerFuncs) OnSampleLost(topic string, seq uint64) {
	if l.SampleLost != nil {
		l.SampleLost(topic, seq)
	}
}

// OnTransportChanged implements Listener.
func (l ListenerFuncs) OnTransportChanged(topic string, spec transport.Spec) {
	if l.TransportChanged != nil {
		l.TransportChanged(topic, spec)
	}
}

// DataReader receives samples on one topic into a history cache and an
// optional listener.
type DataReader struct {
	participant *DomainParticipant
	topic       *Topic
	qos         ReaderQoS
	listener    Listener
	receiver    *transport.ReceiverBinding

	cache        []Sample
	droppedByQoS uint64
	closed       bool
}

// CreateDataReader builds a reader for topic with the given QoS and
// listener (nil listener is allowed; samples then land only in the cache).
func (p *DomainParticipant) CreateDataReader(topic *Topic, qos ReaderQoS, listener Listener) (*DataReader, error) {
	if p.closed {
		return nil, ErrEntityClosed
	}
	if topic == nil || topic.participant != p {
		return nil, fmt.Errorf("dds: topic does not belong to this participant")
	}
	if qos.Depth <= 0 {
		qos.Depth = 32
	}
	r := &DataReader{participant: p, topic: topic, qos: qos, listener: listener}
	spec := resolveSpec(p.cfg.Transport, qos.Reliability)
	cfg := p.transportConfig(topic, r.onDelivery)
	cfg.OnLost = func(seq uint64) {
		if r.closed {
			return
		}
		if r.listener != nil {
			r.listener.OnSampleLost(r.topic.name, seq)
		}
	}
	receiver, err := transport.NewReceiverBinding(transport.BindingConfig{
		Config:   cfg,
		Registry: p.cfg.Registry,
		Spec:     spec,
		OnTransportChanged: func(_ uint16, s transport.Spec) {
			if r.closed {
				return
			}
			if r.listener != nil {
				r.listener.OnTransportChanged(r.topic.name, s)
			}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("dds: creating reader transport %s: %w", spec, err)
	}
	r.receiver = receiver
	p.readers = append(p.readers, r)
	return r, nil
}

// transportConfig assembles the transport.Config for one topic endpoint.
func (p *DomainParticipant) transportConfig(topic *Topic, deliver transport.DeliverFunc) transport.Config {
	sender, ok := p.cfg.Writers[topic.name]
	if !ok {
		sender = p.cfg.SenderID
	}
	return transport.Config{
		Env:       p.cfg.Env,
		Endpoint:  p.splitter.Route(topic.stream),
		Stream:    topic.stream,
		SenderID:  sender,
		Receivers: p.cfg.Receivers,
		Deliver:   deliver,
	}
}

func (r *DataReader) onDelivery(d transport.Delivery) {
	if r.closed {
		return
	}
	// Implementation-profile dispatch cost.
	r.participant.cfg.Endpoint.Work(r.participant.profile.dispatchCost)
	s := Sample{
		Data: d.Payload,
		Info: SampleInfo{
			Topic:      r.topic.name,
			Seq:        d.Seq,
			SentAt:     d.SentAt,
			ReceivedAt: d.DeliveredAt,
			Recovered:  d.Recovered,
		},
	}
	r.cache = append(r.cache, s)
	if over := len(r.cache) - r.qos.Depth; over > 0 {
		r.droppedByQoS += uint64(over)
		r.cache = append(r.cache[:0], r.cache[over:]...)
	}
	if r.listener != nil {
		r.listener.OnData(s)
	}
}

// Take returns and removes all cached samples.
func (r *DataReader) Take() []Sample {
	out := r.cache
	r.cache = nil
	return out
}

// Read returns a copy of the cached samples without consuming them.
func (r *DataReader) Read() []Sample {
	return append([]Sample(nil), r.cache...)
}

// CacheLen returns the number of samples currently cached.
func (r *DataReader) CacheLen() int { return len(r.cache) }

// DroppedByQoS returns the number of samples the KEEP_LAST cache evicted.
func (r *DataReader) DroppedByQoS() uint64 { return r.droppedByQoS }

// TransportStats exposes the underlying transport receiver counters.
func (r *DataReader) TransportStats() transport.ReceiverStats { return r.receiver.Stats() }

// TransportSpec returns the spec of the newest transport epoch the reader's
// binding has learned (the initial spec until a hot-swap is announced).
func (r *DataReader) TransportSpec() transport.Spec { return r.receiver.Spec() }

// TransportEpochs reports every transport generation the reader has seen on
// this topic, oldest first, including drain progress and latency.
func (r *DataReader) TransportEpochs() []transport.EpochInfo { return r.receiver.Epochs() }

// Close releases the reader's transport instance.
func (r *DataReader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	return r.receiver.Close()
}
