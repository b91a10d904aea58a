package dds

import (
	"fmt"

	"adamant/internal/transport"
)

// DataWriter publishes samples on one topic.
type DataWriter struct {
	participant *DomainParticipant
	topic       *Topic
	qos         WriterQoS
	sender      *transport.SenderBinding
	closed      bool
}

// CreateDataWriter builds a writer for topic with the given QoS. The
// writer's transport instance is resolved from the participant registry and
// wrapped in a hot-swap binding so Rebind can change it live.
func (p *DomainParticipant) CreateDataWriter(topic *Topic, qos WriterQoS) (*DataWriter, error) {
	if p.closed {
		return nil, ErrEntityClosed
	}
	if topic == nil || topic.participant != p {
		return nil, fmt.Errorf("dds: topic does not belong to this participant")
	}
	spec := resolveSpec(p.cfg.Transport, qos.Reliability)
	sender, err := transport.NewSenderBinding(transport.BindingConfig{
		Config:   p.transportConfig(topic, nil),
		Registry: p.cfg.Registry,
		Spec:     spec,
	})
	if err != nil {
		return nil, fmt.Errorf("dds: creating writer transport %s: %w", spec, err)
	}
	w := &DataWriter{participant: p, topic: topic, qos: qos, sender: sender}
	p.writers = append(p.writers, w)
	return w, nil
}

// Write publishes one sample. The sample is timestamped at the transport
// layer; end-to-end latency is measured from this call.
func (w *DataWriter) Write(data []byte) error {
	if w.closed {
		return ErrEntityClosed
	}
	// Implementation-profile marshal cost (the Table 1 "DDS
	// implementation" axis).
	w.participant.cfg.Endpoint.Work(w.participant.profile.writeCost)
	return w.sender.Publish(data)
}

// Seq returns the number of samples written.
func (w *DataWriter) Seq() uint64 { return w.sender.Seq() }

// TransportSpec returns the writer's current (newest-epoch) transport spec.
func (w *DataWriter) TransportSpec() transport.Spec { return w.sender.Spec() }

// TransportEpoch returns the writer's current transport generation number.
func (w *DataWriter) TransportEpoch() uint16 { return w.sender.Epoch() }

// Close releases the writer's transport instance.
func (w *DataWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	return w.sender.Close()
}
