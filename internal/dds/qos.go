package dds

import (
	"fmt"

	"adamant/internal/transport"
)

// ReliabilityKind mirrors the DDS RELIABILITY QoS policy kinds.
type ReliabilityKind int

// Reliability kinds.
const (
	// BestEffort delivers what arrives; no recovery is attempted.
	BestEffort ReliabilityKind = iota
	// Reliable asks the transport to recover losses (how well it does so
	// depends on the configured transport protocol — that is exactly the
	// trade ADAMANT's configurator optimizes).
	Reliable
)

// String implements fmt.Stringer.
func (k ReliabilityKind) String() string {
	switch k {
	case BestEffort:
		return "BEST_EFFORT"
	case Reliable:
		return "RELIABLE"
	}
	return fmt.Sprintf("ReliabilityKind(%d)", int(k))
}

// HistoryKind mirrors the DDS HISTORY QoS policy kinds. KEEP_LAST is the
// one kind this implementation offers.
type HistoryKind int

// KeepLast retains the most recent Depth samples in the reader cache.
const KeepLast HistoryKind = 0

// String implements fmt.Stringer.
func (k HistoryKind) String() string {
	if k == KeepLast {
		return "KEEP_LAST"
	}
	return fmt.Sprintf("HistoryKind(%d)", int(k))
}

// TopicQoS is the topic-level QoS a topic is created with. No endpoint
// reads it: each writer and reader takes its reliability from its own QoS.
type TopicQoS struct {
	// Reliability names the topic's intended reliability.
	Reliability ReliabilityKind
}

// WriterQoS configures a DataWriter.
type WriterQoS struct {
	// Reliability selects best-effort or reliable publication.
	Reliability ReliabilityKind
}

// ReaderQoS configures a DataReader.
type ReaderQoS struct {
	// Reliability selects best-effort or reliable subscription. The
	// reader's transport must match the writer's for recovery to work;
	// ADAMANT configures both sides from the same recommendation.
	Reliability ReliabilityKind
	// History selects the reader cache's policy; KeepLast is the only one.
	History HistoryKind
	// Depth is the KeepLast cache depth. Default 32.
	Depth int
}

// bestEffortSpec is the transport of every BestEffort endpoint.
var bestEffortSpec = transport.Spec{Name: "bemcast"}

// resolveSpec picks the transport spec for an endpoint: best-effort
// multicast for BestEffort reliability, else the participant-wide
// (ADAMANT-chosen) spec.
func resolveSpec(participant transport.Spec, rel ReliabilityKind) transport.Spec {
	if rel == BestEffort {
		return bestEffortSpec
	}
	return participant
}
