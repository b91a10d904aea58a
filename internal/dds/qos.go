package dds

import (
	"errors"
	"fmt"
	"time"

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

// HistoryKind mirrors the DDS HISTORY QoS policy kinds.
type HistoryKind int

// History kinds.
const (
	// KeepLast retains the most recent Depth samples in the reader cache.
	KeepLast HistoryKind = iota
	// KeepAll retains every sample until taken (bounded by ResourceLimit).
	KeepAll
)

// String implements fmt.Stringer.
func (k HistoryKind) String() string {
	switch k {
	case KeepLast:
		return "KEEP_LAST"
	case KeepAll:
		return "KEEP_ALL"
	}
	return fmt.Sprintf("HistoryKind(%d)", int(k))
}

// TopicQoS is the topic-level QoS subset this implementation supports.
type TopicQoS struct {
	// Reliability is the default reliability for endpoints on this topic.
	Reliability ReliabilityKind
}

// WriterQoS configures a DataWriter.
type WriterQoS struct {
	// Reliability selects best-effort or reliable publication.
	Reliability ReliabilityKind
	// Transport overrides the participant-wide transport spec when
	// non-empty (Name != "").
	Transport transport.Spec
}

// ReaderQoS configures a DataReader.
type ReaderQoS struct {
	// Reliability selects best-effort or reliable subscription. The
	// reader's transport must match the writer's for recovery to work;
	// ADAMANT configures both sides from the same recommendation.
	Reliability ReliabilityKind
	// Transport overrides the participant-wide transport spec when
	// non-empty.
	Transport transport.Spec
	// History controls the reader cache.
	History HistoryKind
	// Depth is the KeepLast cache depth. Default 32.
	Depth int
	// ResourceLimit bounds the KeepAll cache. Default 65536.
	ResourceLimit int
	// Deadline, when positive, arms a deadline monitor: if no sample
	// arrives within Deadline, the listener's OnDeadlineMissed fires (and
	// re-arms). Mirrors the DDS DEADLINE policy.
	Deadline time.Duration
	// Filter, when non-nil, is a content filter: samples for which it
	// returns false are counted and dropped before the cache and listener
	// (the Go analog of a DDS ContentFilteredTopic; samples here are
	// opaque bytes, so the filter is a predicate rather than a SQL
	// expression).
	Filter func(data []byte) bool
}

func (q *ReaderQoS) fillDefaults() {
	if q.Depth <= 0 {
		q.Depth = 32
	}
	if q.ResourceLimit <= 0 {
		q.ResourceLimit = 1 << 16
	}
}

func (q ReaderQoS) validate() error {
	if q.Deadline < 0 {
		return errors.New("dds: negative deadline")
	}
	return nil
}

// bestEffortSpec is the transport used when reliability is BestEffort and
// no explicit transport override is given.
var bestEffortSpec = transport.Spec{Name: "bemcast"}

// resolveSpec picks the transport spec for an endpoint: explicit override,
// else best-effort multicast for BestEffort reliability, else the
// participant-wide (ADAMANT-chosen) spec.
func resolveSpec(participant transport.Spec, override transport.Spec, rel ReliabilityKind) transport.Spec {
	if override.Name != "" {
		return override
	}
	if rel == BestEffort {
		return bestEffortSpec
	}
	return participant
}
