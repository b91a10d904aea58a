package broker

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// The payload arena makes a published message a shared, refcounted
// resource: the reader fills one pooled buffer with the payload and the
// publish subject, the fan-out queues that same buffer on every matching
// connection, and the buffer returns to its size-class pool only when the
// last holder — writer goroutine after the bytes hit the socket, or
// discard() on a slow-consumer teardown — drops its reference. A 10k-way
// fan-out of a 1 MiB payload therefore costs one buffer for its whole
// lifetime, and a queued MSG frame is two words beside the pointer to it:
// the writer builds "MSG <subject> <sid> <n>" from the buffer's subject
// and the frame's sid when it assembles the bytes for the socket.
//
// Reference discipline:
//
//   - arenaGet returns the buffer with one reference, the publisher hold.
//   - Deliveries are staged without touching the count (stager, outbound.go).
//     link.enqueueRun takes a run's references *before* the enqueue, never
//     after — the writer may drain and release a frame the instant the
//     queue lock drops — as one Add per stretch of consecutive frames on
//     the same buffer, and gives back one per frame the queue rejects.
//   - The publisher hold is what keeps a staged, not yet counted frame's
//     buffer alive and what keeps a give-back from reaching zero, so
//     routeBatch drops a batch's holds only after its last flush.
//   - writeLoop releases a drained chunk's references after the bytes are
//     written (or abandoned on a dead connection), outQueue.discard those
//     of the frames it throws away; both go stretch by stretch (freeFrames).
//
// The last release returns the buffer to its pool; the refcount is the
// only thing standing between the pool and a use-after-reuse, which is
// exactly what TestArenaReleaseDisconnectStress hammers under -race.

// payloadRef is one refcounted message: data is the payload-sized prefix
// of the class-sized backing array full, subj the publish subject. subj's
// storage stays with the buffer across pool cycles.
type payloadRef struct {
	refs  atomic.Int32
	class int32
	full  []byte
	data  []byte
	subj  []byte
}

// Size classes are powers of two from arenaMinClass bytes up to
// MaxPayload; a request is rounded up to the next class.
const (
	arenaMinShift = 8  // 256 B
	arenaMaxShift = 20 // 1 MiB == MaxPayload
	arenaClasses  = arenaMaxShift - arenaMinShift + 1
)

var arenaPools [arenaClasses]sync.Pool

// arenaClassFor maps a payload size to its size-class index.
func arenaClassFor(n int) int {
	if n <= 1<<arenaMinShift {
		return 0
	}
	return bits.Len(uint(n-1)) - arenaMinShift
}

// arenaGet returns a buffer for an n-byte payload holding one reference
// (the publisher hold). n must be in [0, MaxPayload].
func arenaGet(n int) *payloadRef {
	class := arenaClassFor(n)
	pb, _ := arenaPools[class].Get().(*payloadRef)
	if pb == nil {
		pb = &payloadRef{
			class: int32(class),
			full:  make([]byte, 1<<(class+arenaMinShift)),
		}
	}
	pb.refs.Store(1)
	pb.data = pb.full[:n]
	pb.subj = pb.subj[:0]
	return pb
}

// retain takes n additional references. It must be called while the
// caller already owns a reference (see the discipline above); a count
// that was zero means the buffer may already be someone else's.
func (pb *payloadRef) retain(n int) {
	if pb.refs.Add(int32(n)) <= int32(n) {
		panic("broker: payload retained with no reference held")
	}
}

// release drops n references, returning the buffer to its pool when the
// count hits zero. After release the caller must not touch pb.data.
func (pb *payloadRef) release(n int) {
	switch left := pb.refs.Add(int32(-n)); {
	case left == 0:
		pb.data = nil
		if cap(pb.subj) > maxPooledHeader {
			pb.subj = nil // don't hoard storage grown by a long subject
		}
		arenaPools[pb.class].Put(pb)
	case left < 0:
		panic("broker: payload released more often than retained")
	}
}
