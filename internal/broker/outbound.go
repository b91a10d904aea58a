package broker

import (
	"net"
	"strconv"
	"sync"
)

// Delivery never writes to the socket from the publish path. Each
// connection owns a bounded outbound queue drained by a single writer
// goroutine; that single drain goroutine is also the FIFO argument: frames
// enter the queue in route order under the index lock and leave in queue
// order on one goroutine, so per-connection delivery order is exactly
// enqueue order no matter how the writer batches the bytes.
//
// Per delivery, the publish path does an append. A reader goroutine stages
// the deliveries of its ingest batch in its stager, one open run per
// destination link, and a run enters the link's queue under one
// acquisition of the queue lock, with one admission-gauge add, one
// reference-count add per stretch of frames sharing a payload, and at most
// one wake of the writer. A staged MSG frame is a sid and a pointer to the
// arena buffer, which carries payload and subject; nothing is encoded
// until the writer does it.
//
// The writer is vectored: it drains the queue in bounded chunks and
// assembles a net.Buffers batch. MSG headers are encoded and small
// payloads copied into one reusable 64 KiB coalesce buffer (one iovec per
// contiguous stretch), large payloads ride as their own iovec straight out
// of the shared arena buffer (zero copies between the publisher's socket
// read and the kernel). One writev syscall then moves the whole chunk.
//
// The queue is bounded in both frames and bytes. When a peer stops reading
// and its queue fills, the SlowConsumerPolicy decides frame by frame: drop
// the frame and count it (SlowConsumerDrop), or close the connection
// (SlowConsumerDisconnect, the default — a stalled subscriber is evicted
// rather than silently lossy). Either way the publish path never blocks on
// one stalled subscriber.

// SlowConsumerPolicy selects what happens when a client's outbound
// queue overflows.
type SlowConsumerPolicy int

const (
	// SlowConsumerDisconnect closes the overflowing client's connection
	// (counted in ServerStats.SlowConsumerDisconnects).
	SlowConsumerDisconnect SlowConsumerPolicy = iota
	// SlowConsumerDrop drops the frame that would overflow and keeps the
	// connection (counted in ServerStats.SlowConsumerDrops).
	SlowConsumerDrop
)

// Defaults for the per-client outbound queue and the writer's batching.
const (
	defaultQueueFrames = 16384
	defaultQueueBytes  = 32 << 20
	writeBufSize       = 64 * 1024

	// maxDrainFrames bounds one writer drain chunk: it caps the iovec
	// list (&le; 2*maxDrainFrames+1 entries) and sets the granularity at
	// which admission bytes are returned to the gauge.
	maxDrainFrames = 1024

	// zeroCopyMin is the payload size at which a frame stops being
	// memcpy'd into the coalesce buffer and becomes its own iovec
	// referencing the shared arena buffer. Below it, the copy is cheaper
	// than growing the iovec list the kernel must walk.
	zeroCopyMin = 1024

	// maxPooledHeader is the largest header or subject storage a pool
	// keeps; what a long subject grew beyond it is left to the collector.
	maxPooledHeader = 4096
)

// outFrame is one queued write, of three kinds. A MSG delivery is
// {sid, pb}: the header is computed from pb.subj, sid and len(pb.data) and
// exists as bytes only in the writer's coalesce buffer. An RMSG forward is
// {hdr, pb} with its header line in the pooled hdr. A control line is
// {hdr} alone. Where pb is set the frame holds one reference on it once it
// is queued, and payload and CRLF follow the header on the wire.
type outFrame struct {
	hdr *headerBuf
	sid string
	pb  *payloadRef
}

func (f *outFrame) headerLen() int {
	if f.hdr != nil {
		return len(f.hdr.b)
	}
	return msgHeaderLen(len(f.pb.subj), len(f.sid), len(f.pb.data))
}

func (f *outFrame) appendHeader(b []byte) []byte {
	if f.hdr != nil {
		return append(b, f.hdr.b...)
	}
	return appendMsgHeader(b, f.pb.subj, f.sid, len(f.pb.data))
}

// size is the frame's length on the wire, the unit of the queue's byte
// bound and of the admission gauge.
func (f *outFrame) size() int64 {
	n := f.headerLen()
	if f.pb != nil {
		n += len(f.pb.data) + 2
	}
	return int64(n)
}

// appendMsgHeader appends "MSG <subject> <sid> <n>\r\n".
func appendMsgHeader(b, subject []byte, sid string, n int) []byte {
	b = append(b, "MSG "...)
	b = append(b, subject...)
	b = append(b, ' ')
	b = append(b, sid...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(n), 10)
	return append(b, '\r', '\n')
}

// msgHeaderLen is len(appendMsgHeader(nil, ...)) without building it.
func msgHeaderLen(subject, sid, n int) int {
	digits := 1
	for ; n >= 10; n /= 10 {
		digits++
	}
	return len("MSG ") + subject + 1 + sid + 1 + digits + 2
}

// freeFrames releases everything the frames hold, the pooled headers and
// one arena reference per frame (one atomic per stretch of frames on the
// same buffer), zeroes them, and returns their wire size. The caller
// accounts the admission bytes (the release points differ between writer
// and discard).
func freeFrames(frames []outFrame) int64 {
	var bytes int64
	for i := 0; i < len(frames); {
		pb := frames[i].pb
		j := i
		for ; j < len(frames) && frames[j].pb == pb; j++ {
			bytes += frames[j].size()
			putHeaderBuf(frames[j].hdr)
		}
		if pb != nil {
			pb.release(j - i)
		}
		i = j
	}
	clear(frames)
	return bytes
}

// runResult is what became of the runs offered to a queue: MSG frames
// accepted and their payload bytes, RMSG frames accepted, frames dropped
// by SlowConsumerDrop, and connections SlowConsumerDisconnect closed.
type runResult struct {
	msgs, msgBytes uint64
	rmsgs          uint64
	drops          uint64
	disconnects    uint64
}

func (r *runResult) add(o runResult) {
	r.msgs += o.msgs
	r.msgBytes += o.msgBytes
	r.rmsgs += o.rmsgs
	r.drops += o.drops
	r.disconnects += o.disconnects
}

// outQueue is the bounded frame queue between routeBatch and a client's
// writer goroutine. It is a head-indexed slice ring so the writer can
// take bounded chunks (maxDrainFrames) without shifting the remainder.
type outQueue struct {
	mu        sync.Mutex
	cond      sync.Cond
	frames    []outFrame
	head      int
	bytes     int64
	maxFrames int
	maxBytes  int64
	closed    bool
	gauge     *admission // nil when admission is disabled
}

func (q *outQueue) init(maxFrames int, maxBytes int64, gauge *admission) {
	q.cond.L = &q.mu
	q.maxFrames = maxFrames
	q.maxBytes = maxBytes
	q.gauge = gauge
}

// enqueueRun offers the frames of run in order under one acquisition of
// the queue lock. The slow-consumer policy applies frame by frame, exactly
// as if each had been offered alone: under SlowConsumerDrop a frame that
// does not fit is dropped and the ones after it are still offered (a
// smaller one may fit); under SlowConsumerDisconnect the first one that
// does not fit ends the run. Frames not accepted — all of them on a closed
// queue — are moved to run[:rejected] and stay the caller's to free; the
// rest of run is stale afterwards.
func (q *outQueue) enqueueRun(run []outFrame, policy SlowConsumerPolicy) (res runResult, rejected int) {
	var added int64
	q.mu.Lock()
	wasEmpty := len(q.frames) == q.head
	stop := q.closed
	for i := range run {
		f := &run[i]
		sz := f.size()
		switch {
		case stop:
		case len(q.frames)-q.head < q.maxFrames && q.bytes+sz <= q.maxBytes:
			if q.head > 0 && len(q.frames) == cap(q.frames) {
				n := copy(q.frames, q.frames[q.head:])
				clear(q.frames[n:])
				q.frames = q.frames[:n]
				q.head = 0
			}
			q.frames = append(q.frames, *f)
			q.bytes += sz
			added += sz
			if f.hdr == nil {
				res.msgs++
				res.msgBytes += uint64(len(f.pb.data))
			} else if f.pb != nil {
				res.rmsgs++
			}
			continue
		case policy == SlowConsumerDrop:
			res.drops++
		default:
			res.disconnects, stop = 1, true
		}
		run[rejected] = *f
		rejected++
	}
	// Admission accounting must happen under q.mu: a concurrent discard
	// (slow-consumer disconnect from another reader's batch) walks the
	// queued frames and returns their bytes, so the add and the walk have
	// to be ordered.
	if q.gauge != nil && added > 0 {
		q.gauge.add(added)
	}
	q.mu.Unlock()
	if wasEmpty && added > 0 {
		q.cond.Signal()
	}
	return res, rejected
}

// take blocks until frames are pending or the queue is closed, then
// moves up to max pending frames into dst. A (empty, true) return means
// closed and fully drained.
func (q *outQueue) take(dst []outFrame, max int) ([]outFrame, bool) {
	q.mu.Lock()
	for len(q.frames) == q.head && !q.closed {
		q.cond.Wait()
	}
	n := len(q.frames) - q.head
	if n > max {
		n = max
	}
	var taken int64
	for i := q.head; i < q.head+n; i++ {
		taken += q.frames[i].size()
		dst = append(dst, q.frames[i])
		q.frames[i] = outFrame{}
	}
	q.head += n
	q.bytes -= taken
	if q.head == len(q.frames) {
		q.frames = q.frames[:0]
		q.head = 0
	}
	closed := q.closed
	q.mu.Unlock()
	return dst, closed
}

func (q *outQueue) pending() bool {
	q.mu.Lock()
	n := len(q.frames) - q.head
	q.mu.Unlock()
	return n > 0
}

// close marks the queue closed. The writer drains what is already queued
// (flushing it) and then closes the connection.
func (q *outQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Signal()
}

// discard marks the queue closed and throws away anything pending —
// used on write errors and slow-consumer eviction, when the bytes can no
// longer reach the peer. Dropped frames return their arena references
// and admission bytes.
func (q *outQueue) discard() {
	q.mu.Lock()
	q.closed = true
	dropped := freeFrames(q.frames[q.head:])
	q.frames = q.frames[:0]
	q.head = 0
	q.bytes = 0
	gauge := q.gauge
	q.mu.Unlock()
	if gauge != nil && dropped > 0 {
		gauge.done(dropped)
	}
	q.cond.Signal()
}

// headerBuf is a pooled control-line or RMSG-header buffer. The pool
// hands out the struct pointer itself so a get/put cycle never boxes a
// slice header.
type headerBuf struct{ b []byte }

// headerPool recycles the header buffers, mirroring the udpnet
// encode-buffer reuse from the transport layer.
var headerPool = sync.Pool{
	New: func() any {
		return &headerBuf{b: make([]byte, 0, 64)}
	},
}

func getHeaderBuf() *headerBuf {
	h := headerPool.Get().(*headerBuf)
	h.b = h.b[:0]
	return h
}

func putHeaderBuf(h *headerBuf) {
	if h == nil {
		return
	}
	if cap(h.b) > maxPooledHeader {
		h.b = nil // don't hoard buffers grown by long subjects
	}
	headerPool.Put(h)
}

// encodeLine appends a control line + CRLF to a pooled buf.
func encodeLine(line string) *headerBuf {
	h := getHeaderBuf()
	h.b = append(h.b, line...)
	h.b = append(h.b, '\r', '\n')
	return h
}

var crlf = []byte("\r\n")

// vectorBatch owns the reusable buffers one writer goroutine needs to
// turn a chunk of frames into a writev call: the coalesce buffer for
// small frames and the iovec list.
type vectorBatch struct {
	coal []byte
	iov  net.Buffers
}

func newVectorBatch() *vectorBatch {
	return &vectorBatch{
		coal: make([]byte, 0, writeBufSize),
		iov:  make(net.Buffers, 0, 64),
	}
}

// write sends frames to conn preserving order and wire bytes: headers
// (MSG headers are encoded here) and small payloads are appended to the
// coalesce buffer (each contiguous stretch becomes one iovec), payloads >=
// zeroCopyMin are referenced directly. When the coalesce buffer fills
// mid-chunk the accumulated iovecs are flushed and assembly continues, so
// any frame mix terminates.
func (v *vectorBatch) write(conn net.Conn, frames []outFrame) error {
	coal := v.coal[:0]
	iov := v.iov[:0]
	mark := 0 // start of the coalesce segment not yet in iov

	flush := func() error {
		if len(coal) > mark {
			iov = append(iov, coal[mark:])
		}
		if len(iov) == 0 {
			return nil
		}
		var err error
		if len(iov) == 1 {
			_, err = conn.Write(iov[0])
		} else {
			bufs := iov // WriteTo consumes its receiver; keep iov's header
			_, err = bufs.WriteTo(conn)
		}
		for i := range iov {
			iov[i] = nil
		}
		iov = iov[:0]
		coal = coal[:0]
		mark = 0
		return err
	}
	// fit flushes early if n more coalesced bytes would overflow the
	// buffer; oversize spills (n > cap even when empty) grow it once.
	fit := func(n int) error {
		if len(coal)+n <= cap(coal) {
			return nil
		}
		if err := flush(); err != nil {
			return err
		}
		if n > cap(coal) {
			coal = make([]byte, 0, n)
		}
		return nil
	}

	var err error
	for i := range frames {
		f := &frames[i]
		hlen := f.headerLen()
		if f.pb == nil {
			if err = fit(hlen); err != nil {
				break
			}
			coal = f.appendHeader(coal)
			continue
		}
		payload := f.pb.data
		if len(payload) >= zeroCopyMin {
			if err = fit(hlen); err != nil {
				break
			}
			coal = f.appendHeader(coal)
			iov = append(iov, coal[mark:])
			mark = len(coal)
			iov = append(iov, payload)
			if err = fit(2); err != nil {
				break
			}
			coal = append(coal, crlf...)
			continue
		}
		if err = fit(hlen + len(payload) + 2); err != nil {
			break
		}
		coal = f.appendHeader(coal)
		coal = append(coal, payload...)
		coal = append(coal, crlf...)
	}
	if err == nil {
		err = flush()
	}
	v.coal = coal[:0]
	v.iov = iov[:0]
	return err
}

// writeLoop is the per-connection writer goroutine: it drains the queue
// in bounded chunks, assembles each chunk into a coalesced+zero-copy
// writev batch, and releases the chunk's arena references and admission
// bytes once it is written (or abandoned on error). It owns the final
// conn.Close so that queued protocol replies (-ERR, PONG) reach the peer
// before teardown.
func writeLoop(conn net.Conn, q *outQueue) {
	vb := newVectorBatch()
	var batch []outFrame
	for {
		var closed bool
		batch, closed = q.take(batch[:0], maxDrainFrames)
		if len(batch) == 0 && closed {
			conn.Close()
			return
		}
		err := vb.write(conn, batch)
		written := freeFrames(batch)
		if q.gauge != nil && written > 0 {
			q.gauge.done(written)
		}
		if err != nil {
			// The peer is gone: unblock the reader and drop the rest.
			conn.Close()
			q.discard()
		}
	}
}
