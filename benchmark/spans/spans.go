// Package spans records nested spans around calls into the layers of a
// single-threaded simulation: name, start, end, the span that caused it,
// and the request (trace) it belongs to. A layer's self time is its span
// minus the part its child spans cover. Spans stay in memory; Write puts a
// sample of them, and every layer's totals, on disk when the run is over.
package spans

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"adamant/benchmark/hist"
)

var clockBase = time.Now()

func now() int64 { return int64(time.Since(clockBase)) }

// Span is one recorded interval. Times are nanoseconds on the recorder's
// clock; Parent is 0 for a root.
type Span struct {
	ID, Parent uint64
	Trace      uint64
	Layer      int
	Start, End int64
	Self       int64
}

// Totals aggregates every span of one layer, kept or not.
type Totals struct {
	Count       uint64
	Total, Self int64  // nanoseconds, inclusive and exclusive of children
	Dur         hist.H // inclusive durations
	SelfDur     hist.H
}

type frame struct {
	id, trace uint64
	layer     int
	start     int64
	children  int64 // time covered by finished child spans
}

// Recorder is not safe for concurrent use: one per simulation.
type Recorder struct {
	Layers []string // index -> name
	Totals []Totals
	// KeepEvery keeps the individual spans of one trace in KeepEvery (and
	// of every root) for the span file, up to MaxKept.
	KeepEvery uint64
	MaxKept   int
	Kept      []Span

	stack  []frame
	nextID uint64
}

// New returns a recorder for the named layers.
func New(layers ...string) *Recorder {
	return &Recorder{Layers: layers, Totals: make([]Totals, len(layers)), KeepEvery: 64, MaxKept: 200_000}
}

// Begin opens a span of layer inside whatever span is open. trace 0
// inherits the enclosing span's trace.
func (r *Recorder) Begin(layer int, trace uint64) {
	r.nextID++
	if trace == 0 && len(r.stack) > 0 {
		trace = r.stack[len(r.stack)-1].trace
	}
	r.stack = append(r.stack, frame{id: r.nextID, trace: trace, layer: layer, start: now()})
}

// End closes the innermost open span.
func (r *Recorder) End() {
	end := now()
	f := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	dur := end - f.start
	self := dur - f.children
	var parent uint64
	if n := len(r.stack); n > 0 {
		r.stack[n-1].children += dur
		parent = r.stack[n-1].id
	}
	t := &r.Totals[f.layer]
	t.Count++
	t.Total += dur
	t.Self += self
	t.Dur.Record(dur)
	t.SelfDur.Record(self)
	if len(r.Kept) < r.MaxKept && (parent == 0 || f.trace%r.KeepEvery == 0) {
		r.Kept = append(r.Kept, Span{ID: f.id, Parent: parent, Trace: f.trace, Layer: f.layer, Start: f.start, End: end, Self: self})
	}
}

// SelfSum adds up the self time of every layer. With every span closed it
// equals the total time of the root spans: that is what self time means.
func (r *Recorder) SelfSum() int64 {
	var sum int64
	for i := range r.Totals {
		sum += r.Totals[i].Self
	}
	return sum
}

// Write puts the layer totals and the kept spans in a JSON-lines file.
func (r *Recorder) Write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for i, t := range r.Totals {
		fmt.Fprintf(w, `{"layer":%q,"count":%d,"total_ns":%d,"self_ns":%d}`+"\n", r.Layers[i], t.Count, t.Total, t.Self)
	}
	for _, s := range r.Kept {
		fmt.Fprintf(w, `{"span":%q,"id":%d,"parent":%d,"trace":%d,"start":%d,"end":%d,"self_ns":%d}`+"\n",
			r.Layers[s.Layer], s.ID, s.Parent, s.Trace, s.Start, s.End, s.Self)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
