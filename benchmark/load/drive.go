package load

import (
	"fmt"
	"sort"
	"time"

	"adamant/benchmark/hist"
	"adamant/benchmark/report"
)

// Sink is where publishes go: a raw connection or a broker.Client.
type Sink interface {
	Publish(subject string, payload []byte) error
	// Flush pushes buffered publishes to the socket.
	Flush() error
}

// RawSink publishes hand-written PUB frames on a Conn.
type RawSink struct{ C *Conn }

func (s RawSink) Publish(subject string, payload []byte) error {
	s.C.Pub(subject, payload)
	return nil // a write error is sticky in the bufio.Writer and surfaces in Flush
}
func (s RawSink) Flush() error { return s.C.W.Flush() }

// PublishSpan is the traced life of one publish on the generator's side.
type PublishSpan struct {
	ID                uint64
	Due, Call, Return int64
}

// MinTick is the floor on the paced publisher's wake-up period. Sleeping per
// message at sub-millisecond periods measures the OS timer, not the broker;
// instead each wake-up sends every publish that is due and stamps each with
// its own intended time.
const MinTick = 2 * time.Millisecond

// stallTimeout is how long a phase waits for outstanding deliveries before
// giving them up as missing.
const stallTimeout = 10 * time.Second

// Driver issues publishes. Next builds publish id (its payload stamped with
// due) and records what it must produce in the Verifier.
type Driver struct {
	V    *Verifier
	Sink Sink
	Next func(id uint64, due int64) (subject string, payload []byte)
	// OnTick, when set, runs on the publishing goroutine before each flush
	// (probes that must share the publisher's connection).
	OnTick func(now int64)
	// Trace keeps a PublishSpan per publish.
	Trace bool
	Spans []PublishSpan

	nextID uint64
}

// Span finds the traced span of publish id.
func (d *Driver) Span(id uint64) (PublishSpan, bool) {
	i := sort.Search(len(d.Spans), func(i int) bool { return d.Spans[i].ID >= id })
	if i < len(d.Spans) && d.Spans[i].ID == id {
		return d.Spans[i], true
	}
	return PublishSpan{}, false
}

// Published is the number of publishes issued so far.
func (d *Driver) Published() uint64 { return d.nextID }

func (d *Driver) publish(due, now int64) error {
	d.nextID++
	subject, payload := d.Next(d.nextID, due)
	if d.Trace {
		d.Spans = append(d.Spans, PublishSpan{ID: d.nextID, Due: due, Call: now})
	}
	return d.Sink.Publish(subject, payload)
}

// flush pushes a batch out and closes the spans of the publishes in it.
func (d *Driver) flush(first int) error {
	if d.OnTick != nil {
		d.OnTick(Now())
	}
	err := d.Sink.Flush()
	if d.Trace {
		ret := Now()
		for i := first; i < len(d.Spans); i++ {
			d.Spans[i].Return = ret
		}
	}
	return err
}

// Pacing says how well the generator kept an open-loop schedule.
type Pacing struct {
	Sent     uint64
	Late     uint64 // written more than one tick after the tick they were scheduled for
	MaxLagNs int64
}

// LateShare is Late/Sent.
func (p Pacing) LateShare() float64 {
	if p.Sent == 0 {
		return 0
	}
	return float64(p.Late) / float64(p.Sent)
}

// Paced publishes at rateHz for the length of the phase, open loop: publish
// i is due at Start + i/rate whatever the broker does, and its latency is
// measured from then.
func (d *Driver) Paced(p *Phase, rateHz int) (Pacing, error) {
	var pc Pacing
	interval := float64(time.Second) / float64(rateHz)
	total := int64(float64(p.Dur) / interval)
	tick := int64(MinTick)
	if int64(interval) > tick {
		tick = int64(interval)
	}
	due := func(i int64) int64 { return p.Start + int64(float64(i)*interval) }
	// wake is the first tick at or after t: when a publish due at t is
	// meant to be written.
	wake := func(t int64) int64 { return p.Start + ((t-p.Start+tick-1)/tick)*tick }
	for i := int64(0); i < total; {
		now := Now()
		if w := wake(due(i)); w > now {
			time.Sleep(time.Duration(w - now))
			now = Now()
		}
		first := len(d.Spans)
		for ; i < total && due(i) <= now; i++ {
			lag := now - wake(due(i))
			if lag > pc.MaxLagNs {
				pc.MaxLagNs = lag
			}
			if lag > tick {
				pc.Late++
			}
			if err := d.publish(due(i), now); err != nil {
				return pc, err
			}
			pc.Sent++
		}
		if err := d.flush(first); err != nil {
			return pc, err
		}
	}
	return pc, nil
}

// Closed publishes for the length of the phase with at most window
// deliveries outstanding, closed loop: a slow broker is offered less.
// perPublish is the nominal number of deliveries one publish produces.
func (d *Driver) Closed(p *Phase, window, perPublish uint64) error {
	end := p.Start + p.Dur
	watchdog := time.NewTicker(250 * time.Millisecond)
	defer watchdog.Stop()
	lastProgress := Now()
	for Now() < end {
		out := d.V.ExpectedTotal - d.V.Delivered()
		if out >= window {
			select {
			case <-d.V.Progress():
				lastProgress = Now()
			case <-watchdog.C:
				if Now()-lastProgress > int64(stallTimeout) {
					return fmt.Errorf("load: %d deliveries outstanding for %v in phase %s", out, stallTimeout, p.Name)
				}
			}
			continue
		}
		first := len(d.Spans)
		now := Now()
		for room := (window - out + perPublish - 1) / perPublish; room > 0; room-- {
			if err := d.publish(now, now); err != nil {
				return err
			}
		}
		if err := d.flush(first); err != nil {
			return err
		}
	}
	return nil
}

// Drain waits until every expected delivery has been read. It reports how
// many were still missing at the deadline.
func (d *Driver) Drain() uint64 {
	deadline := time.NewTimer(stallTimeout)
	defer deadline.Stop()
	for {
		got := d.V.Delivered()
		if got >= d.V.ExpectedTotal {
			return 0
		}
		select {
		case <-d.V.Progress():
		case <-deadline.C:
			return d.V.ExpectedTotal - d.V.Delivered()
		}
	}
}

// Summary is one phase seen across all readers.
type Summary struct {
	Name       string
	Deliveries uint64
	// P50..P999 are medians over the phase's windows of each window's
	// percentile, in nanoseconds.
	P50, P90, P95, P99, P999 float64
	WindowP50                [Windows]float64
	WindowP99                [Windows]float64
	// PerSecond is deliveries read per second: the 90th percentile over
	// the phase's RateSlice-long slices of each slice's rate (see
	// RateSlice). MeanPerSecond is all of them over the whole phase.
	PerSecond, MeanPerSecond float64
	Spans                    []DeliverySpan
}

// Summarize merges the readers' stats of one phase.
func Summarize(stats []*PhaseStats) Summary {
	p := stats[0].Phase
	s := Summary{Name: p.Name}
	var p50, p90, p95, p99, p999 []float64
	for w := 0; w < Windows; w++ {
		var h hist.H
		for _, ps := range stats {
			h.Merge(&ps.Latency[w])
		}
		s.WindowP50[w], s.WindowP99[w] = h.Quantile(0.50), h.Quantile(0.99)
		if h.Count() > 0 {
			p50 = append(p50, s.WindowP50[w])
			p90 = append(p90, h.Quantile(0.90))
			p95 = append(p95, h.Quantile(0.95))
			p99 = append(p99, s.WindowP99[w])
			p999 = append(p999, h.Quantile(0.999))
		}
	}
	if len(p50) > 0 {
		s.P50, s.P90, s.P95, s.P99, s.P999 = report.Median(p50), report.Median(p90), report.Median(p95), report.Median(p99), report.Median(p999)
	}
	rates := make([]float64, len(stats[0].ReadCount))
	var inSlices float64
	for i := range rates {
		for _, ps := range stats {
			rates[i] += float64(ps.ReadCount[i]) / RateSlice.Seconds()
		}
		inSlices += rates[i] * RateSlice.Seconds()
	}
	if len(rates) > 0 {
		sort.Float64s(rates)
		s.PerSecond = rates[len(rates)*9/10]
		s.MeanPerSecond = inSlices / (float64(len(rates)) * RateSlice.Seconds())
	}
	for _, ps := range stats {
		s.Deliveries += ps.Deliveries
		s.Spans = append(s.Spans, ps.Spans...)
	}
	return s
}
