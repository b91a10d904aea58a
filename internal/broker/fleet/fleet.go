// Package fleet is the 100k-subscriber scale harness for the broker: it
// multiplexes an arbitrary number of mock subscribers over a small
// number of real TCP connections against an in-process server, stamps
// every publish with a send timestamp, and measures fan-out throughput
// plus p50/p99/p99.9 delivery latency. One Run is one sweep cell of
// BENCH_broker.json (group size x publish rate x payload size).
package fleet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"adamant/internal/broker"
)

// timestampBytes is the payload prefix carrying the publisher's
// send-time (UnixNano, little-endian); payloads must be at least this
// large so every delivery can be latency-stamped.
const timestampBytes = 8

// minPaceTick is the floor on the publisher's pacing quantum. Sleeping
// per message at sub-millisecond intervals measures the OS timer, not
// the broker: wake-up jitter exceeds the interval and every cell looks
// "behind schedule" regardless of data plane. Instead the paced loop
// wakes at max(interval, minPaceTick), sends every message whose
// intended time has arrived in one batch, and stamps each with its own
// intended time — so quantization adds at most one tick of measured
// latency (identically on both planes) and BehindSchedule only counts
// lag beyond the quantum, i.e. genuine backpressure.
const minPaceTick = 2 * time.Millisecond

// Config describes one fleet run.
type Config struct {
	// Subscribers is the fan-out group size: every subscriber holds one
	// subscription on the same subject, so each publish delivers to all
	// of them.
	Subscribers int
	// Conns is the number of real TCP connections the subscribers are
	// multiplexed over (distinct sids on shared conns). Default 16.
	Conns int
	// PayloadBytes per publish, >= 8 (timestamp prefix). Default 128.
	PayloadBytes int
	// Messages published. Default 100.
	Messages int
	// RateHz paces the publisher; 0 publishes at maximum rate.
	//
	// A paced run is measured open-loop: every payload is stamped with
	// the publisher's *intended* send time (start + i/rate), not the
	// actual write time. If the broker pushes back (admission, TCP) and
	// the publisher falls behind schedule, that stall shows up in the
	// delivery latency instead of silently shifting the measurement
	// window — the coordinated-omission bias the PR 7 harness had.
	// Sends are quantized to max(1/rate, minPaceTick); see minPaceTick.
	// Unpaced runs have no schedule, are stamped at actual send time,
	// and are flagged closed-loop in the Result.
	RateHz int

	// Seed/Shards/QueueFrames/QueueBytes configure the in-process
	// server. The queue defaults are generous (1<<17 frames, 256 MB) so
	// a max-rate burst into a 100k group does not immediately trip the
	// slow-consumer policy; drops that still happen are counted, not
	// hidden — completion waits for delivered+dropped.
	Seed        int64
	Shards      int
	QueueFrames int
	QueueBytes  int64

	// AdmissionBytes overrides the publish-admission window (0 = broker
	// default, < 0 = disabled).
	AdmissionBytes int64
}

// Result is one measured sweep cell.
type Result struct {
	Subscribers  int `json:"subscribers"`
	Conns        int `json:"conns"`
	PayloadBytes int `json:"payload_bytes"`
	Messages     int `json:"messages"`
	RateHz       int `json:"rate_hz"`

	// OpenLoop reports whether latency was stamped from the intended
	// send schedule (paced runs) or the actual send time (unpaced runs,
	// which are closed-loop and understate latency under saturation).
	OpenLoop bool `json:"open_loop"`

	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped"`

	// BehindSchedule counts publishes that went out more than one pacing
	// quantum (max(interval, minPaceTick)) after their intended send
	// time; MaxSendLagMs is the worst observed lag. A large
	// BehindSchedule means the offered rate was not actually sustained —
	// the cell is at or past the saturation knee.
	BehindSchedule uint64  `json:"behind_schedule"`
	MaxSendLagMs   float64 `json:"max_send_lag_ms"`

	Seconds          float64 `json:"seconds"`
	PublishPerSec    float64 `json:"publish_per_sec"`
	DeliveriesPerSec float64 `json:"deliveries_per_sec"`

	LatencyP50Ms  float64 `json:"latency_p50_ms"`
	LatencyP99Ms  float64 `json:"latency_p99_ms"`
	LatencyP999Ms float64 `json:"latency_p999_ms"`
	LatencyMaxMs  float64 `json:"latency_max_ms"`
}

func (c *Config) normalize() error {
	if c.Subscribers <= 0 {
		return fmt.Errorf("fleet: Subscribers must be > 0, got %d", c.Subscribers)
	}
	if c.Conns <= 0 {
		c.Conns = 16
	}
	if c.Conns > c.Subscribers {
		c.Conns = c.Subscribers
	}
	if c.PayloadBytes < timestampBytes {
		c.PayloadBytes = 128
	}
	if c.PayloadBytes > broker.MaxPayload {
		return fmt.Errorf("fleet: PayloadBytes %d exceeds MaxPayload %d", c.PayloadBytes, broker.MaxPayload)
	}
	if c.Messages <= 0 {
		c.Messages = 100
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.QueueFrames <= 0 {
		c.QueueFrames = 1 << 17
	}
	if c.QueueBytes <= 0 {
		c.QueueBytes = 256 << 20
	}
	return nil
}

// Run starts an in-process server, attaches the mock-subscriber fleet,
// publishes cfg.Messages timestamped payloads, and blocks until every
// expected delivery is either received or counted as dropped.
func Run(cfg Config) (Result, error) {
	if err := cfg.normalize(); err != nil {
		return Result{}, err
	}
	res := Result{
		Subscribers:  cfg.Subscribers,
		Conns:        cfg.Conns,
		PayloadBytes: cfg.PayloadBytes,
		Messages:     cfg.Messages,
		RateHz:       cfg.RateHz,
		OpenLoop:     cfg.RateHz > 0,
	}

	opts := []broker.Option{
		broker.WithSeed(cfg.Seed),
		broker.WithWriteQueue(cfg.QueueFrames, cfg.QueueBytes),
		broker.WithSlowConsumerPolicy(broker.SlowConsumerDrop),
	}
	if cfg.Shards > 0 {
		opts = append(opts, broker.WithShards(cfg.Shards))
	}
	if cfg.AdmissionBytes != 0 {
		opts = append(opts, broker.WithPublishAdmission(cfg.AdmissionBytes, 0))
	}
	srv := broker.NewServer(opts...)
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		return res, err
	}
	defer srv.Shutdown()
	addr := srv.Addr().String()

	var delivered atomic.Uint64
	readers := make([]*fleetReader, cfg.Conns)
	var wg sync.WaitGroup
	for i := range readers {
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return res, err
		}
		defer conn.Close()
		r := &fleetReader{conn: conn, delivered: &delivered, pong: make(chan struct{}, 1)}
		readers[i] = r
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.loop()
		}()
	}

	// Subscribe the whole fleet: subscriber j rides conn j%Conns with
	// sid j, all on the one fan-out subject.
	for i, r := range readers {
		w := bufio.NewWriterSize(r.conn, 64*1024)
		for j := i; j < cfg.Subscribers; j += cfg.Conns {
			w.WriteString("SUB fleet.bcast " + strconv.Itoa(j) + "\r\n")
		}
		if err := w.Flush(); err != nil {
			return res, err
		}
	}
	// PING/PONG barrier: every SUB processed before timing starts.
	for i, r := range readers {
		if _, err := r.conn.Write([]byte("PING\r\n")); err != nil {
			return res, err
		}
		select {
		case <-r.pong:
		case <-time.After(60 * time.Second):
			return res, fmt.Errorf("fleet: conn %d: no PONG after subscribe", i)
		}
	}

	pub, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return res, err
	}
	defer pub.Close()
	pw := bufio.NewWriterSize(pub, 64*1024)

	header := []byte("PUB fleet.bcast " + strconv.Itoa(cfg.PayloadBytes) + "\r\n")
	payload := make([]byte, cfg.PayloadBytes)
	var interval time.Duration
	if cfg.RateHz > 0 {
		interval = time.Second / time.Duration(cfg.RateHz)
	}

	expected := uint64(cfg.Messages) * uint64(cfg.Subscribers)
	start := time.Now()
	behind, maxLag, err := publishTimestamped(pw, header, payload, cfg.Messages, interval, start)
	if err != nil {
		return res, err
	}
	res.BehindSchedule = behind
	res.MaxSendLagMs = float64(maxLag) / 1e6

	// Completion: every expected delivery accounted for, received or
	// dropped by the slow-consumer policy. The deadline scales with the
	// cell size (conservative 100k deliveries/s floor).
	deadline := time.Now().Add(60*time.Second + time.Duration(expected/100_000)*time.Second)
	for {
		d := delivered.Load()
		dropped := srv.Stats().SlowConsumerDrops
		if d+dropped >= expected {
			res.Delivered = d
			res.Dropped = dropped
			break
		}
		if time.Now().After(deadline) {
			return res, fmt.Errorf("fleet: timeout, %d delivered + %d dropped of %d expected",
				d, dropped, expected)
		}
		time.Sleep(time.Millisecond)
	}
	res.Seconds = time.Since(start).Seconds()
	res.PublishPerSec = float64(cfg.Messages) / res.Seconds
	res.DeliveriesPerSec = float64(res.Delivered) / res.Seconds

	// Close the subscriber conns so the readers exit, then merge their
	// per-conn histograms.
	for _, r := range readers {
		r.conn.Close()
	}
	wg.Wait()
	var hist Histogram
	for _, r := range readers {
		hist.Merge(&r.hist)
	}
	res.LatencyP50Ms = float64(hist.Quantile(0.50)) / 1e6
	res.LatencyP99Ms = float64(hist.Quantile(0.99)) / 1e6
	res.LatencyP999Ms = float64(hist.Quantile(0.999)) / 1e6
	res.LatencyMaxMs = float64(hist.Max()) / 1e6
	return res, nil
}

// publishTimestamped drives one publisher connection (shared by the
// single-broker and mesh harnesses). With interval > 0 it runs open
// loop: every stamp is the message's *intended* send time
// (start + i*interval). If a flush blocks on broker backpressure the
// next batch goes out late and delivery latency grows by exactly the
// lag, instead of the sample silently moving to a later window. Sends
// are quantized to max(interval, minPaceTick): each wake flushes every
// message due by now, so the batch reaches the wire together — exactly
// the shape the broker's batched ingest path must absorb. behind counts
// publishes more than one quantum late (genuine backpressure), maxLag
// the worst lag. With interval == 0 there is no schedule: stamp actual
// send time and flush per publish (closed loop — a buffered batch would
// stamp timestamps long before the bytes reach the wire and flatter
// latency).
func publishTimestamped(pw *bufio.Writer, header, payload []byte, messages int, interval time.Duration, start time.Time) (behind uint64, maxLag time.Duration, err error) {
	crlfTail := []byte("\r\n")
	if interval <= 0 {
		for i := 0; i < messages; i++ {
			binary.LittleEndian.PutUint64(payload, uint64(time.Now().UnixNano()))
			pw.Write(header)
			pw.Write(payload)
			pw.Write(crlfTail)
			if err := pw.Flush(); err != nil {
				return behind, maxLag, err
			}
		}
		return behind, maxLag, nil
	}
	quantum := interval
	if quantum < minPaceTick {
		quantum = minPaceTick
	}
	for i := 0; i < messages; {
		next := start.Add(time.Duration(i) * interval)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		due := int(now.Sub(start)/interval) + 1
		if due > messages {
			due = messages
		}
		if due <= i {
			due = i + 1
		}
		for ; i < due; i++ {
			next = start.Add(time.Duration(i) * interval)
			if lag := now.Sub(next); lag > 0 {
				if lag > maxLag {
					maxLag = lag
				}
				if lag > quantum {
					behind++
				}
			}
			binary.LittleEndian.PutUint64(payload, uint64(next.UnixNano()))
			pw.Write(header)
			pw.Write(payload)
			pw.Write(crlfTail)
		}
		if err := pw.Flush(); err != nil {
			return behind, maxLag, err
		}
	}
	return behind, maxLag, nil
}

// fleetReader drains one multiplexed connection: it counts MSG frames,
// stamps per-delivery latency from the payload's timestamp prefix into
// its own histogram, and forwards PONGs to the setup barrier.
type fleetReader struct {
	conn      net.Conn
	delivered *atomic.Uint64
	pong      chan struct{}
	hist      Histogram
}

func (r *fleetReader) loop() {
	br := bufio.NewReaderSize(r.conn, 256*1024)
	var payload []byte
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return
		}
		if len(line) >= 4 && line[0] == 'P' && line[1] == 'O' {
			select {
			case r.pong <- struct{}{}:
			default:
			}
			continue
		}
		if len(line) < 4 || line[0] != 'M' || line[1] != 'S' || line[2] != 'G' {
			continue
		}
		// Last space-separated field of the MSG line is the payload size.
		sz := 0
		for i := len(line) - 2; i >= 0; i-- {
			if line[i] == ' ' {
				sz, _ = strconv.Atoi(string(line[i+1 : len(line)-2]))
				break
			}
		}
		if cap(payload) < sz+2 {
			payload = make([]byte, sz+2)
		}
		if _, err := io.ReadFull(br, payload[:sz+2]); err != nil {
			return
		}
		if sz >= timestampBytes {
			sent := int64(binary.LittleEndian.Uint64(payload))
			if lat := time.Now().UnixNano() - sent; lat >= 0 {
				r.hist.Record(uint64(lat))
			}
		}
		r.delivered.Add(1)
	}
}
