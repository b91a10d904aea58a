package fleet

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"adamant/internal/broker"
)

// MeshConfig describes one cross-broker fleet run: an N-broker full
// mesh with the publisher pinned to broker 0 and every subscriber on
// brokers 1..N-1, so each delivery crosses exactly one inter-broker
// route. The measured latency therefore includes the route hop —
// publisher conn → broker 0 → RMSG → subscriber's broker → subscriber —
// which is the number a multi-node deployment actually sees.
type MeshConfig struct {
	// Brokers is the mesh size (≥ 2; default 3). Broker 0 hosts only the
	// publisher; subscribers are split evenly across the rest.
	Brokers int

	// Subscribers is the total fan-out group size across the mesh.
	Subscribers int
	// Conns is the total number of real subscriber TCP connections,
	// split across the subscriber brokers (≥ 1 per broker). Default 16.
	Conns int
	// PayloadBytes / Messages / RateHz as in Config.
	PayloadBytes int
	Messages     int
	RateHz       int

	// Seed/Shards/QueueFrames/QueueBytes as in Config; every broker in
	// the mesh gets the same tuning (seeds offset per broker).
	Seed        int64
	Shards      int
	QueueFrames int
	QueueBytes  int64
}

// MeshResult is one measured mesh cell: the usual fleet metrics plus
// the federation counters that prove the topology did what it claims.
type MeshResult struct {
	Result
	Brokers int `json:"brokers"`

	// RoutedMsgs is broker 0's forwarded-RMSG count: with all
	// subscribers remote it should be Messages × (subscriber brokers
	// holding interest). DupsSuppressed is summed across the mesh and
	// must be 0 in a healthy full mesh — a nonzero value means a
	// forwarded frame came back to its origin.
	RoutedMsgs     uint64 `json:"routed_msgs"`
	DupsSuppressed uint64 `json:"dups_suppressed"`
}

func (c *MeshConfig) normalize() (Config, error) {
	if c.Brokers == 0 {
		c.Brokers = 3
	}
	if c.Brokers < 2 {
		return Config{}, fmt.Errorf("fleet: mesh needs >= 2 brokers, got %d", c.Brokers)
	}
	base := Config{
		Subscribers:  c.Subscribers,
		Conns:        c.Conns,
		PayloadBytes: c.PayloadBytes,
		Messages:     c.Messages,
		RateHz:       c.RateHz,
		Seed:         c.Seed,
		Shards:       c.Shards,
		QueueFrames:  c.QueueFrames,
		QueueBytes:   c.QueueBytes,
	}
	if err := base.normalize(); err != nil {
		return base, err
	}
	if subBrokers := c.Brokers - 1; base.Subscribers < subBrokers {
		return base, fmt.Errorf("fleet: mesh needs >= 1 subscriber per subscriber broker (%d), got %d",
			subBrokers, base.Subscribers)
	}
	return base, nil
}

// RunMesh starts an in-process N-broker full mesh, pins the fleet's
// subscribers to brokers 1..N-1 and the publisher to broker 0, and
// measures cross-broker delivery the same open-loop way Run measures a
// single broker. It blocks until the mesh converges (routes up,
// interest propagated) before the timed window starts.
func RunMesh(cfg MeshConfig) (MeshResult, error) {
	base, err := cfg.normalize()
	if err != nil {
		return MeshResult{}, err
	}
	res := MeshResult{
		Result: Result{
			Subscribers:  base.Subscribers,
			Conns:        base.Conns,
			PayloadBytes: base.PayloadBytes,
			Messages:     base.Messages,
			RateHz:       base.RateHz,
			OpenLoop:     base.RateHz > 0,
		},
		Brokers: cfg.Brokers,
	}

	servers := make([]*broker.Server, cfg.Brokers)
	addrs := make([]string, cfg.Brokers)
	for i := range servers {
		opts := []broker.Option{
			broker.WithSeed(base.Seed + int64(i)),
			broker.WithServerID(fmt.Sprintf("mesh%d", i)),
			broker.WithWriteQueue(base.QueueFrames, base.QueueBytes),
			broker.WithSlowConsumerPolicy(broker.SlowConsumerDrop),
		}
		if base.Shards > 0 {
			opts = append(opts, broker.WithShards(base.Shards))
		}
		srv := broker.NewServer(opts...)
		if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
			return res, err
		}
		defer srv.Shutdown()
		servers[i] = srv
		addrs[i] = srv.Addr().String()
	}
	// Explicit full mesh: each pair connected once (the handshake
	// tie-break would also resolve double dials, but there is no reason
	// to create them).
	for i := range servers {
		for j := i + 1; j < len(servers); j++ {
			servers[j].AddRoute(addrs[i])
		}
	}
	if err := waitMesh(servers, func(s *broker.Server) bool {
		return s.Stats().Routes == uint64(cfg.Brokers-1)
	}, "route formation"); err != nil {
		return res, err
	}

	// Split subscribers and their conns across brokers 1..N-1.
	var delivered atomic.Uint64
	var readers []*fleetReader
	var wg sync.WaitGroup
	defer func() {
		for _, r := range readers {
			r.conn.Close()
		}
		wg.Wait()
	}()
	subsLeft, connsLeft := base.Subscribers, base.Conns
	sid := 0
	for b := 1; b < cfg.Brokers; b++ {
		subs := subsLeft / (cfg.Brokers - b)
		subsLeft -= subs
		conns := connsLeft / (cfg.Brokers - b)
		if conns < 1 {
			conns = 1
		}
		if conns > subs {
			conns = subs
		}
		connsLeft -= conns
		for ci := 0; ci < conns; ci++ {
			conn, err := net.DialTimeout("tcp", addrs[b], 5*time.Second)
			if err != nil {
				return res, err
			}
			r := &fleetReader{conn: conn, delivered: &delivered, pong: make(chan struct{}, 1)}
			readers = append(readers, r)
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.loop()
			}()
			w := bufio.NewWriterSize(conn, 64*1024)
			for j := ci; j < subs; j += conns {
				w.WriteString("SUB fleet.bcast " + strconv.Itoa(sid) + "\r\n")
				sid++
			}
			w.WriteString("PING\r\n")
			if err := w.Flush(); err != nil {
				return res, err
			}
			select {
			case <-r.pong:
			case <-time.After(60 * time.Second):
				return res, fmt.Errorf("fleet: broker %d conn %d: no PONG after subscribe", b, ci)
			}
		}
	}
	// Interest barrier: broker 0 must hold the propagated interest from
	// every subscriber broker before the timed window, or the first
	// publishes would silently miss remote subscribers.
	if err := waitMesh(servers[:1], func(s *broker.Server) bool {
		return s.Stats().RemoteSubs >= uint64(cfg.Brokers-1)
	}, "interest propagation"); err != nil {
		return res, err
	}

	pub, err := net.DialTimeout("tcp", addrs[0], 5*time.Second)
	if err != nil {
		return res, err
	}
	defer pub.Close()
	pw := bufio.NewWriterSize(pub, 64*1024)
	header := []byte("PUB fleet.bcast " + strconv.Itoa(base.PayloadBytes) + "\r\n")
	payload := make([]byte, base.PayloadBytes)
	var interval time.Duration
	if base.RateHz > 0 {
		interval = time.Second / time.Duration(base.RateHz)
	}

	expected := uint64(base.Messages) * uint64(base.Subscribers)
	start := time.Now()
	behind, maxLag, err := publishTimestamped(pw, header, payload, base.Messages, interval, start)
	if err != nil {
		return res, err
	}
	res.BehindSchedule = behind
	res.MaxSendLagMs = float64(maxLag) / 1e6

	deadline := time.Now().Add(60*time.Second + time.Duration(expected/100_000)*time.Second)
	for {
		d := delivered.Load()
		var dropped uint64
		for _, s := range servers {
			dropped += s.Stats().SlowConsumerDrops
		}
		if d+dropped >= expected {
			res.Delivered = d
			res.Dropped = dropped
			break
		}
		if time.Now().After(deadline) {
			return res, fmt.Errorf("fleet: mesh timeout, %d delivered + %d dropped of %d expected",
				d, dropped, expected)
		}
		time.Sleep(time.Millisecond)
	}
	res.Seconds = time.Since(start).Seconds()
	res.PublishPerSec = float64(base.Messages) / res.Seconds
	res.DeliveriesPerSec = float64(res.Delivered) / res.Seconds
	res.RoutedMsgs = servers[0].Stats().RoutedMsgs
	for _, s := range servers {
		res.DupsSuppressed += s.Stats().DupsSuppressed
	}

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

// waitMesh polls cond on every server until it holds mesh-wide.
func waitMesh(servers []*broker.Server, cond func(*broker.Server) bool, what string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok := true
		for _, s := range servers {
			if !cond(s) {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: mesh %s did not converge", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
