// Package bench pairs the current broker against a faithful copy of the
// seed broker (pre-sharding, pre-coalescing) on the same real-socket
// fan-out workload, so BENCH_broker.json's speedup column is
// like-for-like — the same role the boxed-heap baseline plays for the
// sim kernel in internal/sim/bench.
package bench

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"

	"adamant/internal/broker"
)

// seedServer is the seed broker's data path, kept verbatim in spirit:
// one global mutex over clients/subs/rng, a linear Match scan over every
// subscription per publish, and three unbuffered conn.Writes per
// delivery under a per-client lock. Protocol handling is trimmed to the
// commands the harness drives (CONNECT/SUB/PUB/PING).
type seedServer struct {
	mu      sync.Mutex
	ln      net.Listener
	clients map[*seedClient]struct{}
	subs    map[*seedSub]struct{}
	rng     *rand.Rand
	done    chan struct{}
	closed  bool
}

type seedSub struct {
	client  *seedClient
	pattern string
	queue   string
	sid     string
}

type seedClient struct {
	srv  *seedServer
	conn net.Conn
	wmu  sync.Mutex
}

func newSeedServer() *seedServer {
	return &seedServer{
		clients: make(map[*seedClient]struct{}),
		subs:    make(map[*seedSub]struct{}),
		rng:     rand.New(rand.NewSource(1)),
		done:    make(chan struct{}),
	}
}

func (s *seedServer) listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	go func() {
		defer close(s.done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				conn.Close()
				return
			}
			c := &seedClient{srv: s, conn: conn}
			s.clients[c] = struct{}{}
			s.mu.Unlock()
			go c.run()
		}
	}()
	return nil
}

func (s *seedServer) addr() string { return s.ln.Addr().String() }

func (s *seedServer) shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	var conns []net.Conn
	for c := range s.clients {
		conns = append(conns, c.conn)
	}
	s.mu.Unlock()
	s.ln.Close()
	<-s.done
	for _, c := range conns {
		c.Close()
	}
}

// route is the seed hot path: linear scan + per-delivery triple write.
func (s *seedServer) route(subject string, payload []byte) {
	s.mu.Lock()
	var direct []*seedSub
	queues := make(map[string][]*seedSub)
	for sub := range s.subs {
		if !broker.Match(subject, sub.pattern) {
			continue
		}
		if sub.queue == "" {
			direct = append(direct, sub)
		} else {
			key := sub.queue + " " + sub.pattern
			queues[key] = append(queues[key], sub)
		}
	}
	for _, members := range queues {
		direct = append(direct, members[s.rng.Intn(len(members))])
	}
	s.mu.Unlock()
	for _, sub := range direct {
		sub.client.deliver(subject, sub.sid, payload)
	}
}

func (c *seedClient) deliver(subject, sid string, payload []byte) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	fmt.Fprintf(c.conn, "MSG %s %s %d\r\n", subject, sid, len(payload))
	c.conn.Write(payload)
	io.WriteString(c.conn, "\r\n")
}

func (c *seedClient) sendLine(line string) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	io.WriteString(c.conn, line+"\r\n")
}

func (c *seedClient) run() {
	defer func() {
		c.conn.Close()
		c.srv.mu.Lock()
		delete(c.srv.clients, c)
		for sub := range c.srv.subs {
			if sub.client == c {
				delete(c.srv.subs, sub)
			}
		}
		c.srv.mu.Unlock()
	}()
	r := bufio.NewReaderSize(c.conn, 64*1024)
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		fields := strings.Fields(strings.TrimRight(line, "\r\n"))
		if len(fields) == 0 {
			continue
		}
		switch strings.ToUpper(fields[0]) {
		case "CONNECT":
		case "PING":
			c.sendLine("PONG")
		case "SUB":
			var pattern, queue, sid string
			switch len(fields) {
			case 3:
				pattern, sid = fields[1], fields[2]
			case 4:
				pattern, queue, sid = fields[1], fields[2], fields[3]
			default:
				continue
			}
			sub := &seedSub{client: c, pattern: pattern, queue: queue, sid: sid}
			c.srv.mu.Lock()
			c.srv.subs[sub] = struct{}{}
			c.srv.mu.Unlock()
		case "PUB":
			if len(fields) != 3 {
				continue
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil || n < 0 || n > broker.MaxPayload {
				return
			}
			payload := make([]byte, n)
			if _, err := io.ReadFull(r, payload); err != nil {
				return
			}
			if err := seedConsumeCRLF(r); err != nil {
				return
			}
			c.srv.route(fields[1], payload)
		}
	}
}

func seedConsumeCRLF(r *bufio.Reader) error {
	b, err := r.ReadByte()
	if err != nil {
		return err
	}
	if b == '\r' {
		if b, err = r.ReadByte(); err != nil {
			return err
		}
	}
	if b != '\n' {
		return errors.New("payload not terminated by CRLF")
	}
	return nil
}
