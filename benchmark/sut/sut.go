// Package sut runs a broker as a child process of the benchmark binary, so
// that the broker's CPU time, allocations and resident memory are counted
// apart from the load generator's. Parent and child speak a line protocol
// over the child's standard input and output:
//
//	child:  READY <client address>
//	parent: STATS            child: one JSON Sample
//	parent: ROUTE <address>  child: OK
//	parent: QUIT (or EOF)    child shuts the broker down and exits
package sut

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"adamant/internal/broker"
)

// The broker options are constants of the benchmark. Shards and admission
// stay at the broker's defaults. Every mock sid of a workload shares one
// connection, so the write queue is sized for a 250 ms generator stall at
// the highest ladder rate (4500 Hz x 1000 sids = 1.1M frames would be the
// worst case; the closed-loop window bounds what is really outstanding), and
// an overflow is dropped and counted, never a disconnect.
const (
	writeQueueFrames = 1 << 19
	writeQueueBytes  = 512 << 20
)

// Sample is the child's view of itself at one instant.
type Sample struct {
	Stats broker.ServerStats `json:"stats"`
	// CPUMicros is user + system time of the whole child process.
	CPUMicros  int64  `json:"cpu_us"`
	MaxRSSKB   int64  `json:"max_rss_kb"`
	Mallocs    uint64 `json:"mallocs"`
	PauseNanos uint64 `json:"gc_pause_ns"`
	NumGC      uint32 `json:"num_gc"`
}

// ProcessCPU returns user + system CPU time and peak RSS of this process.
func ProcessCPU() (cpuMicros, maxRSSKB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) int64 { return int64(t.Sec)*1e6 + int64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime), int64(ru.Maxrss)
}

// ServeChild is the child's main: it serves one broker until told to quit.
func ServeChild(id string, seed int64, in io.Reader, out io.Writer) error {
	srv := broker.NewServer(
		broker.WithServerID(id),
		broker.WithSeed(seed),
		broker.WithWriteQueue(writeQueueFrames, writeQueueBytes),
		broker.WithSlowConsumerPolicy(broker.SlowConsumerDrop),
	)
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		return err
	}
	defer srv.Shutdown()
	w := bufio.NewWriter(out)
	reply := func(line string) error {
		if _, err := w.WriteString(line + "\n"); err != nil {
			return err
		}
		return w.Flush()
	}
	if err := reply("READY " + srv.Addr().String()); err != nil {
		return err
	}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		cmd, arg, _ := strings.Cut(sc.Text(), " ")
		switch cmd {
		case "STATS":
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			s := Sample{Stats: srv.Stats(), Mallocs: ms.Mallocs, PauseNanos: ms.PauseTotalNs, NumGC: ms.NumGC}
			s.CPUMicros, s.MaxRSSKB = ProcessCPU()
			b, err := json.Marshal(s)
			if err != nil {
				return err
			}
			if err := reply(string(b)); err != nil {
				return err
			}
		case "ROUTE":
			srv.AddRoute(arg)
			if err := reply("OK"); err != nil {
				return err
			}
		case "QUIT":
			return nil
		default:
			return fmt.Errorf("sut: unknown command %q", cmd)
		}
	}
	return sc.Err() // EOF: the parent is gone
}

// Broker is the parent's handle on one child.
type Broker struct {
	Addr string
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Reader
}

// Start launches exe (the benchmark binary itself) in the broker role and
// waits until the broker listens.
func Start(exe, id string, seed int64) (*Broker, error) {
	cmd := exec.Command(exe, "-role", "broker", "-id", id, "-seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	// Should this process die without a word, the kernel ends the child.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	b := &Broker{cmd: cmd, in: in, out: bufio.NewReader(out)}
	line, err := b.readLine()
	addr, ok := strings.CutPrefix(line, "READY ")
	if err != nil || !ok {
		b.Stop()
		return nil, fmt.Errorf("sut: broker %s did not come up: %q %v", id, line, err)
	}
	b.Addr = addr
	return b, nil
}

func (b *Broker) readLine() (string, error) {
	line, err := b.out.ReadString('\n')
	return strings.TrimSuffix(line, "\n"), err
}

func (b *Broker) request(cmd string) (string, error) {
	if _, err := io.WriteString(b.in, cmd+"\n"); err != nil {
		return "", fmt.Errorf("sut: %s: %w", cmd, err)
	}
	line, err := b.readLine()
	if err != nil {
		return "", fmt.Errorf("sut: %s: %w", cmd, err)
	}
	return line, nil
}

// Sample asks the child for its counters.
func (b *Broker) Sample() (Sample, error) {
	var s Sample
	line, err := b.request("STATS")
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal([]byte(line), &s)
}

// AddRoute tells the child to establish a route to the broker at addr.
func (b *Broker) AddRoute(addr string) error {
	_, err := b.request("ROUTE " + addr)
	return err
}

// WaitFor polls the child's counters until cond holds.
func (b *Broker) WaitFor(what string, cond func(broker.ServerStats) bool) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		s, err := b.Sample()
		if err != nil {
			return err
		}
		if cond(s.Stats) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sut: %s did not happen within 10s (stats %+v)", what, s.Stats)
		}
		time.Sleep(time.Millisecond)
	}
}

// Stop ends the child and waits for it; a child that ignores QUIT for five
// seconds is killed. Safe to call once per Start.
func (b *Broker) Stop() {
	io.WriteString(b.in, "QUIT\n") // a dead child is handled by Wait below
	b.in.Close()
	done := make(chan struct{})
	go func() {
		b.cmd.Wait() // exit status of a stopped broker carries no information
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		b.cmd.Process.Kill()
		<-done
	}
}
