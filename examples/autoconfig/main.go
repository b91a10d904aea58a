// Autoconfig: the complete ADAMANT startup loop on a real machine.
//
//  1. Probe this host's computing and networking resources
//     (/proc/cpuinfo, NIC speeds — the paper's ethtool step).
//
//  2. Load the supervised-learning knowledge base the repository ships
//     (data/adamant.ann, trained by adamant-train on data/training.csv).
//
//  3. Query the neural network for the transport protocol matching the
//     probed environment + application parameters — and time the decision.
//
//  4. Stand the chosen protocol up over REAL UDP sockets on loopback and
//     push traffic through it.
//
//     go run ./examples/autoconfig    # from the repository root
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"adamant/internal/core"
	"adamant/internal/dds"
	"adamant/internal/env"
	"adamant/internal/probe"
	"adamant/internal/transport"
	"adamant/internal/transport/protocols"
	"adamant/internal/udpnet"
	"adamant/internal/wire"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- 1. Probe the environment. ---
	info, err := probe.RealSource{}.Probe()
	if err != nil {
		return fmt.Errorf("probing host: %w", err)
	}
	fmt.Printf("probed environment: %s\n", info)

	// --- 2. Load the knowledge base. ---
	selector, err := core.LoadANNSelector("data/adamant.ann")
	if err != nil {
		return err
	}

	// --- 3. Decide. ---
	ctl, err := core.NewController(probe.StaticSource{Info: info}, selector, core.AppParams{
		Receivers: 3, RateHz: 25, LossPct: 2, Impl: dds.ImplB, Metric: core.MetricReLate2,
	})
	if err != nil {
		return err
	}
	decision, err := ctl.Decide()
	if err != nil {
		return err
	}
	fmt.Printf("environment features: %s\n", decision.Features)
	if at := decision.Features.Snapped(); at != decision.Features {
		fmt.Printf("answered at the nearest trained point: %s\n", at)
	}
	fmt.Printf("ADAMANT decision: %s (select time %v — bounded, single forward pass)\n",
		decision.Spec, decision.SelectTime)

	// --- 4. Run it over real UDP sockets. ---
	return runLive(decision.Spec)
}

// runLive stands up 1 writer + 3 readers over loopback UDP with the chosen
// transport and publishes two seconds of 25 Hz traffic.
func runLive(spec transport.Spec) error {
	fmt.Printf("\nstanding up live loopback cluster with %s...\n", spec)
	const readers = 3
	reg := protocols.MustRegistry()

	envs := make([]*env.RealEnv, readers+1)
	eps := make([]*udpnet.Endpoint, readers+1)
	for i := range envs {
		envs[i] = env.NewReal(int64(i + 1))
		ep, err := udpnet.New(envs[i], wire.NodeID(i), "127.0.0.1:0", nil)
		if err != nil {
			return err
		}
		eps[i] = ep
	}
	defer func() {
		for i := range envs {
			eps[i].Close()
			envs[i].Close()
		}
	}()
	for i, ep := range eps {
		for j, other := range eps {
			if i != j {
				ep.SetPeerAddr(wire.NodeID(j), other.LocalAddr())
			}
		}
	}
	receiverIDs := make([]wire.NodeID, readers)
	for i := range receiverIDs {
		receiverIDs[i] = wire.NodeID(i + 1)
	}
	receivers := transport.StaticReceivers(receiverIDs...)

	var sender transport.Sender
	onEnv(envs[0], func() {
		var err error
		sender, err = reg.NewSender(spec, transport.Config{
			Env: envs[0], Endpoint: eps[0], Stream: 1, Receivers: receivers,
		})
		if err != nil {
			log.Println("sender:", err)
		}
	})
	if sender == nil {
		return fmt.Errorf("sender construction failed")
	}
	var mu sync.Mutex
	var delivered int
	var totalLatency time.Duration
	for i := 1; i <= readers; i++ {
		i := i
		onEnv(envs[i], func() {
			if _, err := reg.NewReceiver(spec, transport.Config{
				Env: envs[i], Endpoint: eps[i], Stream: 1, SenderID: 0,
				Receivers: receivers,
				Deliver: func(d transport.Delivery) {
					mu.Lock()
					delivered++
					totalLatency += d.Latency()
					mu.Unlock()
				},
			}); err != nil {
				log.Println("receiver:", err)
			}
		})
	}

	const n = 50
	for k := 0; k < n; k++ {
		payload := []byte(fmt.Sprintf("live-sample-%02d", k))
		envs[0].Post(func() {
			if err := sender.Publish(payload); err != nil {
				log.Println("publish:", err)
			}
		})
		time.Sleep(40 * time.Millisecond) // 25 Hz
	}
	time.Sleep(300 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	avg := time.Duration(0)
	if delivered > 0 {
		avg = totalLatency / time.Duration(delivered)
	}
	fmt.Printf("live run: %d/%d deliveries across %d readers, mean latency %v\n",
		delivered, n*readers, readers, avg.Round(time.Microsecond))
	return nil
}

func onEnv(e *env.RealEnv, fn func()) {
	e.Post(fn)
	e.Barrier()
}
