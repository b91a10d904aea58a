// Bridge: conventional cloud pub/sub meets the QoS-enabled DRE stack.
//
// The paper positions JMS/WS-Notification-class brokers as what clouds
// offer out of the box — easy subject-based routing, but no fine-grained
// QoS or transport configurability. Real deployments therefore front DRE
// datacenters with a gateway: commodity feeds arrive over the broker,
// and a bridge republishes them into the ADAMANT-configured domain.
//
// This example runs, over real sockets on loopback:
//
//	city cameras --TCP--> NATS-style broker --bridge--> ANT transport --UDP--> fusion apps
//
// The bridge subscribes to the wildcard subject "city.cameras.>" and
// republishes every frame through the transport protocol ADAMANT selects:
// it probes this host, loads the shipped knowledge base (data/adamant.ann)
// and asks it, as examples/autoconfig does.
//
//	go run ./examples/bridge    # from the repository root
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"adamant/internal/broker"
	"adamant/internal/core"
	"adamant/internal/dds"
	"adamant/internal/env"
	"adamant/internal/probe"
	"adamant/internal/transport"
	"adamant/internal/transport/protocols"
	"adamant/internal/udpnet"
	"adamant/internal/wire"
)

const (
	cameras        = 3
	framesPerCam   = 10
	fusionReaders  = 3
	bridgeStreamID = 1
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- The commodity side: a broker and some cameras. ---
	srv := broker.NewServer()
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		return err
	}
	defer srv.Shutdown()
	addr := srv.Addr().String()
	fmt.Printf("broker up at %s\n", addr)

	// --- The DRE side: ADAMANT picks the transport, udpnet carries it. ---
	selector, err := core.LoadANNSelector("data/adamant.ann")
	if err != nil {
		return err
	}
	// The fusion domain's parameters, inside the space the knowledge base
	// was trained on: its least loss is 1 %.
	ctl, err := core.NewController(probe.RealSource{}, selector, core.AppParams{
		Receivers: fusionReaders, RateHz: 25, LossPct: 1, Impl: dds.ImplB, Metric: core.MetricReLate2,
	})
	if err != nil {
		return err
	}
	decision, err := ctl.Decide()
	if err != nil {
		return err
	}
	spec := decision.Spec
	fmt.Printf("environment features: %s\n", decision.Features)
	if at := decision.Features.Snapped(); at != decision.Features {
		fmt.Printf("answered at the nearest trained point: %s\n", at)
	}
	fmt.Printf("ADAMANT-selected transport for the fusion domain: %s\n\n", spec)
	reg := protocols.MustRegistry()

	envs := make([]*env.RealEnv, fusionReaders+1)
	eps := make([]*udpnet.Endpoint, fusionReaders+1)
	for i := range envs {
		envs[i] = env.NewReal(int64(i + 1))
		ep, err := udpnet.New(envs[i], wire.NodeID(i), "127.0.0.1:0", nil)
		if err != nil {
			return err
		}
		eps[i] = ep
		defer ep.Close()
		defer envs[i].Close()
	}
	for i, ep := range eps {
		for j, other := range eps {
			if i != j {
				ep.SetPeerAddr(wire.NodeID(j), other.LocalAddr())
			}
		}
	}
	receiverIDs := make([]wire.NodeID, fusionReaders)
	for i := range receiverIDs {
		receiverIDs[i] = wire.NodeID(i + 1)
	}
	receivers := transport.StaticReceivers(receiverIDs...)

	// Fusion readers in the DRE domain.
	var mu sync.Mutex
	received := make([]int, fusionReaders)
	for i := 1; i <= fusionReaders; i++ {
		i := i
		onEnv(envs[i], func() {
			if _, err := reg.NewReceiver(spec, transport.Config{
				Env: envs[i], Endpoint: eps[i], Stream: bridgeStreamID, SenderID: 0,
				Receivers: receivers,
				Deliver: func(d transport.Delivery) {
					mu.Lock()
					received[i-1]++
					mu.Unlock()
				},
			}); err != nil {
				log.Println("receiver:", err)
			}
		})
	}

	// The bridge: broker subscriber -> ANT sender on node 0.
	var sender transport.Sender
	onEnv(envs[0], func() {
		var err error
		sender, err = reg.NewSender(spec, transport.Config{
			Env: envs[0], Endpoint: eps[0], Stream: bridgeStreamID, Receivers: receivers,
		})
		if err != nil {
			log.Println("sender:", err)
		}
	})
	if sender == nil {
		return fmt.Errorf("bridge sender construction failed")
	}
	gw, err := broker.Dial(addr)
	if err != nil {
		return err
	}
	defer gw.Close()
	var bridged int
	if _, err := gw.Subscribe("city.cameras.>", func(m broker.Msg) {
		payload := append([]byte(m.Subject+"|"), m.Data...)
		envs[0].Post(func() {
			if err := sender.Publish(payload); err != nil {
				log.Println("bridge publish:", err)
			}
		})
		mu.Lock()
		bridged++
		mu.Unlock()
	}); err != nil {
		return err
	}
	if err := gw.Flush(time.Second); err != nil {
		return err
	}

	// Cameras publish frames to the broker.
	for cam := 0; cam < cameras; cam++ {
		client, err := broker.Dial(addr)
		if err != nil {
			return err
		}
		defer client.Close()
		subject := fmt.Sprintf("city.cameras.cam%d", cam)
		for f := 0; f < framesPerCam; f++ {
			if err := client.Publish(subject, []byte(fmt.Sprintf("frame-%02d", f))); err != nil {
				return err
			}
		}
		if err := client.Flush(time.Second); err != nil {
			return err
		}
	}

	// Wait for everything to traverse broker -> bridge -> transport.
	want := cameras * framesPerCam
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		done := bridged == want
		for _, n := range received {
			done = done && n == want
		}
		mu.Unlock()
		if done {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	fmt.Printf("cameras published:  %d frames over TCP to the broker\n", want)
	fmt.Printf("bridge republished: %d frames into the DRE domain (%s)\n", bridged, spec)
	for i, n := range received {
		fmt.Printf("fusion reader %d:    %d frames delivered over UDP\n", i+1, n)
	}
	st := srv.Stats()
	fmt.Printf("\nbroker stats: %d connections, %d msgs in, %d msgs out\n",
		st.Connections, st.MsgsIn, st.MsgsOut)
	return nil
}

func onEnv(e *env.RealEnv, fn func()) {
	e.Post(fn)
	e.Barrier()
}
