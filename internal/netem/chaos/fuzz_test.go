package chaos

import (
	"encoding/binary"
	"testing"
	"time"

	"adamant/internal/env"
	"adamant/internal/netem"
	"adamant/internal/sim"
	"adamant/internal/transport"
	"adamant/internal/transport/nakcast"
)

// eventsFromBytes decodes a fuzz input into a fault script. Each event
// consumes 8 bytes; times land in [0, 2s] and numeric knobs in their valid
// ranges, but kinds and roles deliberately range one past the valid enums
// so the fuzzer also exercises Schedule's rejection path.
func eventsFromBytes(data []byte) []Event {
	var evs []Event
	for len(data) >= 8 && len(evs) < 64 {
		at := time.Duration(binary.BigEndian.Uint16(data[:2])) * 2 * time.Second / (1 << 16)
		evs = append(evs, Event{
			At:      at,
			Kind:    Kind(data[2] % (uint8(maxKind) + 2)),
			Target:  Target{Role: Role(data[3] % (uint8(maxRole) + 2)), Index: int(data[4])},
			Pct:     float64(data[5]) * 100 / 255,
			Scale:   0.25 + float64(data[5])/16,
			PGB:     float64(data[6]) / 255,
			PBG:     float64(data[7]) / 255,
			DropBad: float64(data[6]) / 255,
		})
		data = data[8:]
	}
	return evs
}

// FuzzSchedule throws arbitrary fault scripts at a small reliable-transport
// world: whatever the ordering and timing of partitions, crashes, restarts,
// loss and CPU squeezes, the simulation must never panic and must always
// quiesce within the event budget once the publisher closes. An event-limit
// error here means a fault sequence drove a protocol or the engine into a
// livelock — exactly the class of bug the crucible exists to catch.
func FuzzSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 100, 1, 2, 0, 50, 10, 10}) // one partition
	f.Add([]byte{
		0, 50, 6, 2, 0, 0, 0, 0, // crash receiver 0
		0, 99, 7, 2, 0, 0, 0, 0, // restart it
		1, 0, 6, 1, 0, 0, 0, 0, // crash the sender
	})
	f.Add([]byte{
		0, 10, 3, 3, 0, 255, 0, 0, // 100% loss everywhere
		2, 0, 3, 3, 0, 0, 0, 0, // back to zero
		3, 0, 4, 4, 0, 9, 200, 7, // burst on the even half
		0, 1, 8, 2, 1, 255, 0, 0, // CPU squeeze
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := Scenario{Name: "fuzz", Events: eventsFromBytes(data)}
		kernel := sim.New(11)
		kernel.SetEventLimit(3_000_000)
		e := env.NewSim(kernel)
		network, err := netem.New(e, netem.Config{})
		if err != nil {
			t.Fatal(err)
		}
		n := Nodes{Sender: network.AddNode(netem.PC3000)}
		for i := 0; i < 2; i++ {
			n.Receivers = append(n.Receivers, network.AddNode(netem.PC3000))
		}
		if _, err := Schedule(n, sc); err != nil {
			return // invalid scripts are rejected up front, never armed
		}

		// A reliable transport on top: fault sequences must not wedge its
		// retry machinery either.
		opts, err := nakcast.ParseOptions(transport.Params{"timeout": "5ms"})
		if err != nil {
			t.Fatal(err)
		}
		for _, node := range n.Receivers {
			if _, err := nakcast.NewReceiver(transport.Config{
				Env: e, Endpoint: node, Stream: 1, SenderID: n.Sender.Local(),
				Deliver: func(transport.Delivery) {},
			}, opts); err != nil {
				t.Fatal(err)
			}
		}
		sender, err := nakcast.NewSender(transport.Config{
			Env: e, Endpoint: n.Sender, Stream: 1,
		}, opts)
		if err != nil {
			t.Fatal(err)
		}
		const samples = 50
		published := 0
		var tick func()
		tick = func() {
			if published >= samples {
				if err := sender.Close(); err != nil {
					t.Error(err)
				}
				return
			}
			published++
			if err := sender.Publish([]byte{byte(published)}); err != nil {
				t.Error(err)
				return
			}
			e.After(5*time.Millisecond, tick)
		}
		e.Post(tick)

		if err := kernel.Run(); err != nil {
			t.Fatalf("simulation did not quiesce: %v", err)
		}
		if pending := kernel.Pending(); pending != 0 {
			t.Fatalf("%d events still pending after Run", pending)
		}
	})
}
