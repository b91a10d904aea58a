package chaos

import "time"

// Library returns the canonical scenario set, in fixed order. Every
// scenario's faults fit inside a 4-second publishing window and — except
// for the permanent crashes of cascade, sender-crash and crash-under-loss,
// and the loss the last two hold through the tail — heal by 3.3s, leaving
// the tail of the run for recovery protocols to converge.
//
// The scripts are receiver-count generic: single-receiver targets are
// taken modulo the group size and EvenReceivers adapts to any group.
func Library() []Scenario {
	return []Scenario{
		CalmControl(),
		FlakyReceiver(),
		SplitBrain(),
		LossyRamp(),
		SlowNode(),
		Cascade(),
		SenderBlip(),
		Churn(),
		SenderCrash(),
		CrashUnderLoss(),
	}
}

// CalmControl is the empty script: no faults at all. Every invariant must
// hold trivially and every protocol must deliver 100%; it catches harness
// and checker regressions.
func CalmControl() Scenario {
	return Scenario{
		Name: "calm-control",
		Info: "no faults; every protocol must be perfect",
	}
}

// FlakyReceiver flaps receiver 0's link four times (200 ms outages), then
// subjects it to a Gilbert-Elliott burst-loss window. It exercises
// repeated short partitions and bursty loss on a single group member.
func FlakyReceiver() Scenario {
	ms := time.Millisecond
	ev := []Event{}
	for _, start := range []time.Duration{400 * ms, 900 * ms, 1400 * ms, 1900 * ms} {
		ev = append(ev,
			Event{At: start, Kind: KindPartition, Target: Receiver(0)},
			Event{At: start + 200*ms, Kind: KindHeal, Target: Receiver(0)},
		)
	}
	ev = append(ev,
		Event{At: 2400 * ms, Kind: KindBurst, Target: Receiver(0), PGB: 0.02, PBG: 0.25, DropBad: 1.0},
		Event{At: 3200 * ms, Kind: KindBurstOff, Target: Receiver(0)},
	)
	return Scenario{
		Name:   "flaky-receiver",
		Info:   "receiver 0 link flaps 4x200ms then a burst-loss window",
		Events: ev,
	}
}

// SplitBrain partitions half the receivers (the even-indexed ones) for
// 1.1 seconds. Reliable protocols must backfill everything the partitioned
// half missed after the heal.
func SplitBrain() Scenario {
	ms := time.Millisecond
	return Scenario{
		Name: "split-brain",
		Info: "even receivers partitioned 0.5s-1.6s, then healed",
		Events: []Event{
			{At: 500 * ms, Kind: KindPartition, Target: EvenReceivers()},
			{At: 1600 * ms, Kind: KindHeal, Target: EvenReceivers()},
		},
	}
}

// LossyRamp ramps uniform end-host loss on every receiver up to 30% and
// back down to zero — the paper's loss axis swept within one run.
func LossyRamp() Scenario {
	ms := time.Millisecond
	steps := []struct {
		at  time.Duration
		pct float64
	}{
		{300 * ms, 5}, {800 * ms, 12}, {1300 * ms, 20}, {1800 * ms, 30},
		{2300 * ms, 20}, {2700 * ms, 10}, {3100 * ms, 0},
	}
	ev := make([]Event, len(steps))
	for i, s := range steps {
		ev[i] = Event{At: s.at, Kind: KindLoss, Target: AllReceivers(), Pct: s.pct}
	}
	return Scenario{
		Name:   "lossy-ramp",
		Info:   "uniform loss ramps 0->30%->0 on all receivers",
		Events: ev,
	}
}

// SlowNode squeezes receiver 0's CPU by 8x for two seconds, modeling a
// noisy-neighbor or thermally throttled cloud node.
func SlowNode() Scenario {
	ms := time.Millisecond
	return Scenario{
		Name: "slow-node",
		Info: "receiver 0 CPU 8x slower 0.4s-2.4s",
		Events: []Event{
			{At: 400 * ms, Kind: KindCPUScale, Target: Receiver(0), Scale: 8},
			{At: 2400 * ms, Kind: KindCPUScale, Target: Receiver(0), Scale: 1},
		},
	}
}

// Cascade crashes receivers 0, 1 and 2 in sequence, permanently. Survivors
// must keep all their guarantees and membership must evict the dead.
func Cascade() Scenario {
	ms := time.Millisecond
	return Scenario{
		Name: "cascade",
		Info: "receivers 0,1,2 crash at 0.8s/1.2s/1.6s and stay down",
		Events: []Event{
			{At: 800 * ms, Kind: KindCrash, Target: Receiver(0)},
			{At: 1200 * ms, Kind: KindCrash, Target: Receiver(1)},
			{At: 1600 * ms, Kind: KindCrash, Target: Receiver(2)},
		},
	}
}

// SenderBlip partitions the sender twice for 300 ms and 250 ms. Receivers
// see total silence (no data, no heartbeats) and must neither diverge nor
// give up before the sender returns.
func SenderBlip() Scenario {
	ms := time.Millisecond
	return Scenario{
		Name: "sender-blip",
		Info: "sender partitioned 0.9s-1.2s and 2.0s-2.25s",
		Events: []Event{
			{At: 900 * ms, Kind: KindPartition, Target: Sender()},
			{At: 1200 * ms, Kind: KindHeal, Target: Sender()},
			{At: 2000 * ms, Kind: KindPartition, Target: Sender()},
			{At: 2250 * ms, Kind: KindHeal, Target: Sender()},
		},
	}
}

// Churn rotates 200 ms partitions across the receiver set and finishes
// with a group-wide burst-loss window: constant low-grade turbulence with
// no permanent damage.
func Churn() Scenario {
	ms := time.Millisecond
	ev := []Event{}
	flaps := []struct {
		idx   int
		start time.Duration
	}{
		{0, 600 * ms}, {1, 1000 * ms}, {2, 1400 * ms}, {0, 1800 * ms}, {1, 2200 * ms},
	}
	for _, f := range flaps {
		ev = append(ev,
			Event{At: f.start, Kind: KindPartition, Target: Receiver(f.idx)},
			Event{At: f.start + 200*ms, Kind: KindHeal, Target: Receiver(f.idx)},
		)
	}
	ev = append(ev,
		Event{At: 2600 * ms, Kind: KindBurst, Target: AllReceivers(), PGB: 0.01, PBG: 0.3, DropBad: 0.9},
		Event{At: 3000 * ms, Kind: KindBurstOff, Target: AllReceivers()},
	)
	return Scenario{
		Name:   "churn",
		Info:   "rotating 200ms receiver partitions plus a burst window",
		Events: ev,
	}
}

// SenderCrash crashes the sender for good at 1 s, under 5% loss on every
// receiver. A 30% loss spike from 0.9 s to 1.1 s leaves gaps open when the
// crash lands, so receivers must give up on what no one can repair
// without stalling or retrying forever.
func SenderCrash() Scenario {
	ms := time.Millisecond
	return Scenario{
		Name: "sender-crash",
		Info: "5% loss, 30% at 0.9s-1.1s; sender crashes at 1s and stays down",
		Events: []Event{
			{Kind: KindLoss, Target: AllReceivers(), Pct: 5},
			{At: 900 * ms, Kind: KindLoss, Target: AllReceivers(), Pct: 30},
			{At: 1000 * ms, Kind: KindCrash, Target: Sender()},
			{At: 1100 * ms, Kind: KindLoss, Target: AllReceivers(), Pct: 5},
		},
	}
}

// CrashUnderLoss crashes receiver 3 for good at 1 s while every receiver
// loses 5% of its packets: survivors keep recovering without the dead
// peer, and membership must evict it despite the loss.
func CrashUnderLoss() Scenario {
	return Scenario{
		Name: "crash-under-loss",
		Info: "5% loss on all receivers; receiver 3 crashes at 1s and stays down",
		Events: []Event{
			{Kind: KindLoss, Target: AllReceivers(), Pct: 5},
			{At: time.Second, Kind: KindCrash, Target: Receiver(3)},
		},
	}
}
