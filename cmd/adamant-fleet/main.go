// Command adamant-fleet is the broker scale harness: it multiplexes
// 100k+ mock subscribers over a handful of real TCP connections against
// an in-process broker, sweeps fan-out group size x publish rate x
// payload size, and writes fan-out throughput plus p50/p99/p99.9
// delivery latency into BENCH_broker.json. With -compare it also runs
// the like-for-like seed-broker comparison (current trie+coalescing
// core vs the pre-overhaul global-mutex broker on the same driver).
//
// Examples:
//
//	adamant-fleet                              # default sweep -> BENCH_broker.json
//	adamant-fleet -groups 1000,10000,100000 -payloads 16,128,1024
//	adamant-fleet -compare -v                  # include the seed speedup section
//	adamant-fleet -groups 200 -budget 100000   # quick smoke cell
//	adamant-fleet -mesh -mesh-brokers 3 -mesh-groups 1000  # cross-broker cells
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"adamant/internal/broker/bench"
	"adamant/internal/broker/fleet"
)

// fleetReport is the schema of BENCH_broker.json.
type fleetReport struct {
	GeneratedBy string `json:"generated_by"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	CPUs        int    `json:"cpus"`
	GOMAXPROCS  int    `json:"gomaxprocs"`

	// Notes spells out how to read the numbers: subscribers are mock
	// sids multiplexed over real conns on one box, the publisher, the
	// fleet, and the broker share the CPUs above, and a rate of 0 means
	// the publisher runs unpaced.
	Notes string `json:"notes"`

	// SeedComparison pairs the current broker against the pre-overhaul
	// seed broker on an identical 10k-subscription workload (present
	// only with -compare).
	SeedComparison *bench.Comparison `json:"seed_comparison,omitempty"`

	// LoadLatency is the open-loop load–latency section (present only
	// with -ll): the offered-rate ladder walked to the saturation knee.
	LoadLatency *loadLatency `json:"load_latency,omitempty"`

	// Mesh is the cross-broker federation section (present only with
	// -mesh): publisher pinned to broker 0 of an in-process full mesh,
	// subscribers split across the remaining brokers, so every delivery
	// crosses one inter-broker route.
	Mesh []fleet.MeshResult `json:"mesh,omitempty"`

	// Sweep is the fan-out grid: one cell per group size x payload size
	// x publish rate.
	Sweep []fleet.Result `json:"sweep"`
}

// loadLatency is the open-loop curve: p50/p99/p99.9 vs offered rate.
type loadLatency struct {
	Subscribers  int     `json:"subscribers"`
	PayloadBytes int     `json:"payload_bytes"`
	SecondsPerPt float64 `json:"seconds_per_point"`
	KneeP99Ms    float64 `json:"knee_p99_ms"`
	// RepeatsPerPt is how many times each ladder point ran; the
	// observation with the lowest p99 is the one recorded (external CPU
	// contention on a shared box only ever adds latency).
	RepeatsPerPt int `json:"repeats_per_point"`

	fleet.Sweep
}

func main() {
	var (
		groups   = flag.String("groups", "1000,10000,100000", "fan-out group sizes (comma list)")
		payloads = flag.String("payloads", "16,128,1024", "payload sizes in bytes (comma list)")
		rates    = flag.String("rates", "0", "publish rates in Hz, 0 = unpaced (comma list)")
		conns    = flag.Int("conns", 16, "real TCP connections the fleet multiplexes over")
		budget   = flag.Int("budget", 2_000_000, "target deliveries per sweep cell (messages = budget/group)")
		minMsgs  = flag.Int("min-msgs", 20, "floor on publishes per cell")
		seed     = flag.Int64("seed", 1, "broker rng seed")
		shards   = flag.Int("shards", 0, "routing shards (0 = broker default)")
		compare  = flag.Bool("compare", false, "also run the seed-broker comparison at 10k subscriptions")
		outPath  = flag.String("out", "BENCH_broker.json", "JSON report path")
		verbose  = flag.Bool("v", false, "progress logging")

		ll        = flag.Bool("ll", false, "run the open-loop load-latency rate sweep")
		llSubs    = flag.Int("ll-subs", 1000, "load-latency: fan-out group size")
		llPayload = flag.Int("ll-payload", 128, "load-latency: payload bytes")
		llRates   = flag.String("ll-rates", "500,1000,2000,4000,8000,16000,32000", "load-latency: offered-rate ladder in Hz (comma list)")
		llSeconds = flag.Float64("ll-seconds", 1.0, "load-latency: measured seconds per ladder point")
		llKneeMs  = flag.Float64("ll-knee-ms", 100, "load-latency: p99 bound that marks the saturation knee")
		llRepeats = flag.Int("ll-repeats", 3, "load-latency: repeats per ladder point (best p99 kept)")

		mesh        = flag.Bool("mesh", false, "run the cross-broker mesh cells (publisher and subscribers on different brokers)")
		meshBrokers = flag.Int("mesh-brokers", 3, "mesh: broker count (publisher on broker 0, subscribers on the rest)")
		meshGroups  = flag.String("mesh-groups", "1000", "mesh: total subscriber counts (comma list)")
		meshPayload = flag.Int("mesh-payload", 128, "mesh: payload bytes")
		meshRates   = flag.String("mesh-rates", "0,2000", "mesh: publish rates in Hz, 0 = unpaced (comma list)")
	)
	flag.Parse()

	progress := func(string, ...any) {}
	if *verbose {
		progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	groupList, err := parseIntList(*groups)
	if err != nil {
		fatal("-groups: %v", err)
	}
	payloadList, err := parseIntList(*payloads)
	if err != nil {
		fatal("-payloads: %v", err)
	}
	rateList, err := parseIntList(*rates)
	if err != nil {
		fatal("-rates: %v", err)
	}

	rep := fleetReport{
		GeneratedBy: "adamant-fleet",
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPUs:        runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Notes: "subscribers are mock sids multiplexed over `conns` real TCP connections; " +
			"publisher, fleet, and broker share the CPUs above, so deliveries/s is a " +
			"single-box number, not a cluster claim; latency is publish-stamp to " +
			"subscriber-read over loopback. Paced cells (rate_hz > 0) are open-loop: " +
			"stamps carry the intended send time, so publisher stalls count against " +
			"latency (no coordinated omission) and behind_schedule/max_send_lag_ms " +
			"report unsustained load. Unpaced cells (rate_hz 0) are closed-loop " +
			"throughput probes: stamps are actual send times, internal queueing " +
			"appears as latency, and their percentiles must not be read as " +
			"service latency under load — use the load_latency section for that. " +
			"Mesh cells add one in-process inter-broker route hop to every " +
			"delivery (publisher on broker 0, subscribers on the rest).",
	}

	if *compare {
		progress("seed comparison: 10000 subs, 100 subjects, 20 conns")
		cmp, err := bench.CompareFanout(10_000, 100, 20, 200, 128)
		if err != nil {
			fatal("seed comparison: %v", err)
		}
		progress("  current %.0f del/s, seed %.0f del/s, speedup %.2fx",
			cmp.Current.DeliveriesPerSec, cmp.Seed.DeliveriesPerSec, cmp.Speedup)
		rep.SeedComparison = &cmp
	}

	if *ll {
		rateLadder, err := parseIntList(*llRates)
		if err != nil {
			fatal("-ll-rates: %v", err)
		}
		sec := &loadLatency{
			Subscribers:  *llSubs,
			PayloadBytes: *llPayload,
			SecondsPerPt: *llSeconds,
			KneeP99Ms:    *llKneeMs,
			RepeatsPerPt: *llRepeats,
		}
		base := fleet.Config{
			Subscribers:  *llSubs,
			Conns:        *conns,
			PayloadBytes: *llPayload,
			Seed:         *seed,
			Shards:       *shards,
		}
		progress("load-latency sweep: %d subs, %dB payload", *llSubs, *llPayload)
		sec.Sweep, err = fleet.RateSweep(fleet.SweepConfig{
			Base: base, Rates: rateLadder, Seconds: *llSeconds, KneeP99Ms: *llKneeMs, Repeats: *llRepeats,
		}, progress)
		if err != nil {
			fatal("load-latency: %v", err)
		}
		rep.LoadLatency = sec
	}

	if *mesh {
		meshGroupList, err := parseIntList(*meshGroups)
		if err != nil {
			fatal("-mesh-groups: %v", err)
		}
		meshRateList, err := parseIntList(*meshRates)
		if err != nil {
			fatal("-mesh-rates: %v", err)
		}
		for _, g := range meshGroupList {
			for _, r := range meshRateList {
				msgs := max(*budget/g, *minMsgs)
				progress("mesh cell: brokers=%d group=%d payload=%dB rate=%dHz msgs=%d",
					*meshBrokers, g, *meshPayload, r, msgs)
				res, err := fleet.RunMesh(fleet.MeshConfig{
					Brokers:      *meshBrokers,
					Subscribers:  g,
					Conns:        *conns,
					PayloadBytes: *meshPayload,
					Messages:     msgs,
					RateHz:       r,
					Seed:         *seed,
					Shards:       *shards,
				})
				if err != nil {
					fatal("mesh cell brokers=%d group=%d rate=%d: %v", *meshBrokers, g, r, err)
				}
				progress("  %.0f deliveries/s, p50 %.3fms p99 %.3fms (%d routed, %d dups suppressed, %d dropped)",
					res.DeliveriesPerSec, res.LatencyP50Ms, res.LatencyP99Ms,
					res.RoutedMsgs, res.DupsSuppressed, res.Dropped)
				rep.Mesh = append(rep.Mesh, res)
			}
		}
	}

	for _, g := range groupList {
		for _, p := range payloadList {
			for _, r := range rateList {
				msgs := max(*budget/g, *minMsgs)
				progress("cell: group=%d payload=%dB rate=%dHz msgs=%d", g, p, r, msgs)
				res, err := fleet.Run(fleet.Config{
					Subscribers:  g,
					Conns:        *conns,
					PayloadBytes: p,
					Messages:     msgs,
					RateHz:       r,
					Seed:         *seed,
					Shards:       *shards,
				})
				if err != nil {
					fatal("cell group=%d payload=%d rate=%d: %v", g, p, r, err)
				}
				progress("  %.0f deliveries/s, p50 %.3fms p99 %.3fms p99.9 %.3fms (%d dropped)",
					res.DeliveriesPerSec, res.LatencyP50Ms, res.LatencyP99Ms, res.LatencyP999Ms, res.Dropped)
				rep.Sweep = append(rep.Sweep, res)
			}
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal("%v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*outPath, data, 0o644); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("wrote %s (%d sweep cells)\n", *outPath, len(rep.Sweep))
}

func parseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad entry %q", part)
		}
		if n < 0 {
			return nil, fmt.Errorf("negative entry %d", n)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "adamant-fleet: "+format+"\n", args...)
	os.Exit(1)
}
