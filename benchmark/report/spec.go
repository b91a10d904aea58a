// Package report holds what every workload shares about results: the
// frozen metric tables (names, units, directions, bounds), the environment
// stamp, the result-file envelope, and the comparison of two result files.
package report

// Metric describes one reported number. Bound is the share of the baseline
// median by which an end-to-end metric may worsen before a change counts as
// a regression; per-layer metrics have none.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Workloads are the four frozen workload names with the reason each exists.
var Workloads = []struct{ Name, Why string }{
	{"fanout_small", "1 subject x 1000 sids x 128 B over raw connections: per-frame cost (fan-out loop, header pool, coalescing writer) dominates; match cache and client library idle"},
	{"routed_large", "broker.Client both sides, 4 KiB, 262144 Zipf subjects (exceeds the match cache), wildcard handlers, SUB/UNSUB churn: parse, trie, arena, writev, admission, client library"},
	{"mesh_hop", "two brokers joined by one route, fan-out 5 across the hop plus queue groups: RS+ interest, RMSG forward, inbound RMSG, dedup; single-broker workloads never enter route.go"},
	{"dds_sim", "in-process virtual time: seven candidate transports through dds/transport/wire/netem/sim under 5 % loss, plus the probe-features-ANN decision path the paper bounds"},
}

// EndToEnd is what a user of the system sees, and what a later change is
// gated on. Every workload reports every one of them, so only metrics with a
// meaning on all four workloads live here, and only those that repeat on the
// reference box: README.md records what ISSUE 12 listed and where it went.
var EndToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "latency_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "latency_p90_us", Unit: "us", Better: "lower", Bound: 0.25},
}

// Exact are the virtual-time results of dds_sim: functions of the seed
// alone, so for one seed any difference between two commits is a change of
// behaviour, not of speed.
var Exact = []string{
	"relate2", "reliability_pct", "dds.samples_lost", "dds.dropped_by_qos",
	"transport.recovered", "transport.duplicates", "transport.naks_sent", "transport.repairs_sent",
	"transport.repairs_useless", "transport.abandoned", "transport.max_buffered", "transport.useful_ratio",
	"transport.binding.drain_ms_p50", "netem.tx_packets", "netem.rx_packets", "netem.dropped_loss", "netem.dropped_queue",
}

// Demoted are the per-layer metrics ISSUE 12 wanted bounded and the
// reference box cannot hold steady; Compare lists them without a verdict.
var Demoted = []string{"deliveries_per_s", "cpu_us_per_delivery", "latency_p95_us", "latency_p99_us"}

func count(name string) Metric        { return Metric{Name: name, Unit: "count", Better: "lower"} }
func countUp(name string) Metric      { return Metric{Name: name, Unit: "count", Better: "higher"} }
func lower(name, unit string) Metric  { return Metric{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) Metric { return Metric{Name: name, Unit: unit, Better: "higher"} }

// PerLayer is filled by the traced run. A metric that does not apply to a
// workload (broker.* on dds_sim, dds.* on the broker workloads) reads 0
// there, which is the "predicted flat" column of README.md's table.
var PerLayer = []Metric{
	// Generator validity: a run with gen.late_share > 0.01 at the base
	// rate is invalid, not slow.
	lower("gen.late_share", "ratio"), lower("gen.max_lag_ms", "ms"), lower("gen.cpu_share", "ratio"),

	// Broker process, closed-loop phase.
	lower("broker.server.cpu_us_per_delivery", "us"), lower("broker.server.allocs_per_delivery", "count"),
	lower("broker.server.gc_pause_ms", "ms"), lower("broker.server.peak_rss_mb", "MB"),
	countUp("broker.server.msgs_in"), countUp("broker.server.msgs_out"), higher("broker.server.bytes_out", "B"),
	higher("broker.server.fanout_ratio", "ratio"), count("broker.server.slow_drops"), count("broker.server.slow_disconnects"),
	lower("broker.server.transit_ms_p50", "ms"), lower("broker.server.transit_ms_p99", "ms"),
	lower("broker.server.p50_ms_at_mid", "ms"), lower("broker.server.p99_ms_at_mid", "ms"),
	lower("broker.server.p50_ms_at_high", "ms"), lower("broker.server.p99_ms_at_high", "ms"),
	higher("sustained_rate_hz", "Hz"),

	lower("broker.link.sub_ping_rtt_ms_p50", "ms"), lower("broker.link.sub_ping_rtt_ms_p99", "ms"),
	lower("broker.link.pub_ping_rtt_ms_p50", "ms"), lower("broker.link.pub_ping_rtt_ms_p99", "ms"),
	count("broker.admission.waits"), count("broker.admission.timeouts"),

	lower("broker.sublist.sub_rtt_ms_p50", "ms"), lower("broker.sublist.sub_rtt_ms_p99", "ms"), countUp("broker.sublist.churn_ops"),

	lower("broker.client.publish_us_p50", "us"), lower("broker.client.publish_us_p99", "us"),
	lower("broker.client.flush_ms_p50", "ms"), lower("broker.client.allocs_per_msg", "count"), lower("broker.client.cpu_us_per_msg", "us"),

	lower("broker.route.hop_added_ms_p50", "ms"), lower("broker.route.hop_added_ms_p99", "ms"), lower("broker.route.interest_ms_p50", "ms"),
	countUp("broker.route.routed_msgs"), countUp("broker.route.remote_subs"), count("broker.route.dups_suppressed"), count("broker.route.queue_not_once"),
	lower("broker.route.origin_cpu_us_per_msg", "us"), lower("broker.route.edge_cpu_us_per_delivery", "us"),

	// Middleware stack, cell phase of dds_sim (host time unless marked
	// virtual).
	lower("dds.write_us_p50", "us"), lower("dds.write_us_p99", "us"), lower("dds.write_self_us_p50", "us"),
	count("dds.samples_lost"), count("dds.dropped_by_qos"),
	lower("transport.recv_us_p50", "us"),
	lower("transport.nakcast.wall_share", "ratio"), lower("transport.ricochet.wall_share", "ratio"), lower("transport.fountcast.wall_share", "ratio"),
	higher("transport.nakcast.deliveries_per_s", "1/s"), higher("transport.ricochet.deliveries_per_s", "1/s"), higher("transport.fountcast.deliveries_per_s", "1/s"),
	countUp("transport.recovered"), count("transport.duplicates"), count("transport.naks_sent"), count("transport.repairs_sent"),
	count("transport.repairs_useless"), count("transport.abandoned"), count("transport.max_buffered"), higher("transport.useful_ratio", "ratio"),
	lower("transport.binding.drain_ms_p50", "ms"),
	lower("relate2", "us"), higher("reliability_pct", "%"),

	lower("wire.encode_ns", "ns"), lower("wire.decode_ns", "ns"),
	lower("netem.send_us_p50", "us"), count("netem.calls"), lower("netem.self_share", "ratio"),
	countUp("netem.tx_packets"), countUp("netem.rx_packets"), count("netem.dropped_loss"), count("netem.dropped_queue"),
	count("sim.events"), lower("sim.ns_per_event", "ns"), higher("sim.events_per_s", "1/s"),
	higher("sim.sharded.events_per_s", "1/s"), countUp("sim.sharded.workers"),
	higher("storm_deliveries_per_s", "1/s"),

	// Decision path: one full Decide(), then its stages.
	lower("decision_p50_us", "us"), lower("decision_p99_us", "us"),
	lower("ann.run_ns_p50", "ns"), lower("core.select_ns_p50", "ns"), lower("probe.static_ns_p50", "ns"), lower("probe.real_us_p50", "us"),
	countUp("core.rebind_switches"), lower("rebind_apply_p50_us", "us"), lower("core.rebind_apply_us_p99", "us"),

	// Whole benchmark process (dds_sim) and the cost of looking.
	lower("proc.allocs_per_delivery", "count"), lower("proc.peak_rss_mb", "MB"), lower("proc.gc_cpu_share", "ratio"),
	lower("trace.overhead_pct", "%"),

	// Moved here from the end-to-end table by the demotion rule: on the
	// reference box their ten-run spreads pass 25 % in a bad hour
	// (README.md, "Noise"). Measured with the recorders off.
	higher("deliveries_per_s", "1/s"), lower("cpu_us_per_delivery", "us"),
	lower("latency_p95_us", "us"), lower("latency_p99_us", "us"),
}
