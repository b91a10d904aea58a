// Command adamant-broker runs the NATS-style pub/sub broker used by the
// real-network examples (the "conventional cloud pub/sub" contrast to the
// QoS-enabled DDS/ANT stack).
//
//	adamant-broker -addr :4222
//	adamant-broker -queue-frames 32768 -slow-policy drop
//	adamant-broker -admission-bytes 67108864 -admission-timeout 2s
//
// Brokers federate into a full mesh: give each broker a cluster
// listener and at least one seed route, and gossip completes the mesh.
//
//	adamant-broker -addr :4222 -cluster-listen :6222
//	adamant-broker -addr :4223 -cluster-listen :6223 -routes localhost:6222
//
// SIGINT/SIGTERM trigger a graceful drain: the broker stops accepting,
// flushes every client's queued deliveries (bounded by -drain-timeout),
// and prints the final ServerStats.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"adamant/internal/broker"
)

func main() {
	addr := flag.String("addr", ":4222", "listen address")
	seed := flag.Int64("seed", 0, "queue-group rng seed (0 = time-based)")
	queueFrames := flag.Int("queue-frames", 0, "per-client outbound queue bound in frames (0 = default)")
	queueBytes := flag.Int64("queue-bytes", 0, "per-client outbound queue bound in bytes (0 = default)")
	slowPolicy := flag.String("slow-policy", "disconnect", "slow-consumer policy: disconnect or drop")
	admissionBytes := flag.Int64("admission-bytes", 0, "publish-admission window in queued bytes (0 = default 32MiB, -1 = disabled)")
	admissionTimeout := flag.Duration("admission-timeout", 0, "max time a publish batch parks on admission (0 = default 1s)")
	serverID := flag.String("server-id", "", "server ID for the route handshake (default: unique per process)")
	clusterListen := flag.String("cluster-listen", "", "dedicated listener for inter-broker routes (empty = routes share -addr)")
	clusterAdvertise := flag.String("cluster-advertise", "", "address gossiped to peers (default: -cluster-listen if set)")
	routes := flag.String("routes", "", "comma-separated seed route addresses to dial")
	heartbeat := flag.Duration("route-heartbeat", 0, "route heartbeat interval (0 = default 500ms)")
	suspect := flag.Duration("route-suspect", 0, "route silence bound before teardown (0 = default 2s)")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "max time to drain client queues on shutdown (0 = abrupt)")
	flag.Parse()

	var opts []broker.Option
	if *seed != 0 {
		opts = append(opts, broker.WithSeed(*seed))
	}
	if *queueFrames > 0 || *queueBytes > 0 {
		opts = append(opts, broker.WithWriteQueue(*queueFrames, *queueBytes))
	}
	if *admissionBytes != 0 || *admissionTimeout > 0 {
		opts = append(opts, broker.WithPublishAdmission(*admissionBytes, *admissionTimeout))
	}
	switch *slowPolicy {
	case "disconnect":
		opts = append(opts, broker.WithSlowConsumerPolicy(broker.SlowConsumerDisconnect))
	case "drop":
		opts = append(opts, broker.WithSlowConsumerPolicy(broker.SlowConsumerDrop))
	default:
		fmt.Fprintf(os.Stderr, "adamant-broker: -slow-policy must be disconnect or drop, got %q\n", *slowPolicy)
		os.Exit(1)
	}
	if *serverID != "" {
		opts = append(opts, broker.WithServerID(*serverID))
	}
	if adv := *clusterAdvertise; adv != "" {
		opts = append(opts, broker.WithClusterAdvertise(adv))
	} else if *clusterListen != "" {
		opts = append(opts, broker.WithClusterAdvertise(*clusterListen))
	}
	if *heartbeat > 0 || *suspect > 0 {
		opts = append(opts, broker.WithRouteHeartbeat(*heartbeat, *suspect))
	}

	srv := broker.NewServer(opts...)
	if err := srv.ListenAndServe(*addr); err != nil {
		fmt.Fprintln(os.Stderr, "adamant-broker:", err)
		os.Exit(1)
	}
	fmt.Printf("adamant-broker %s listening on %s\n", srv.ID(), srv.Addr())
	if *clusterListen != "" {
		if err := srv.ListenRoutes(*clusterListen); err != nil {
			fmt.Fprintln(os.Stderr, "adamant-broker:", err)
			os.Exit(1)
		}
		fmt.Printf("adamant-broker cluster listener on %s\n", srv.RouteAddr())
	}
	for _, r := range strings.Split(*routes, ",") {
		if r = strings.TrimSpace(r); r != "" {
			srv.AddRoute(r)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("adamant-broker: draining...")
	srv.DrainShutdown(*drainTimeout)
	st := srv.Stats()
	fmt.Printf("shut down: %d connections, %d msgs in (%d bytes), %d msgs out (%d bytes), %d subs, %d slow drops, %d evictions, %d admission waits (%d timeouts), %d routes, %d remote subs, %d routed, %d dups suppressed\n",
		st.Connections, st.MsgsIn, st.BytesIn, st.MsgsOut, st.BytesOut,
		st.Subscriptions, st.SlowConsumerDrops, st.SlowConsumerDisconnects,
		st.AdmissionWaits, st.AdmissionTimeouts,
		st.Routes, st.RemoteSubs, st.RoutedMsgs, st.DupsSuppressed)
}
