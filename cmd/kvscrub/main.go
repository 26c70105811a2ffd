// Command kvscrub runs the background daemon (internal/scrub) against
// a kvserver cluster as a standalone sidecar: it periodically scans the
// whole keyspace and repairs each key — one probe, and writes only
// where a copy is missing — at a bounded rate so recovery traffic never
// starves foreground I/O. A server that crashes and rejoins empty is re-filled
// automatically — promptly, because the rpc pool's down-to-recovered
// transition kicks a pass outside the interval.
// Whenever the cluster membership changes (kvcli ring add/remove), the
// view drains the old ring until a pass has moved every key whose
// placement moved, within the same -scrub-rate budget, so ring changes
// converge without operator intervention — including one a kvcli run
// left unfinished.
//
//	kvscrub -servers host1:7001,host2:7001,... -mode era-ce-cd \
//	        -scrub-interval 5m -scrub-rate 1000
//
// With -once, kvscrub runs a single cycle, prints the report and exits
// non-zero if any key failed to converge (cron-friendly).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"ecstore/internal/core"
	"ecstore/internal/metrics"
	"ecstore/internal/scrub"
	"ecstore/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "kvscrub:", err)
		os.Exit(1)
	}
}

func run() error {
	servers := flag.String("servers", "127.0.0.1:7001", "comma-separated server addresses")
	mode := flag.String("mode", "era-ce-cd", "resilience mode: none|sync-rep|async-rep|era-ce-cd|era-se-sd|era-se-cd|hybrid")
	k := flag.Int("k", 3, "erasure data chunks K")
	m := flag.Int("m", 2, "erasure parity chunks M")
	replicas := flag.Int("replicas", 3, "replication factor F")
	opTimeout := flag.Duration("op-timeout", 0, "per-RPC deadline (0 = default 15s, negative disables)")
	scrubInterval := flag.Duration("scrub-interval", scrub.DefaultInterval, "period between scrub cycles")
	scrubRate := flag.Float64("scrub-rate", 0, "keyspace walk rate in keys/sec (0 = default 1000, negative disables throttling)")
	metricsAddr := flag.String("metrics-addr", "", "serve scrub + client Prometheus metrics at http://<addr>/metrics (empty = disabled)")
	once := flag.Bool("once", false, "run one cycle, print the report, exit (non-zero if keys failed)")
	flag.Parse()

	resilience, scheme, err := core.ParseMode(*mode)
	if err != nil {
		return err
	}
	client, err := core.New(core.Config{
		Network:    transport.TCP{},
		Servers:    strings.Split(*servers, ","),
		Resilience: resilience,
		Scheme:     scheme,
		K:          *k,
		M:          *m,
		Replicas:   *replicas,
		OpTimeout:  *opTimeout,
	})
	if err != nil {
		return err
	}
	defer client.Close()
	if *metricsAddr != "" {
		closeMetrics, err := metrics.Serve(*metricsAddr, client.Metrics())
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer closeMetrics()
		log.Printf("kvscrub metrics at http://%s/metrics", *metricsAddr)
	}

	daemon, err := scrub.New(scrub.Config{
		Client:   client,
		Interval: *scrubInterval,
		Rate:     *scrubRate,
		Metrics:  client.Metrics(),
		OnCycle:  func(r scrub.Report) { log.Printf("kvscrub: %s", r) },
		Logf:     log.Printf,
	})
	if err != nil {
		return err
	}
	if *once {
		report := daemon.RunCycle(nil)
		fmt.Println(report)
		if report.Err != nil {
			return report.Err
		}
		if report.Failed > 0 {
			return fmt.Errorf("%d keys failed to converge", report.Failed)
		}
		return nil
	}

	daemon.Start()
	defer daemon.Stop()
	log.Printf("kvscrub: scrubbing %d servers every %v (%s)", len(strings.Split(*servers, ",")), *scrubInterval, *mode)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	return nil
}
