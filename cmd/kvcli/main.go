// Command kvcli is a command-line client for a kvserver cluster.
//
// Usage:
//
//	kvcli -servers host1:7001,host2:7001,... [-mode era-ce-cd] <command> [args]
//
// Commands:
//
//	set <key> <value>     store a value (value read from the argument)
//	setfile <key> <path>  store a file's contents
//	get <key>             print a value
//	del <key>             delete a key
//	stats [full]          print per-server store statistics ("full"
//	                      adds every server and client metric)
//	ping                  check liveness of every server (fails
//	                      naming the servers that are down)
//	repair <key>          restore full chunk/replica redundancy (a
//	                      report with missing=0 attests it: every
//	                      copy present, a stripe's parity consistent)
//	scan                  list every logical key in the cluster
//	ring status           print each server's membership view and the
//	                      rings it still drains (epoch disagreement =
//	                      propagation lag)
//	ring add <addr>       publish a view with addr joined, then run one
//	                      pass that rebalances data onto it
//	ring remove <addr>    publish a view with addr removed, then run one
//	                      pass that moves its data to the surviving
//	                      placement (ring add/remove run the one
//	                      background pass, internal/scrub, paced by
//	                      -scrub-rate, a page of keys at a time; a clean
//	                      pass clears the view's draining rings, and
//	                      `kvscrub -once` finishes a drain a pass left
//	                      open)
//	bench <n> <size>      time n Set+Get round trips of `size` bytes
//
// Modes: none, sync-rep, async-rep, era-ce-cd, era-se-sd, era-se-cd,
// hybrid.
//
// One anti-entropy cycle (scan, repair) is `kvscrub -once`.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"ecstore/internal/core"
	"ecstore/internal/membership"
	"ecstore/internal/metrics"
	"ecstore/internal/scrub"
	"ecstore/internal/stats"
	"ecstore/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "kvcli:", err)
		os.Exit(1)
	}
}

func run() error {
	servers := flag.String("servers", "127.0.0.1:7001", "comma-separated server addresses")
	mode := flag.String("mode", "era-ce-cd", "resilience mode")
	k := flag.Int("k", 3, "erasure data chunks K")
	m := flag.Int("m", 2, "erasure parity chunks M")
	replicas := flag.Int("replicas", 3, "replication factor F")
	opTimeout := flag.Duration("op-timeout", 0, "per-RPC deadline (0 = default 15s, negative disables)")
	retries := flag.Int("retries", 0, "max retries of idempotent reads (0 = default 2, negative disables)")
	retryBackoff := flag.Duration("retry-backoff", 0, "initial retry backoff, doubling with jitter (0 = default 10ms)")
	metricsAddr := flag.String("metrics-addr", "", "serve client-side Prometheus metrics at http://<addr>/metrics (empty = disabled)")
	scrubRate := flag.Float64("scrub-rate", 0, "ring add/remove keyspace walk rate in keys/sec (0 = default 1000, negative disables throttling)")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		return fmt.Errorf("missing command")
	}

	resilience, scheme, err := core.ParseMode(*mode)
	if err != nil {
		return err
	}
	client, err := core.New(core.Config{
		Network:      transport.TCP{},
		Servers:      strings.Split(*servers, ","),
		Resilience:   resilience,
		Scheme:       scheme,
		K:            *k,
		M:            *m,
		Replicas:     *replicas,
		OpTimeout:    *opTimeout,
		MaxRetries:   *retries,
		RetryBackoff: *retryBackoff,
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
	}

	switch args[0] {
	case "set":
		if len(args) != 3 {
			return fmt.Errorf("usage: set <key> <value>")
		}
		return client.Set(args[1], []byte(args[2]))
	case "setfile":
		if len(args) != 3 {
			return fmt.Errorf("usage: setfile <key> <path>")
		}
		data, err := os.ReadFile(args[2])
		if err != nil {
			return err
		}
		return client.Set(args[1], data)
	case "get":
		if len(args) != 2 {
			return fmt.Errorf("usage: get <key>")
		}
		v, err := client.Get(args[1])
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(append(v, '\n'))
		return err
	case "del":
		if len(args) != 2 {
			return fmt.Errorf("usage: del <key>")
		}
		return client.Delete(args[1])
	case "stats":
		// `stats` prints the one-line store summary per server;
		// `stats full` adds every server-side metric (counters, gauges,
		// latency histograms) below each line, plus the client's own.
		// Every server is asked in one round.
		full := len(args) > 1 && args[1] == "full"
		for _, srv := range client.StatsOf(strings.Split(*servers, ",")...) {
			if srv.Err != nil {
				fmt.Printf("%-24s DOWN (%v)\n", srv.Addr, srv.Err)
				continue
			}
			fmt.Printf("%-24s items=%d used=%dB hits=%d misses=%d evictions=%d\n",
				srv.Addr, srv.Items, srv.UsedBytes, srv.Hits, srv.Misses, srv.Evictions)
			if !full {
				continue
			}
			for _, line := range strings.Split(srv.Metrics.String(), "\n") {
				fmt.Printf("  %s\n", line)
			}
		}
		if full {
			fmt.Println("client:")
			for _, line := range strings.Split(client.Metrics().Snapshot().String(), "\n") {
				fmt.Printf("  %s\n", line)
			}
		}
		return nil
	case "ping":
		// One round to every server; the error names each one down.
		addrs := strings.Split(*servers, ",")
		if err := client.Ping(addrs...); err != nil {
			return err
		}
		fmt.Printf("ok (%d servers)\n", len(addrs))
		return nil
	case "repair":
		if len(args) != 2 {
			return fmt.Errorf("usage: repair <key>")
		}
		report, err := client.Repair(args[1])
		if err != nil {
			return err
		}
		fmt.Println(report)
		return nil
	case "scan":
		keys, err := client.ScanKeys()
		if err != nil {
			return err
		}
		for _, k := range keys {
			fmt.Println(k)
		}
		fmt.Fprintf(os.Stderr, "%d keys\n", len(keys))
		return nil
	case "ring":
		if len(args) < 2 {
			return fmt.Errorf("usage: ring status | ring add <addr> | ring remove <addr>")
		}
		return ringCmd(client, args[1:], *scrubRate)
	case "bench":
		if len(args) != 3 {
			return fmt.Errorf("usage: bench <n> <size>")
		}
		n, err := strconv.Atoi(args[1])
		if err != nil {
			return err
		}
		size, err := strconv.Atoi(args[2])
		if err != nil {
			return err
		}
		return bench(client, n, size)
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}

// ringCmd is the membership admin surface: status prints each server's
// view; add/remove publish a new epoch and then run one background pass
// synchronously, printing its report.
func ringCmd(client *core.Client, args []string, rate float64) error {
	switch args[0] {
	case "status":
		if _, err := client.RefreshView(); err != nil {
			fmt.Fprintf(os.Stderr, "refresh: %v\n", err)
		}
		fmt.Printf("%-24s %s (client view)\n", "-", viewLine(client.View()))
		for _, st := range client.RingStatus() {
			if st.Err != nil {
				fmt.Printf("%-24s DOWN (%v)\n", st.Addr, st.Err)
				continue
			}
			fmt.Printf("%-24s %s\n", st.Addr, viewLine(st.View))
		}
		return nil
	case "add", "remove":
		if len(args) != 2 {
			return fmt.Errorf("usage: ring %s <addr>", args[0])
		}
		change := client.RingAdd
		if args[0] == "remove" {
			change = client.RingRemove
		}
		installed, err := change(args[1])
		if err != nil {
			return err
		}
		fmt.Printf("installed epoch %d: %s\n", installed.Epoch, strings.Join(installed.Servers, ","))
		daemon, err := scrub.New(scrub.Config{
			Client:  client,
			Rate:    rate,
			Metrics: client.Metrics(),
			Logf:    func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) },
		})
		if err != nil {
			return err
		}
		report := daemon.RunCycle(nil)
		fmt.Println(report)
		switch view := client.View(); {
		case report.Err != nil:
		case report.Failed > 0:
			report.Err = fmt.Errorf("%d keys failed to converge", report.Failed)
		case len(view.Draining) > 0:
			report.Err = fmt.Errorf("epoch %d still drains", view.Epoch)
		}
		if report.Err != nil {
			return fmt.Errorf("%w; the view keeps draining, and `kvscrub -once` finishes the drain", report.Err)
		}
		return nil
	default:
		return fmt.Errorf("usage: ring status | ring add <addr> | ring remove <addr>")
	}
}

// viewLine renders a view for ring status: its epoch, its servers and,
// while it drains, the server list of each draining ring.
func viewLine(v membership.View) string {
	line := fmt.Sprintf("epoch=%d servers=%s", v.Epoch, strings.Join(v.Servers, ","))
	for _, ring := range v.Draining {
		line += " draining=" + strings.Join(ring, ",")
	}
	return line
}

func bench(client *core.Client, n, size int) error {
	value := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(value)
	setHist, getHist := stats.NewHistogram(), stats.NewHistogram()

	start := time.Now()
	for i := 0; i < n; i++ {
		opStart := time.Now()
		if err := client.Set(fmt.Sprintf("bench-%d", i), value); err != nil {
			return fmt.Errorf("set %d: %w", i, err)
		}
		setHist.Record(time.Since(opStart))
	}
	setElapsed := time.Since(start)

	start = time.Now()
	for i := 0; i < n; i++ {
		opStart := time.Now()
		if _, err := client.Get(fmt.Sprintf("bench-%d", i)); err != nil {
			return fmt.Errorf("get %d: %w", i, err)
		}
		getHist.Record(time.Since(opStart))
	}
	getElapsed := time.Since(start)

	fmt.Printf("set: %s (%.0f ops/s)\n", setHist.Summarize(), float64(n)/setElapsed.Seconds())
	fmt.Printf("get: %s (%.0f ops/s)\n", getHist.Summarize(), float64(n)/getElapsed.Seconds())
	return nil
}
