// Command memproxy exposes the resilient key-value cluster through
// the memcached ASCII protocol, so unmodified memcached clients get
// erasure-coded fault tolerance transparently:
//
//	memproxy -listen 127.0.0.1:11211 \
//	         -servers 127.0.0.1:7001,127.0.0.1:7002,... \
//	         -mode era-ce-cd
//
//	printf 'set k 0 0 5\r\nhello\r\nget k\r\nquit\r\n' | nc 127.0.0.1 11211
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
	"ecstore/internal/memproto"
	"ecstore/internal/metrics"
	"ecstore/internal/scrub"
	"ecstore/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "memproxy:", err)
		os.Exit(1)
	}
}

func run() error {
	listen := flag.String("listen", "127.0.0.1:11211", "memcached-protocol listen address")
	servers := flag.String("servers", "127.0.0.1:7001", "comma-separated kvserver addresses")
	mode := flag.String("mode", "era-ce-cd", "resilience mode: none|sync-rep|async-rep|era-ce-cd|era-se-sd|era-se-cd|hybrid")
	k := flag.Int("k", 3, "erasure data chunks K")
	m := flag.Int("m", 2, "erasure parity chunks M")
	replicas := flag.Int("replicas", 3, "replication factor F")
	opTimeout := flag.Duration("op-timeout", 0, "per-RPC deadline (0 = default 15s, negative disables)")
	retries := flag.Int("retries", 0, "max retries of idempotent reads (0 = default 2, negative disables)")
	retryBackoff := flag.Duration("retry-backoff", 0, "initial retry backoff, doubling with jitter (0 = default 10ms)")
	maxItemSize := flag.Int("max-item-size", memproto.DefaultMaxItemSize, "largest item accepted over the memcached protocol, in bytes")
	cacheBytes := flag.Int64("cache-bytes", 0, "proxy-side near-cache capacity for hot keys, in bytes (0 = disabled)")
	cacheMaxAge := flag.Duration("cache-max-age", 0, "near-cache max entry residency, bounding cross-client staleness (0 = default 5s, negative disables the cap)")
	metricsAddr := flag.String("metrics-addr", "", "serve proxy-side Prometheus metrics at http://<addr>/metrics (empty = disabled)")
	pprofOn := flag.Bool("pprof", false, "also serve net/http/pprof profiles under http://<metrics-addr>/debug/pprof/")
	scrubInterval := flag.Duration("scrub-interval", 0, "run the background daemon (anti-entropy scrub, rebalancing on membership epoch changes) with timed passes at this period (0 = disabled, negative such as -1s = passes on ring changes and recoveries only)")
	scrubRate := flag.Float64("scrub-rate", 0, "daemon keyspace walk rate in keys/sec (0 = default 1000, negative disables throttling)")
	flag.Parse()

	resilience, scheme, err := core.ParseMode(*mode)
	if err != nil {
		return err
	}
	addrs := strings.Split(*servers, ",")
	client, err := core.New(core.Config{
		Network:      transport.TCP{},
		Servers:      addrs,
		Resilience:   resilience,
		Scheme:       scheme,
		K:            *k,
		M:            *m,
		Replicas:     *replicas,
		OpTimeout:    *opTimeout,
		MaxRetries:   *retries,
		RetryBackoff: *retryBackoff,
		CacheBytes:   *cacheBytes,
		CacheMaxAge:  *cacheMaxAge,
	})
	if err != nil {
		return err
	}
	defer client.Close()
	if *metricsAddr != "" {
		var opts []metrics.ServeOption
		if *pprofOn {
			opts = append(opts, metrics.WithPprof())
		}
		closeMetrics, err := metrics.Serve(*metricsAddr, client.Metrics(), opts...)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer closeMetrics()
		log.Printf("memproxy metrics at http://%s/metrics", *metricsAddr)
		if *pprofOn {
			log.Printf("memproxy pprof at http://%s/debug/pprof/", *metricsAddr)
		}
	} else if *pprofOn {
		return fmt.Errorf("-pprof requires -metrics-addr")
	}

	if *scrubInterval != 0 {
		daemon, err := scrub.New(scrub.Config{
			Client:   client,
			Interval: *scrubInterval,
			Rate:     *scrubRate,
			Metrics:  client.Metrics(),
			Logf:     log.Printf,
		})
		if err != nil {
			return err
		}
		daemon.Start()
		defer daemon.Stop()
		log.Printf("memproxy: background daemon armed, interval %v (rate %v keys/s)", *scrubInterval, *scrubRate)
	}

	ln, err := transport.TCP{}.Listen(*listen)
	if err != nil {
		return err
	}
	if *cacheBytes > 0 {
		log.Printf("memproxy: near cache enabled, %d bytes, max age %v", *cacheBytes, *cacheMaxAge)
	}
	srv := memproto.Serve(ln, &memproto.ClusterBackend{Client: client},
		memproto.WithMaxItemSize(*maxItemSize),
		memproto.WithMetrics(client.Metrics()))
	log.Printf("memproxy: memcached protocol on %s -> %d kv servers (%s)", srv.Addr(), len(addrs), *mode)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	srv.Close()
	return nil
}
