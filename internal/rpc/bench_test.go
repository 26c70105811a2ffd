package rpc

import (
	"bufio"
	"bytes"
	"fmt"
	"sync"
	"testing"

	"ecstore/internal/transport"
	"ecstore/internal/wire"
)

// startBenchEcho is a self-contained echo server for benchmarks (kept
// separate from the test helper so the file can be run against older
// revisions for before/after comparisons).
func startBenchEcho(b *testing.B, network transport.Network, addr string) {
	b.Helper()
	l, err := network.Listen(addr)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReaderSize(conn, 256<<10)
				var mu sync.Mutex
				for {
					req, err := wire.ReadRequestPooled(br, nil)
					if err != nil {
						return
					}
					mu.Lock()
					err = wire.WriteResponse(conn, &wire.Response{
						ID: req.ID, Status: wire.StatusOK, Value: req.Value,
					})
					mu.Unlock()
					if err != nil {
						return
					}
				}
			}()
		}
	}()
}

var rpcBenchSizes = []int{1 << 10, 64 << 10, 1 << 20}

// releaseBench returns a response's pooled frame body to its pool.
// When this file is run against revisions predating response pooling
// for a before/after comparison, replace the body with a no-op.
func releaseBench(r *wire.Response) { r.Release() }

// BenchmarkRoundtrip measures one blocking request/response echo —
// the client Set/Get wire path without codec or placement logic.
func BenchmarkRoundtrip(b *testing.B) {
	for _, size := range rpcBenchSizes {
		b.Run(fmt.Sprintf("%dKB", size>>10), func(b *testing.B) {
			n := transport.NewInproc(transport.Shape{})
			startBenchEcho(b, n, "echo")
			p := NewPool(n)
			defer p.Close()
			value := bytes.Repeat([]byte{0xA5}, size)
			b.ReportAllocs()
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				resp, err := p.Roundtrip("echo", &wire.Request{Op: wire.OpSet, Key: "bench", Value: value})
				if err != nil {
					b.Fatal(err)
				}
				releaseBench(resp)
			}
		})
	}
}

// BenchmarkInFlightWindow keeps an ARPE-style window of 64 non-blocking
// calls open on one connection, issued by one goroutine or split over
// eight. frames/batch is the coalescing the FrameQueue achieved: a
// batch forms when senders overlap, so a lone sender writes each frame
// itself (1.0) and concurrent ones share vectored writes.
func BenchmarkInFlightWindow(b *testing.B) {
	const window = 64
	for _, size := range []int{1 << 10, 64 << 10} {
		for _, senders := range []int{1, 8} {
			b.Run(fmt.Sprintf("%dKB/senders=%d", size>>10, senders), func(b *testing.B) {
				n := transport.NewInproc(transport.Shape{})
				startBenchEcho(b, n, "echo")
				p := NewPool(n)
				defer p.Close()
				value := bytes.Repeat([]byte{0xA5}, size)
				b.ReportAllocs()
				b.SetBytes(int64(size))
				var wg sync.WaitGroup
				for s := 0; s < senders; s++ {
					wg.Add(1)
					go func(ops int) {
						defer wg.Done()
						// The window is a round: its slots are taken fresh each
						// time (a slot serves one call), all issued, waited once.
						var round Round
						for left := ops; left > 0; {
							calls := make([]Call, min(left, window/senders))
							left -= len(calls)
							p.Begin(&round)
							for i := range calls {
								round.Issue(&calls[i], "echo", &wire.Request{Op: wire.OpSet, Key: "bench", Value: value})
							}
							round.Wait()
							for i := range calls {
								resp, err := calls[i].Result()
								if err != nil {
									b.Error(err)
									return
								}
								releaseBench(resp)
							}
						}
					}(b.N / senders)
				}
				wg.Wait()
				b.StopTimer()
				p.mu.Lock()
				mc := p.conns["echo"]
				p.mu.Unlock()
				if mc != nil { // b.N below the sender count sends nothing
					if batches, frames := mc.fq.Stats(); batches > 0 {
						b.ReportMetric(float64(frames)/float64(batches), "frames/batch")
					}
				}
			})
		}
	}
}
