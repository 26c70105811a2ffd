package server

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"ecstore/internal/rpc"
	"ecstore/internal/transport"
	"ecstore/internal/wire"
)

// TestWorkerPoolSaturation floods a 2-worker server with slow
// (EncodeSet) and fast (Ping) requests: everything must complete, and
// backpressure must not deadlock the connection.
func TestWorkerPoolSaturation(t *testing.T) {
	network := transport.NewInproc(transport.Shape{})
	addrs := []string{"s0", "s1", "s2", "s3", "s4"}
	servers := make([]*Server, len(addrs))
	for i, addr := range addrs {
		srv, err := New(Config{
			Addr:    addr,
			Network: network,
			Peers:   addrs,
			Workers: 2,
			Logf:    func(string, ...any) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
		defer srv.Close()
	}
	pool := rpc.NewPool(network)
	defer pool.Close()

	value := bytes.Repeat([]byte("x"), 64<<10)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, err := pool.Roundtrip("s0", &wire.Request{
					Op: wire.OpEncodeSet, Key: fmt.Sprintf("k-%d-%d", g, i),
					Value: value, Meta: wire.ECMeta{K: 3, M: 2},
				}); err != nil {
					errs <- fmt.Errorf("encode-set: %w", err)
					return
				}
				if _, err := pool.Roundtrip("s1", &wire.Request{Op: wire.OpPing, Key: "p"}); err != nil {
					errs <- fmt.Errorf("ping: %w", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// All 64 stripes must be decodable.
	for g := 0; g < 8; g++ {
		resp, err := pool.Roundtrip("s0", &wire.Request{
			Op: wire.OpDecodeGet, Key: fmt.Sprintf("k-%d-0", g), Meta: wire.ECMeta{K: 3, M: 2},
		})
		if err != nil {
			t.Fatalf("decode-get g=%d: %v", g, err)
		}
		if !bytes.Equal(resp.Value, value) {
			t.Fatalf("g=%d: value differs", g)
		}
	}
}

// TestConcurrentEncodeSetSameKey hammers one key with concurrent
// server-side encodes: the final state must be one complete stripe
// (stripe IDs prevent mixing).
func TestConcurrentEncodeSetSameKey(t *testing.T) {
	servers, pool := startServers(t, 5, 0)
	addr := servers[0].Addr()
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			value := bytes.Repeat([]byte{byte('A' + w)}, 9000)
			for i := 0; i < 10; i++ {
				_, _ = pool.Roundtrip(addr, &wire.Request{
					Op: wire.OpEncodeSet, Key: "contended", Value: value,
					Meta: wire.ECMeta{K: 3, M: 2},
				})
			}
		}(w)
	}
	wg.Wait()
	resp, err := pool.Roundtrip(addr, &wire.Request{
		Op: wire.OpDecodeGet, Key: "contended", Meta: wire.ECMeta{K: 3, M: 2},
	})
	if err != nil {
		t.Fatalf("decode-get after contention: %v", err)
	}
	if len(resp.Value) != 9000 {
		t.Fatalf("value length %d", len(resp.Value))
	}
	for _, b := range resp.Value {
		if b != resp.Value[0] {
			t.Fatal("torn value: mixed writers in one stripe")
		}
	}
}

// TestConcurrentCoordinatedBatches runs batches of encode-sets and of
// decode-gets on several coordinators at once, each batch one
// coordinator call on a worker: every write must read back whole.
func TestConcurrentCoordinatedBatches(t *testing.T) {
	servers, pool := startServers(t, 5, 0)
	meta := wire.ECMeta{K: 3, M: 2}
	// roundtrip sends one batch and returns its sub-responses, which
	// alias the response until the caller is done with them.
	roundtrip := func(addr string, subs []wire.BatchReq) ([]wire.BatchResp, error) {
		payload, err := wire.AppendBatchRequests(nil, subs)
		if err != nil {
			return nil, err
		}
		resp, err := pool.Roundtrip(addr, &wire.Request{Op: wire.OpBatch, Key: "b", Value: payload})
		if err != nil {
			return nil, err
		}
		return wire.DecodeBatchResponses(resp.Value)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < cap(errs); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				sets, gets := make([]wire.BatchReq, 8), make([]wire.BatchReq, 8)
				for j := range sets {
					key := fmt.Sprintf("cb-%d-%d-%d", g, i, j)
					sets[j] = wire.BatchReq{Op: wire.OpEncodeSet, Key: key, Value: bytes.Repeat([]byte{byte(g), byte(j)}, 700), Meta: meta}
					gets[j] = wire.BatchReq{Op: wire.OpDecodeGet, Key: key, Meta: meta}
				}
				rs, err := roundtrip(servers[g%5].Addr(), sets)
				for j := 0; err == nil && j < len(rs); j++ {
					err = rs[j].Err()
				}
				if err != nil {
					errs <- fmt.Errorf("encode-set batch: %w", err)
					return
				}
				rs, err = roundtrip(servers[(g+1)%5].Addr(), gets)
				for j := 0; err == nil && j < len(rs); j++ {
					if err = rs[j].Err(); err == nil && !bytes.Equal(rs[j].Value, sets[j].Value) {
						err = fmt.Errorf("%s: value differs", sets[j].Key)
					}
				}
				if err != nil {
					errs <- fmt.Errorf("decode-get batch: %w", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
