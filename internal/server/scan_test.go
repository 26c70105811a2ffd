package server

import (
	"fmt"
	"testing"

	"ecstore/internal/wire"
)

// scanServer pages through one server's keyspace over the wire, with
// req's Meta on every page request, asserting no page holds more than
// wire.DefaultScanLimit keys; it returns the keys and the page count.
func scanServer(t *testing.T, pool interface {
	Roundtrip(string, *wire.Request) (*wire.Response, error)
}, addr string, meta wire.ECMeta) ([]string, int) {
	t.Helper()
	var keys []string
	var cursor []byte
	for pages := 1; ; pages++ {
		if pages > 10000 {
			t.Fatal("scan does not terminate")
		}
		resp, err := pool.Roundtrip(addr, &wire.Request{Op: wire.OpScan, Key: "scan", Value: cursor, Meta: meta})
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		page, err := wire.DecodeScanPage(resp.Value)
		if err != nil {
			t.Fatalf("decode page: %v", err)
		}
		if len(page.Keys) > wire.DefaultScanLimit {
			t.Fatalf("page of %d keys exceeds %d", len(page.Keys), wire.DefaultScanLimit)
		}
		keys = append(keys, page.Keys...)
		if len(page.Next) == 0 {
			return keys, pages
		}
		cursor = page.Next
	}
}

func TestScanPagination(t *testing.T) {
	servers, pool := startServers(t, 1, 0)
	addr := servers[0].Addr()
	want := map[string]bool{}
	for i := 0; i < 2*wire.DefaultScanLimit+137; i++ {
		k := fmt.Sprintf("scan-key-%03d", i)
		if _, err := pool.Roundtrip(addr, &wire.Request{Op: wire.OpSet, Key: k, Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
		want[k] = true
	}
	got, pages := scanServer(t, pool, addr, wire.ECMeta{})
	if len(got) != len(want) || pages < 3 {
		t.Fatalf("scan returned %d keys in %d pages, want %d keys in 3 or more", len(got), pages, len(want))
	}
	seen := map[string]bool{}
	for _, k := range got {
		if seen[k] {
			t.Fatalf("duplicate key %q", k)
		}
		seen[k] = true
		if !want[k] {
			t.Fatalf("unknown key %q", k)
		}
	}
}

func TestScanEmptyStore(t *testing.T) {
	servers, pool := startServers(t, 1, 0)
	if got, _ := scanServer(t, pool, servers[0].Addr(), wire.ECMeta{}); len(got) != 0 {
		t.Fatalf("empty store scan returned %q", got)
	}
}

// TestScanPageSizeIsFixed: a scan request carries only its cursor.
// Whatever its Meta says — Meta.TotalLen was once a page-size limit —
// the server answers pages of wire.DefaultScanLimit keys.
func TestScanPageSizeIsFixed(t *testing.T) {
	servers, pool := startServers(t, 1, 0)
	addr := servers[0].Addr()
	for i := 0; i < wire.DefaultScanLimit+10; i++ {
		if _, err := pool.Roundtrip(addr, &wire.Request{Op: wire.OpSet, Key: fmt.Sprintf("k%d", i), Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
	}
	for _, limit := range []uint32{0, 1, 1 << 20} {
		if got, pages := scanServer(t, pool, addr, wire.ECMeta{TotalLen: limit}); len(got) != wire.DefaultScanLimit+10 || pages != 2 {
			t.Fatalf("TotalLen %d: scan returned %d keys in %d pages, want %d in 2", limit, len(got), pages, wire.DefaultScanLimit+10)
		}
	}
}

func TestScanMalformedCursor(t *testing.T) {
	servers, pool := startServers(t, 1, 0)
	resp, err := pool.Roundtrip(servers[0].Addr(), &wire.Request{
		Op: wire.OpScan, Key: "scan", Value: []byte{1, 2, 3},
	})
	if err == nil {
		t.Fatalf("malformed cursor accepted: %+v", resp)
	}
}
