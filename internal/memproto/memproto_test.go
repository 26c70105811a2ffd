package memproto_test

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"ecstore/internal/cluster"
	"ecstore/internal/core"
	"ecstore/internal/memproto"
	"ecstore/internal/transport"
)

// startProxy brings up a 5-server erasure-coded cluster with a
// memcached-protocol proxy in front, and returns a dial function.
func startProxy(t *testing.T) (*cluster.Cluster, func() *textClient) {
	t.Helper()
	cl, _, dial := startProxyClient(t)
	return cl, dial
}

// startProxyClient is startProxy that also returns the proxy's client.
func startProxyClient(t *testing.T) (*cluster.Cluster, *core.Client, func() *textClient) {
	t.Helper()
	cl, err := cluster.Start(cluster.Config{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	client, err := core.New(core.Config{
		Network:    cl.Network(),
		Servers:    cl.Addrs(),
		Resilience: core.ResilienceErasure,
		Scheme:     core.SchemeCECD,
		K:          3, M: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	ln, err := cl.Network().Listen("memproxy")
	if err != nil {
		t.Fatal(err)
	}
	srv := memproto.Serve(ln, &memproto.ClusterBackend{Client: client})
	t.Cleanup(srv.Close)
	dial := func() *textClient {
		conn, err := cl.Network().Dial("memproxy")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conn.Close() })
		return &textClient{t: t, conn: conn, br: bufio.NewReader(conn)}
	}
	return cl, client, dial
}

// textClient drives the ASCII protocol like a real memcached client.
type textClient struct {
	t    *testing.T
	conn transport.Conn
	br   *bufio.Reader
}

func (c *textClient) send(format string, args ...any) {
	c.t.Helper()
	if _, err := fmt.Fprintf(c.conn, format, args...); err != nil {
		c.t.Fatal(err)
	}
}

func (c *textClient) line() string {
	c.t.Helper()
	line, err := c.br.ReadString('\n')
	if err != nil {
		c.t.Fatal(err)
	}
	return strings.TrimRight(line, "\r\n")
}

func (c *textClient) read(n int) []byte {
	c.t.Helper()
	buf := make([]byte, n)
	if _, err := io.ReadFull(c.br, buf); err != nil {
		c.t.Fatal(err)
	}
	return buf
}

func TestSetGetDelete(t *testing.T) {
	_, dial := startProxy(t)
	c := dial()

	c.send("set greeting 0 0 5\r\nhello\r\n")
	if got := c.line(); got != "STORED" {
		t.Fatalf("set -> %q", got)
	}

	c.send("get greeting\r\n")
	if got := c.line(); got != "VALUE greeting 0 5" {
		t.Fatalf("get header -> %q", got)
	}
	if got := string(c.read(5)); got != "hello" {
		t.Fatalf("get body -> %q", got)
	}
	c.read(2) // trailing CRLF
	if got := c.line(); got != "END" {
		t.Fatalf("get end -> %q", got)
	}

	c.send("delete greeting\r\n")
	if got := c.line(); got != "DELETED" {
		t.Fatalf("delete -> %q", got)
	}
	c.send("delete greeting\r\n")
	if got := c.line(); got != "NOT_FOUND" {
		t.Fatalf("re-delete -> %q", got)
	}
	c.send("get greeting\r\n")
	if got := c.line(); got != "END" {
		t.Fatalf("get after delete -> %q", got)
	}
}

func TestMultiKeyGet(t *testing.T) {
	_, dial := startProxy(t)
	c := dial()
	for i := 0; i < 3; i++ {
		c.send("set k%d 0 0 2\r\nv%d\r\n", i, i)
		if got := c.line(); got != "STORED" {
			t.Fatal(got)
		}
	}
	c.send("get k0 missing k2\r\n")
	var values []string
	for {
		line := c.line()
		if line == "END" {
			break
		}
		if !strings.HasPrefix(line, "VALUE ") {
			t.Fatalf("unexpected line %q", line)
		}
		values = append(values, string(c.read(2)))
		c.read(2)
	}
	if len(values) != 2 || values[0] != "v0" || values[1] != "v2" {
		t.Fatalf("values %v", values)
	}
}

func TestGetsCasRoundTrip(t *testing.T) {
	_, dial := startProxy(t)
	c := dial()
	c.send("set k 0 0 1\r\nx\r\n")
	if got := c.line(); got != "STORED" {
		t.Fatal(got)
	}
	c.send("gets k\r\n")
	header := strings.Fields(c.line())
	if len(header) != 5 || header[0] != "VALUE" || header[1] != "k" {
		t.Fatalf("gets header %v", header)
	}
	token := header[4]
	if token == "0" {
		t.Fatal("gets reported CAS token 0 for a stored item")
	}
	c.read(3)
	if got := c.line(); got != "END" {
		t.Fatal(got)
	}

	// The fresh token admits exactly one conditional write.
	c.send("cas k 0 0 2 %s\r\nv2\r\n", token)
	if got := c.line(); got != "STORED" {
		t.Fatalf("cas with fresh token -> %q", got)
	}
	c.send("cas k 0 0 2 %s\r\nv3\r\n", token)
	if got := c.line(); got != "EXISTS" {
		t.Fatalf("cas with stale token -> %q", got)
	}
	c.send("get k\r\n")
	if got := c.line(); got != "VALUE k 0 2" {
		t.Fatalf("header %q", got)
	}
	if got := string(c.read(2)); got != "v2" {
		t.Fatalf("stale cas overwrote value: %q", got)
	}
	c.read(2)
	c.line()

	// CAS on an absent key is NOT_FOUND, not an insert.
	c.send("cas nope 0 0 1 %s\r\nx\r\n", token)
	if got := c.line(); got != "NOT_FOUND" {
		t.Fatalf("cas on absent key -> %q", got)
	}
}

func TestNoreply(t *testing.T) {
	_, dial := startProxy(t)
	c := dial()
	c.send("set quiet 0 0 1 noreply\r\nq\r\n")
	// No response expected; next command's response comes first.
	c.send("get quiet\r\n")
	if got := c.line(); got != "VALUE quiet 0 1" {
		t.Fatalf("got %q", got)
	}
	c.read(3)
	if got := c.line(); got != "END" {
		t.Fatal(got)
	}
}

func TestProxyServesThroughFailures(t *testing.T) {
	cl, dial := startProxy(t)
	c := dial()
	c.send("set durable 0 0 9\r\nsurvives!\r\n")
	if got := c.line(); got != "STORED" {
		t.Fatal(got)
	}
	cl.Kill(0)
	cl.Kill(3)
	c.send("get durable\r\n")
	if got := c.line(); got != "VALUE durable 0 9" {
		t.Fatalf("degraded get -> %q", got)
	}
	if got := string(c.read(9)); got != "survives!" {
		t.Fatalf("body %q", got)
	}
}

func TestTTLThroughProxy(t *testing.T) {
	_, dial := startProxy(t)
	c := dial()
	c.send("set brief 0 1 1\r\nb\r\n") // 1 second TTL
	if got := c.line(); got != "STORED" {
		t.Fatal(got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c.send("get brief\r\n")
		line := c.line()
		if line == "END" {
			return // expired
		}
		c.read(3)
		if got := c.line(); got != "END" {
			t.Fatal(got)
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatal("1s-TTL item never expired")
}

func TestProtocolErrors(t *testing.T) {
	_, dial := startProxy(t)
	c := dial()
	c.send("bogus command\r\n")
	if got := c.line(); got != "ERROR" {
		t.Fatalf("bogus -> %q", got)
	}
	c.send("set k 0 0 notanumber\r\n")
	if got := c.line(); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Fatalf("bad size -> %q", got)
	}
	c.send("set bad\x01key 0 0 1\r\nx\r\n")
	if got := c.line(); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Fatalf("bad key -> %q", got)
	}
	c.send("get\r\n")
	if got := c.line(); got != "ERROR" {
		t.Fatalf("get with no key -> %q", got)
	}
	// The connection must still work after client errors.
	c.send("version\r\n")
	if got := c.line(); !strings.HasPrefix(got, "VERSION") {
		t.Fatalf("version -> %q", got)
	}
}

func TestStatsAndQuit(t *testing.T) {
	_, dial := startProxy(t)
	c := dial()
	c.send("set s 0 0 1\r\nx\r\n")
	c.line()
	c.send("stats\r\n")
	sawItems := false
	for {
		line := c.line()
		if line == "END" {
			break
		}
		if strings.HasPrefix(line, "STAT curr_items") {
			sawItems = true
		}
	}
	if !sawItems {
		t.Fatal("stats missing curr_items")
	}
	c.send("quit\r\n")
	// Server closes the connection: the next read hits EOF.
	if _, err := c.br.ReadString('\n'); err == nil {
		t.Fatal("connection still open after quit")
	}
}

// TestStatsFollowTheView: the proxy's `stats` counts the servers of its
// client's current view, so a server the ring gained is counted too.
func TestStatsFollowTheView(t *testing.T) {
	cl, client, dial := startProxyClient(t)
	if _, err := cl.AddServer("kv-5"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.RingAdd("kv-5"); err != nil {
		t.Fatal(err)
	}
	c := dial()
	c.send("stats\r\n")
	var live string
	for line := c.line(); line != "END"; line = c.line() {
		if v, ok := strings.CutPrefix(line, "STAT live_servers "); ok {
			live = v
		}
	}
	if live != "6" {
		t.Fatalf("STAT live_servers %q after a ring add, want 6", live)
	}
}

func TestLargeValueThroughProxy(t *testing.T) {
	_, dial := startProxy(t)
	c := dial()
	big := strings.Repeat("A", 200<<10)
	c.send("set big 0 0 %d\r\n%s\r\n", len(big), big)
	if got := c.line(); got != "STORED" {
		t.Fatal(got)
	}
	c.send("get big\r\n")
	if got := c.line(); got != fmt.Sprintf("VALUE big 0 %d", len(big)) {
		t.Fatalf("header %q", got)
	}
	if got := string(c.read(len(big))); got != big {
		t.Fatal("big value differs")
	}
}
