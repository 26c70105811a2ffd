package proxye2e

// Raw-TCP ASCII conformance: these tests speak the memcached text
// protocol directly, byte for byte, so they run with zero external
// dependencies and pin down the exact wire behaviour (response
// framing, pipelining, noreply) that client libraries rely on.

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

// mcConn is a minimal memcached text-protocol client over one TCP
// connection.
type mcConn struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

func dialProxy(t *testing.T) *mcConn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", proxyAddr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial proxy: %v", err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(60 * time.Second))
	return &mcConn{t: t, conn: conn, br: bufio.NewReader(conn)}
}

func (c *mcConn) send(format string, args ...any) {
	c.t.Helper()
	if _, err := fmt.Fprintf(c.conn, format, args...); err != nil {
		c.t.Fatalf("send: %v", err)
	}
}

func (c *mcConn) line() string {
	c.t.Helper()
	line, err := c.br.ReadString('\n')
	if err != nil {
		c.t.Fatalf("read line: %v", err)
	}
	return strings.TrimRight(line, "\r\n")
}

func (c *mcConn) read(n int) string {
	c.t.Helper()
	buf := make([]byte, n)
	for done := 0; done < n; {
		m, err := c.br.Read(buf[done:])
		if err != nil {
			c.t.Fatalf("read %d bytes: %v", n, err)
		}
		done += m
	}
	return string(buf)
}

func (c *mcConn) set(key, value string) {
	c.t.Helper()
	c.send("set %s 0 0 %d\r\n%s\r\n", key, len(value), value)
	if got := c.line(); got != "STORED" {
		c.t.Fatalf("set %s -> %q", key, got)
	}
}

func TestE2ESetGetDelete(t *testing.T) {
	c := dialProxy(t)
	c.set("e2e-basic", "hello-e2e")
	c.send("get e2e-basic\r\n")
	if got := c.line(); got != "VALUE e2e-basic 0 9" {
		t.Fatalf("get header %q", got)
	}
	if got := c.read(9 + 2); got != "hello-e2e\r\n" {
		t.Fatalf("get body %q", got)
	}
	if got := c.line(); got != "END" {
		t.Fatalf("terminator %q", got)
	}
	c.send("delete e2e-basic\r\n")
	if got := c.line(); got != "DELETED" {
		t.Fatalf("delete -> %q", got)
	}
	c.send("get e2e-basic\r\n")
	if got := c.line(); got != "END" {
		t.Fatalf("get after delete -> %q", got)
	}
}

// TestE2ECasRoundTrip is the acceptance scenario: a gets token admits
// one conditional write, after which it is stale and answered EXISTS.
func TestE2ECasRoundTrip(t *testing.T) {
	c := dialProxy(t)
	c.set("e2e-cas", "v1")
	c.send("gets e2e-cas\r\n")
	header := strings.Fields(c.line())
	if len(header) != 5 || header[0] != "VALUE" {
		t.Fatalf("gets header %v", header)
	}
	token := header[4]
	if token == "0" {
		t.Fatal("CAS token is 0")
	}
	c.read(2 + 2)
	if got := c.line(); got != "END" {
		t.Fatal(got)
	}
	c.send("cas e2e-cas 0 0 2 %s\r\nv2\r\n", token)
	if got := c.line(); got != "STORED" {
		t.Fatalf("cas fresh token -> %q", got)
	}
	c.send("cas e2e-cas 0 0 2 %s\r\nv3\r\n", token)
	if got := c.line(); got != "EXISTS" {
		t.Fatalf("cas stale token -> %q", got)
	}
	c.send("get e2e-cas\r\n")
	c.line()
	if got := c.read(2 + 2); got != "v2\r\n" {
		t.Fatalf("stale cas overwrote: %q", got)
	}
	c.line()
}

// TestE2EMultiGetSingleResponse is the acceptance scenario: one get
// line with 64 keys comes back as one VALUE-block response ending in
// a single END.
func TestE2EMultiGetSingleResponse(t *testing.T) {
	c := dialProxy(t)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("e2e-mget-%02d", i)
		c.set(keys[i], fmt.Sprintf("val-%02d", i))
	}
	c.send("get %s\r\n", strings.Join(keys, " "))
	got := make(map[string]string, len(keys))
	for {
		line := c.line()
		if line == "END" {
			break
		}
		f := strings.Fields(line)
		if len(f) != 4 || f[0] != "VALUE" {
			t.Fatalf("unexpected line %q", line)
		}
		var n int
		fmt.Sscanf(f[3], "%d", &n)
		got[f[1]] = strings.TrimSuffix(c.read(n+2), "\r\n")
	}
	if len(got) != 64 {
		t.Fatalf("multi-get returned %d values, want 64", len(got))
	}
	for i, k := range keys {
		if got[k] != fmt.Sprintf("val-%02d", i) {
			t.Fatalf("key %s = %q", k, got[k])
		}
	}
}

// TestE2ENoreplyPipeline is the acceptance scenario: well over 100
// noreply mutations written in one burst on a single connection, with
// only the trailing get producing output.
func TestE2ENoreplyPipeline(t *testing.T) {
	c := dialProxy(t)
	const n = 150
	var burst strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&burst, "set e2e-pipe-%03d 0 0 8 noreply\r\nvalue%03d\r\n", i, i)
	}
	for i := 0; i < n; i += 2 {
		fmt.Fprintf(&burst, "delete e2e-pipe-%03d noreply\r\n", i)
	}
	burst.WriteString("get e2e-pipe-149 e2e-pipe-148\r\n")
	c.send("%s", burst.String())

	// Odd survivor present, even one deleted.
	if got := c.line(); got != "VALUE e2e-pipe-149 0 8" {
		t.Fatalf("after %d pipelined noreply commands: %q", n+n/2, got)
	}
	if got := c.read(8 + 2); got != "value149\r\n" {
		t.Fatalf("value %q", got)
	}
	if got := c.line(); got != "END" {
		t.Fatalf("deleted key leaked into response: %q", got)
	}
}

func TestE2EAddReplaceIncrTouch(t *testing.T) {
	c := dialProxy(t)
	c.send("add e2e-add 0 0 1\r\na\r\n")
	if got := c.line(); got != "STORED" {
		t.Fatalf("add -> %q", got)
	}
	c.send("add e2e-add 0 0 1\r\nb\r\n")
	if got := c.line(); got != "NOT_STORED" {
		t.Fatalf("second add -> %q", got)
	}
	c.send("replace e2e-add 0 0 2\r\n10\r\n")
	if got := c.line(); got != "STORED" {
		t.Fatalf("replace -> %q", got)
	}
	c.send("incr e2e-add 32\r\n")
	if got := c.line(); got != "42" {
		t.Fatalf("incr -> %q", got)
	}
	c.send("decr e2e-add 2\r\n")
	if got := c.line(); got != "40" {
		t.Fatalf("decr -> %q", got)
	}
	c.send("touch e2e-add 3600\r\n")
	if got := c.line(); got != "TOUCHED" {
		t.Fatalf("touch -> %q", got)
	}
	c.send("touch e2e-missing 60\r\n")
	if got := c.line(); got != "NOT_FOUND" {
		t.Fatalf("touch missing -> %q", got)
	}
}

func TestE2EAppendPrepend(t *testing.T) {
	c := dialProxy(t)
	c.set("e2e-word", "mid")
	c.send("append e2e-word 0 0 4\r\n-end\r\n")
	if got := c.line(); got != "STORED" {
		t.Fatalf("append -> %q", got)
	}
	c.send("prepend e2e-word 0 0 4\r\npre-\r\n")
	if got := c.line(); got != "STORED" {
		t.Fatalf("prepend -> %q", got)
	}
	c.send("get e2e-word\r\n")
	if got := c.line(); got != "VALUE e2e-word 0 11" {
		t.Fatalf("header %q", got)
	}
	if got := c.read(11 + 2); got != "pre-mid-end\r\n" {
		t.Fatalf("value %q", got)
	}
	c.line()
}

// TestE2EMetaProtocol drives the meta commands over real TCP: quiet
// gets with an mn barrier, conditional meta-set, meta-arithmetic.
func TestE2EMetaProtocol(t *testing.T) {
	c := dialProxy(t)
	c.send("ms e2e-meta 5 F9 c\r\nhello\r\n")
	resp := c.line()
	if !strings.HasPrefix(resp, "HD c") {
		t.Fatalf("ms -> %q", resp)
	}
	token := strings.TrimPrefix(strings.Fields(resp)[1], "c")

	c.send("mg e2e-meta v f c s\r\n")
	header := strings.Fields(c.line())
	if header[0] != "VA" || header[1] != "5" {
		t.Fatalf("mg header %v", header)
	}
	joined := strings.Join(header[2:], " ")
	if !strings.Contains(joined, "f9") || !strings.Contains(joined, "c"+token) || !strings.Contains(joined, "s5") {
		t.Fatalf("mg flags %q (token %s)", joined, token)
	}
	if got := c.read(5 + 2); got != "hello\r\n" {
		t.Fatalf("mg body %q", got)
	}

	// Conditional meta-set: stale C answered EX, fresh C answered HD.
	c.send("ms e2e-meta 3 C%s\r\nnew\r\n", token)
	if got := c.line(); got != "HD" {
		t.Fatalf("ms fresh C -> %q", got)
	}
	c.send("ms e2e-meta 3 C%s\r\nxxx\r\n", token)
	if got := c.line(); got != "EX" {
		t.Fatalf("ms stale C -> %q", got)
	}

	// Quiet miss + barrier: only MN comes back.
	c.send("mg e2e-meta-missing q\r\nmn\r\n")
	if got := c.line(); got != "MN" {
		t.Fatalf("quiet miss leaked: %q", got)
	}

	// Meta arithmetic with autovivify.
	c.send("ma e2e-meta-ctr N0 J41 v\r\nma e2e-meta-ctr v\r\n")
	if got := c.line(); got != "VA 2" {
		t.Fatalf("ma autovivify -> %q", got)
	}
	if got := c.read(2 + 2); got != "41\r\n" {
		t.Fatalf("ma seed %q", got)
	}
	if got := c.line(); got != "VA 2" {
		t.Fatalf("ma incr -> %q", got)
	}
	if got := c.read(2 + 2); got != "42\r\n" {
		t.Fatalf("ma value %q", got)
	}
}

// TestE2EMetaTokenEveryMode: a C token is compared in every ms mode but
// add, so a stale one answers EX in append and replace mode and leaves
// the value alone; and ma's M- decrements like MD.
func TestE2EMetaTokenEveryMode(t *testing.T) {
	c := dialProxy(t)
	c.send("ms e2e-tok 3 c\r\nabc\r\n")
	resp := c.line()
	if !strings.HasPrefix(resp, "HD c") {
		t.Fatalf("ms -> %q", resp)
	}
	token := strings.TrimPrefix(resp, "HD c")
	c.set("e2e-tok", "abc") // the token is stale from here on

	c.send("ms e2e-tok 1 MA C%s\r\nZ\r\n", token)
	if got := c.line(); got != "EX" {
		t.Fatalf("ms MA with a stale C -> %q, want EX", got)
	}
	c.send("ms e2e-tok 1 MR C%s\r\nZ\r\n", token)
	if got := c.line(); got != "EX" {
		t.Fatalf("ms MR with a stale C -> %q, want EX", got)
	}
	c.send("mg e2e-tok v\r\n")
	if got := c.line(); got != "VA 3" {
		t.Fatalf("mg after stale writes -> %q", got)
	}
	if got := c.read(3 + 2); got != "abc\r\n" {
		t.Fatalf("a stale token changed the value to %q", got)
	}

	c.set("e2e-tok-ctr", "10")
	c.send("ma e2e-tok-ctr M- D3 v\r\n")
	if got := c.line(); got != "VA 1" {
		t.Fatalf("ma M- -> %q", got)
	}
	if got := c.read(1 + 2); got != "7\r\n" {
		t.Fatalf("ma M- value %q, want 7", got)
	}

	// Every mode echoes the token it wrote: the one a following mg c reads.
	for _, cmd := range []string{
		"ms e2e-tok 1 MA c\r\nZ\r\n",
		"ms e2e-tok 1 MP c\r\nZ\r\n",
		"ms e2e-tok 3 MR c\r\nxyz\r\n",
		"ma e2e-tok-ctr c\r\n",
	} {
		c.send("%s", cmd)
		wrote := c.line()
		c.send("mg %s c\r\n", strings.Fields(cmd)[1])
		if read := c.line(); !strings.HasPrefix(wrote, "HD c") || read != wrote {
			t.Fatalf("%q echoed %q, then mg c read %q", cmd, wrote, read)
		}
	}
}

// TestE2ELargeValue pushes a value big enough to stripe across all
// erasure-coded chunks through the text protocol.
func TestE2ELargeValue(t *testing.T) {
	c := dialProxy(t)
	big := strings.Repeat("Z", 128<<10)
	c.send("set e2e-big 0 0 %d\r\n%s\r\n", len(big), big)
	if got := c.line(); got != "STORED" {
		t.Fatalf("set big -> %q", got)
	}
	c.send("get e2e-big\r\n")
	if got := c.line(); got != fmt.Sprintf("VALUE e2e-big 0 %d", len(big)) {
		t.Fatalf("header %q", got)
	}
	if got := c.read(len(big) + 2); got[:len(big)] != big {
		t.Fatal("big value corrupted through proxy")
	}
	c.line()
}

// TestE2EIncrDecrConformance pins the memcached arithmetic edge
// semantics on the wire: incr wraps around the uint64 boundary, decr
// clamps at zero, and the two distinct CLIENT_ERROR texts distinguish
// a malformed delta argument from a non-numeric stored value.
func TestE2EIncrDecrConformance(t *testing.T) {
	c := dialProxy(t)

	// incr wraps at 2^64, exactly as memcached does.
	c.set("e2e-wrap", "18446744073709551615")
	c.send("incr e2e-wrap 1\r\n")
	if got := c.line(); got != "0" {
		t.Fatalf("incr at uint64 max -> %q, want 0 (wraparound)", got)
	}
	c.send("incr e2e-wrap 5\r\n")
	if got := c.line(); got != "5" {
		t.Fatalf("incr after wrap -> %q, want 5", got)
	}

	// decr clamps at zero, never wraps.
	c.set("e2e-clamp", "3")
	c.send("decr e2e-clamp 10\r\n")
	if got := c.line(); got != "0" {
		t.Fatalf("decr below zero -> %q, want 0 (clamp)", got)
	}
	c.send("decr e2e-clamp 1\r\n")
	if got := c.line(); got != "0" {
		t.Fatalf("decr at zero -> %q, want 0", got)
	}

	// A non-numeric delta is a malformed argument...
	c.send("incr e2e-clamp abc\r\n")
	if got := c.line(); got != "CLIENT_ERROR invalid numeric delta argument" {
		t.Fatalf("incr with bad delta -> %q", got)
	}
	c.send("decr e2e-clamp -1\r\n")
	if got := c.line(); got != "CLIENT_ERROR invalid numeric delta argument" {
		t.Fatalf("decr with negative delta -> %q", got)
	}

	// ...while a non-numeric stored value is a different error.
	c.set("e2e-text", "not-a-number")
	c.send("incr e2e-text 1\r\n")
	if got := c.line(); got != "CLIENT_ERROR cannot increment or decrement non-numeric value" {
		t.Fatalf("incr on non-numeric value -> %q", got)
	}
	c.send("decr e2e-text 1\r\n")
	if got := c.line(); got != "CLIENT_ERROR cannot increment or decrement non-numeric value" {
		t.Fatalf("decr on non-numeric value -> %q", got)
	}

	// Missing keys answer NOT_FOUND, not an error.
	c.send("incr e2e-incr-missing 1\r\n")
	if got := c.line(); got != "NOT_FOUND" {
		t.Fatalf("incr on missing key -> %q", got)
	}

	// The meta protocol shares the same arithmetic core: wrap and clamp
	// behave identically through ma.
	c.set("e2e-ma-wrap", "18446744073709551615")
	c.send("ma e2e-ma-wrap v\r\n")
	if got := c.line(); got != "VA 1" {
		t.Fatalf("ma incr at uint64 max -> %q", got)
	}
	if got := c.read(1 + 2); got != "0\r\n" {
		t.Fatalf("ma wrapped value %q, want 0", got)
	}
	c.set("e2e-ma-clamp", "3")
	c.send("ma e2e-ma-clamp MD D10 v\r\n")
	if got := c.line(); got != "VA 1" {
		t.Fatalf("ma decr below zero -> %q", got)
	}
	if got := c.read(1 + 2); got != "0\r\n" {
		t.Fatalf("ma clamped value %q, want 0", got)
	}
	c.send("ma e2e-text\r\n")
	if got := c.line(); got != "CLIENT_ERROR cannot increment or decrement non-numeric value" {
		t.Fatalf("ma on non-numeric value -> %q", got)
	}
}

func TestE2EStatsVersionQuit(t *testing.T) {
	c := dialProxy(t)
	c.send("version\r\n")
	if got := c.line(); !strings.HasPrefix(got, "VERSION ") {
		t.Fatalf("version -> %q", got)
	}
	c.send("stats\r\n")
	saw := false
	for {
		line := c.line()
		if line == "END" {
			break
		}
		if strings.HasPrefix(line, "STAT live_servers 5") {
			saw = true
		}
	}
	if !saw {
		t.Fatal("stats did not report 5 live servers")
	}
	c.send("quit\r\n")
	if _, err := c.br.ReadString('\n'); err == nil {
		t.Fatal("connection open after quit")
	}
}
