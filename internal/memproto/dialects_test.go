package memproto_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"ecstore/internal/memproto"
	"ecstore/internal/metrics"
)

// recordingBackend logs every Backend call with its arguments, so two
// conversations can be compared call for call.
type recordingBackend struct {
	*fakeBackend
	calls []string
}

func (b *recordingBackend) log(format string, args ...any) {
	b.calls = append(b.calls, fmt.Sprintf(format, args...))
}

func (b *recordingBackend) Set(key string, value []byte, ttl time.Duration) (uint64, error) {
	b.log("Set %s %q %v", key, value, ttl)
	return b.fakeBackend.Set(key, value, ttl)
}

func (b *recordingBackend) Get(key string) (memproto.Item, error) {
	b.log("Get %s", key)
	return b.fakeBackend.Get(key)
}

func (b *recordingBackend) GetMulti(keys []string) (map[string]memproto.Item, map[string]error) {
	b.log("GetMulti %v", keys)
	return b.fakeBackend.GetMulti(keys)
}

func (b *recordingBackend) Cas(key string, value []byte, ttl time.Duration, cas uint64) (uint64, error) {
	b.log("Cas %s %q %v %d", key, value, ttl, cas)
	return b.fakeBackend.Cas(key, value, ttl, cas)
}

func (b *recordingBackend) Delete(key string) (bool, error) {
	b.log("Delete %s", key)
	return b.fakeBackend.Delete(key)
}

func (b *recordingBackend) DeleteCas(key string, cas uint64) error {
	b.log("DeleteCas %s %d", key, cas)
	return b.fakeBackend.DeleteCas(key, cas)
}

// outcomeClass maps the first reply line of either dialect onto the
// class both dialects share.
func outcomeClass(reply string) string {
	line, _, _ := strings.Cut(reply, "\r\n")
	switch {
	case line == "STORED", line == "DELETED", line == "HD", strings.HasPrefix(line, "VA "),
		line != "" && line[0] >= '0' && line[0] <= '9':
		return "ok"
	case line == "NOT_STORED", line == "NS":
		return "not-stored"
	case line == "EXISTS", line == "EX":
		return "exists"
	case line == "NOT_FOUND", line == "NF":
		return "not-found"
	}
	return "failed: " + line
}

// TestDialectsAgree runs each operation once as a text command and once
// as its meta equivalent against the same starting state, and requires
// the same Backend calls with the same arguments and the same outcome
// class. Operations the text dialect cannot express (a token on
// replace/append/prepend) check the meta form against the calls and
// class memcached's semantics imply: a stale token writes nothing.
func TestDialectsAgree(t *testing.T) {
	cases := []struct {
		name    string
		present bool   // k holds "10" (token 1) before the op
		text    string // empty: no text form
		meta    string
		class   string
		calls   []string // checked when there is no text form
	}{
		{"set", false, "set k 5 0 2\r\nhi\r\n", "ms k 2 F5\r\nhi\r\n", "ok", nil},
		{"set/ttl", true, "set k 5 60 2\r\nhi\r\n", "ms k 2 F5 T60 MS\r\nhi\r\n", "ok", nil},
		{"add/absent", false, "add k 5 0 2\r\nhi\r\n", "ms k 2 F5 ME\r\nhi\r\n", "ok", nil},
		{"add/present", true, "add k 5 0 2\r\nhi\r\n", "ms k 2 F5 ME\r\nhi\r\n", "not-stored", nil},
		{"replace/present", true, "replace k 5 0 2\r\nhi\r\n", "ms k 2 F5 MR\r\nhi\r\n", "ok", nil},
		{"replace/absent", false, "replace k 5 0 2\r\nhi\r\n", "ms k 2 F5 MR\r\nhi\r\n", "not-stored", nil},
		{"append", true, "append k 0 0 2\r\nhi\r\n", "ms k 2 MA\r\nhi\r\n", "ok", nil},
		{"append/absent", false, "append k 0 0 2\r\nhi\r\n", "ms k 2 MA\r\nhi\r\n", "not-stored", nil},
		{"prepend", true, "prepend k 0 0 2\r\nhi\r\n", "ms k 2 MP\r\nhi\r\n", "ok", nil},
		{"cas/fresh", true, "cas k 5 0 2 1\r\nhi\r\n", "ms k 2 F5 C1\r\nhi\r\n", "ok", nil},
		{"cas/stale", true, "cas k 5 0 2 99\r\nhi\r\n", "ms k 2 F5 C99\r\nhi\r\n", "exists", nil},
		{"cas/absent", false, "cas k 5 0 2 99\r\nhi\r\n", "ms k 2 F5 C99\r\nhi\r\n", "not-found", nil},
		{"delete", true, "delete k\r\n", "md k\r\n", "ok", nil},
		{"delete/absent", false, "delete k\r\n", "md k\r\n", "not-found", nil},
		{"incr", true, "incr k 5\r\n", "ma k D5\r\n", "ok", nil},
		{"incr/absent", false, "incr k 5\r\n", "ma k D5\r\n", "not-found", nil},
		{"decr/MD", true, "decr k 15\r\n", "ma k MD D15\r\n", "ok", nil},
		{"decr/M-", true, "decr k 3\r\n", "ma k M- D3\r\n", "ok", nil},
		{"replace/stale-token", true, "", "ms k 2 MR C99\r\nhi\r\n", "exists", []string{"Get k"}},
		{"append/stale-token", true, "", "ms k 2 MA C99\r\nhi\r\n", "exists", []string{"Get k"}},
		{"prepend/stale-token", true, "", "ms k 2 MP C99\r\nhi\r\n", "exists", []string{"Get k"}},
		{"append/fresh-token", true, "", "ms k 2 MA C1\r\nhi\r\n", "ok",
			[]string{"Get k", `Cas k "\x00\x00\x00\x0010hi" 0s 1`}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exec := func(script string) (string, []string, []byte) {
				b := &recordingBackend{fakeBackend: newFakeBackend()}
				if tc.present {
					b.store("k", []byte("\x00\x00\x00\x0010"))
				}
				reply := runScript(t, b, script)
				return outcomeClass(reply), b.calls, b.items["k"].Value
			}
			class, calls, value := exec(tc.meta)
			if class != tc.class {
				t.Errorf("%q answered %s, want %s", tc.meta, class, tc.class)
			}
			if tc.text == "" {
				if !reflect.DeepEqual(calls, tc.calls) {
					t.Errorf("%q made calls %q, want %q", tc.meta, calls, tc.calls)
				}
				if tc.class == "exists" && string(value) != "\x00\x00\x00\x0010" {
					t.Errorf("%q with a stale token changed the value to %q", tc.meta, value)
				}
				return
			}
			textClass, textCalls, textValue := exec(tc.text)
			if textClass != class {
				t.Errorf("%q answered %s but %q answered %s", tc.text, textClass, tc.meta, class)
			}
			if !reflect.DeepEqual(textCalls, calls) {
				t.Errorf("backend calls differ:\n text %q\n meta %q", textCalls, calls)
			}
			if string(textValue) != string(value) {
				t.Errorf("stored value differs: text %q, meta %q", textValue, value)
			}
		})
	}

	// Every meta write that asks for c echoes the token it wrote: the one
	// a following mg c reports, whatever the mode — a read-modify-write
	// (replace, append, prepend, ma) as much as a plain set or add.
	echoes := []struct {
		name    string
		present bool
		meta    string
	}{
		{"set/c", true, "ms k 2 c\r\nhi\r\n"},
		{"add/c", false, "ms k 2 ME c\r\nhi\r\n"},
		{"replace/c", true, "ms k 2 MR c\r\nhi\r\n"},
		{"append/c", true, "ms k 2 MA c\r\nhi\r\n"},
		{"prepend/c", true, "ms k 2 MP c\r\nhi\r\n"},
		{"append/fresh-token/c", true, "ms k 2 MA C1 c\r\nhi\r\n"},
		{"incr/c", true, "ma k D5 c\r\n"},
		{"incr/autoviv/c", false, "ma k N0 c\r\n"},
	}
	for _, tc := range echoes {
		t.Run(tc.name, func(t *testing.T) {
			b := newFakeBackend()
			if tc.present {
				b.store("k", []byte("\x00\x00\x00\x0010"))
			}
			reply := runScript(t, b, tc.meta+"mg k c\r\n")
			wrote, read, _ := strings.Cut(strings.TrimSuffix(reply, "\r\n"), "\r\n")
			if !strings.HasPrefix(wrote, "HD c") || read != "HD c"+strings.TrimPrefix(wrote, "HD c") {
				t.Errorf("%q echoed %q, then mg k c read %q", tc.meta, wrote, read)
			}
		})
	}
}

// TestCommandErrorsCountErrorRepliesOnly: in both dialects a command
// counts as an error only when it is answered ERROR, CLIENT_ERROR or
// SERVER_ERROR — NOT_STORED/EXISTS/NS/EX/NF are answers.
func TestCommandErrorsCountErrorRepliesOnly(t *testing.T) {
	reg := metrics.NewRegistry()
	b := newFakeBackend()
	b.store("k", []byte("\x00\x00\x00\x00ab"))
	runScript(t, b, "add k 0 0 1\r\nx\r\ncas k 0 0 1 99\r\nx\r\n"+
		"ms k 1 ME\r\nx\r\nms k 1 C99\r\nx\r\nms n 1 MR\r\nx\r\nmd n\r\n"+
		"ms k 1 MX\r\nx\r\nma k\r\nquit\r\n", memproto.WithMetrics(reg))
	snap := reg.Snapshot()
	for cmd, want := range map[string]int64{"add": 0, "cas": 0, "md": 0, "ms": 1, "ma": 1} {
		if got := snap.Counter(`ecstore_proxy_cmd_errors_total{cmd="` + cmd + `"}`); got != want {
			t.Errorf("%s errors = %d, want %d", cmd, got, want)
		}
	}
}
