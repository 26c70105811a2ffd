package memproto

import (
	"slices"
	"strings"
	"testing"
)

// FuzzAppendFields holds the handler's reusable split to strings.Fields
// word for word on any line — Unicode spaces and invalid UTF-8 included
// — and checks that it appends after what dst already holds.
func FuzzAppendFields(f *testing.F) {
	for _, s := range []string{"", "get a b", "  set k 0 0 5  ", "mg\tk\vv\r", "a b\u0085c d", "\xff \xfe\x85 \xc2"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got := appendFields([]string{"prior"}, s)
		if want := append([]string{"prior"}, strings.Fields(s)...); !slices.Equal(got, want) {
			t.Fatalf("appendFields(%q) = %q, want %q", s, got[1:], want[1:])
		}
	})
}
