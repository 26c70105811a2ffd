package core_test

import (
	"testing"

	"ecstore/internal/core"
)

// TestParseMode round-trips every mode name the commands accept through
// Resilience.String / Scheme.String, and rejects an unknown one — and
// era-ce-sd, the scheme the paper argues unsuitable, which the store
// does not carry.
func TestParseMode(t *testing.T) {
	for _, name := range []string{
		"none", "sync-rep", "async-rep", "era-ce-cd", "era-se-sd", "era-se-cd", "hybrid",
	} {
		r, s, err := core.ParseMode(name)
		if err != nil {
			t.Fatalf("ParseMode(%q): %v", name, err)
		}
		got := r.String()
		if r == core.ResilienceErasure {
			got = s.String()
		} else if s != 0 {
			t.Errorf("ParseMode(%q) = %v with scheme %v, want no scheme", name, r, s)
		}
		if got != name {
			t.Errorf("ParseMode(%q) = %v/%v, which prints as %q", name, r, s, got)
		}
	}
	for _, name := range []string{"", "erasure", "era", "ERA-CE-CD", "sync", "era-ce-sd"} {
		if _, _, err := core.ParseMode(name); err == nil {
			t.Errorf("ParseMode(%q) accepted an unknown mode", name)
		}
	}
}
