//go:build race

package core_test

// raceEnabled reports whether the race detector is active. Its
// instrumentation allocates, so allocation counts are not pinned under
// it.
const raceEnabled = true
