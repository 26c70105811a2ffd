package repro

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestGoldenFigures regenerates a fast subset of the simulated figures
// at seed 1 and compares each command's stdout byte for byte with its
// golden under testdata/. The simulator runs in virtual time, so the
// output repeats exactly on any host: a diff is a change to the
// figures. After a deliberate one, regenerate the golden with the
// command the case runs, e.g.
//
//	go -C repro run ./cmd/kvbench -fig 8a -ops 200 -seed 1 > repro/testdata/kvbench-fig8a.golden
func TestGoldenFigures(t *testing.T) {
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "./cmd/kvbench", "./cmd/boldiobench")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"kvbench-fig8a", []string{"kvbench", "-fig", "8a", "-ops", "200", "-seed", "1"}},
		{"kvbench-fig8b", []string{"kvbench", "-fig", "8b", "-ops", "200", "-seed", "1"}},
		{"kvbench-fig8c", []string{"kvbench", "-fig", "8c", "-ops", "200", "-seed", "1"}},
		{"kvbench-fig10", []string{"kvbench", "-fig", "10", "-ops", "200", "-seed", "1"}},
		{"boldiobench", []string{"boldiobench", "-seed", "1"}},
	} {
		t.Run(c.golden, func(t *testing.T) {
			got, err := exec.Command(filepath.Join(bin, c.args[0]), c.args[1:]...).Output()
			if err != nil {
				t.Fatalf("%v: %v", c.args, err)
			}
			path := filepath.Join("testdata", c.golden+".golden")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%v differs from %s\ngot:\n%s\nwant:\n%s", c.args, path, got, want)
			}
		})
	}
}
