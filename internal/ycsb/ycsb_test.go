package ycsb

import (
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestZipfianRangeAndSkew(t *testing.T) {
	const n = 1000
	g := NewZipfian(n, ZipfianConstant)
	rng := rand.New(rand.NewSource(3))
	counts := make([]int, n)
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := g.Next(rng)
		if v >= n {
			t.Fatalf("zipfian out of range: %d", v)
		}
		counts[v]++
	}
	// Item 0 must be the hottest, far above the uniform share.
	if counts[0] < draws/100*5 { // >= 5%: zipf(0.99) head is ~12%
		t.Fatalf("item 0 drawn %d times of %d; distribution not skewed", counts[0], draws)
	}
	if counts[0] <= counts[n-1] {
		t.Fatal("head not hotter than tail")
	}
	// Monotone-ish: head must dominate the middle.
	if counts[0] < counts[n/2]*10 {
		t.Fatalf("head %d vs middle %d: insufficient skew", counts[0], counts[n/2])
	}
}

func TestScrambledZipfianSpreadsHotKeys(t *testing.T) {
	const n = 1000
	g := NewScrambledZipfian(n)
	rng := rand.New(rand.NewSource(4))
	counts := make(map[uint64]int)
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := g.Next(rng)
		if v >= n {
			t.Fatalf("scrambled out of range: %d", v)
		}
		counts[v]++
	}
	// Still skewed: the top item holds a large share...
	type kv struct {
		item  uint64
		count int
	}
	all := make([]kv, 0, len(counts))
	for item, c := range counts {
		all = append(all, kv{item, c})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].count > all[j].count })
	if all[0].count < draws*5/100 {
		t.Fatalf("top item share %d/%d too small", all[0].count, draws)
	}
	// ...but the hottest items are not clustered at low indexes.
	lowIndexed := 0
	for _, e := range all[:10] {
		if e.item < 10 {
			lowIndexed++
		}
	}
	if lowIndexed > 3 {
		t.Fatalf("%d of the 10 hottest items have index < 10; scrambling broken", lowIndexed)
	}
}

func TestGeneratorDeterministicWithSeed(t *testing.T) {
	a := NewScrambledZipfian(500)
	b := NewScrambledZipfian(500)
	ra := rand.New(rand.NewSource(9))
	rb := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		if a.Next(ra) != b.Next(rb) {
			t.Fatal("same seed produced different sequences")
		}
	}
}

func TestZeta(t *testing.T) {
	// zeta(3, 1) = 1 + 1/2 + 1/3
	got := zeta(3, 1)
	want := 1.0 + 0.5 + 1.0/3.0
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("zeta(3,1) = %v, want %v", got, want)
	}
}

// fakeDB is an in-memory DB recording operation counts.
type fakeDB struct {
	mu   sync.Mutex
	m    map[string][]byte
	gets int
	sets int
}

func newFakeDB() *fakeDB { return &fakeDB{m: make(map[string][]byte)} }

func (f *fakeDB) Set(key string, value []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sets++
	v := make([]byte, len(value))
	copy(v, value)
	f.m[key] = v
	return nil
}

func (f *fakeDB) Get(key string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gets++
	return f.m[key], nil
}

func TestLoadAndRun(t *testing.T) {
	db := newFakeDB()
	cfg := Config{
		Workload:     WorkloadA,
		RecordCount:  200,
		Clients:      4,
		OpsPerClient: 250,
		ValueSize:    128,
		KeyPrefix:    "t-",
		Seed:         1,
	}
	if err := Load(db, cfg); err != nil {
		t.Fatal(err)
	}
	if len(db.m) != 200 {
		t.Fatalf("loaded %d records", len(db.m))
	}
	for k := range db.m {
		if !strings.HasPrefix(k, "t-user") {
			t.Fatalf("unexpected key %q", k)
		}
	}
	res := Run(db, cfg)
	totalOps := 4 * 250
	if int(res.Ops) != totalOps {
		t.Fatalf("ops = %d, want %d", res.Ops, totalOps)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
	// Workload A: roughly half reads, half writes.
	reads := int(res.ReadLatency.Count())
	writes := int(res.WriteLatency.Count())
	if reads+writes != totalOps {
		t.Fatalf("reads %d + writes %d != %d", reads, writes, totalOps)
	}
	if reads < totalOps*35/100 || reads > totalOps*65/100 {
		t.Fatalf("reads = %d of %d; want ~50%%", reads, totalOps)
	}
	if res.Throughput() <= 0 {
		t.Fatal("zero throughput")
	}
}

func TestWorkloadBReadHeavy(t *testing.T) {
	db := newFakeDB()
	cfg := Config{
		Workload:     WorkloadB,
		RecordCount:  100,
		Clients:      2,
		OpsPerClient: 500,
		ValueSize:    64,
		Seed:         2,
	}
	if err := Load(db, cfg); err != nil {
		t.Fatal(err)
	}
	res := Run(db, cfg)
	reads := float64(res.ReadLatency.Count())
	total := float64(res.Ops)
	if frac := reads / total; frac < 0.90 || frac > 0.99 {
		t.Fatalf("read fraction %.3f, want ~0.95", frac)
	}
}

// uniform draws uniformly from [0, n): a caller's own Generator.
type uniform uint64

func (u uniform) Next(rng *rand.Rand) uint64 { return uint64(rng.Int63n(int64(u))) }

// TestRunUniformDistribution: a run draws its keys from the Generator
// it is handed.
func TestRunUniformDistribution(t *testing.T) {
	db := newFakeDB()
	cfg := Config{
		Workload:     WorkloadC,
		RecordCount:  50,
		Clients:      1,
		OpsPerClient: 200,
		ValueSize:    16,
		Seed:         3,
	}
	if err := Load(db, cfg); err != nil {
		t.Fatal(err)
	}
	res := RunWith(db, cfg, uniform(50))
	if res.WriteLatency.Count() != 0 {
		t.Fatal("workload C issued writes")
	}
	if res.Ops != 200 {
		t.Fatalf("ops = %d", res.Ops)
	}
}

func TestThroughputZeroElapsed(t *testing.T) {
	if (Result{}).Throughput() != 0 {
		t.Fatal("zero-elapsed result must have zero throughput")
	}
}

func TestKeyFormat(t *testing.T) {
	if Key("p-", 42) != "p-user42" {
		t.Fatalf("Key = %q", Key("p-", 42))
	}
}
