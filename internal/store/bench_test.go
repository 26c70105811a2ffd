package store

import (
	"fmt"
	"runtime"
	"testing"
)

func BenchmarkSet(b *testing.B) {
	for _, size := range []int{128, 4 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			s := New(Config{})
			value := make([]byte, size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Set(fmt.Sprintf("key-%d", i%1024), value, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGet(b *testing.B) {
	for _, size := range []int{128, 64 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			s := New(Config{})
			value := make([]byte, size)
			for i := 0; i < 1024; i++ {
				_ = s.Set(fmt.Sprintf("key-%d", i), value, 0)
			}
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := s.Get(fmt.Sprintf("key-%d", i%1024)); !ok {
					b.Fatal("miss")
				}
			}
		})
	}
}

func BenchmarkSetWithEviction(b *testing.B) {
	// Every set evicts: the worst-case write path.
	value := make([]byte, 4<<10)
	per := itemSize("key-0000", value)
	s := New(Config{MaxBytes: per * 64, Shards: 1})
	b.SetBytes(int64(len(value)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Set(fmt.Sprintf("key-%04d", i%100000), value, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkItemHeap reports the heap a stored item really takes beyond
// its key and value bytes (B/item: entry, map slot, their share of the
// table), to set beside the ItemOverhead the budget charges per item.
// Keys and the value are allocated before the first measurement and the
// value is shared, so only the store's own allocations count. The items
// are one RS(3,2) chunk record of a 1 KB value each, under chunk keys.
func BenchmarkItemHeap(b *testing.B) {
	const items = 1 << 16
	value := make([]byte, 354)
	keys := make([]string, items)
	for i := range keys {
		keys[i] = fmt.Sprintf("user%015d\x00c%d", i, i%5)
	}
	var perItem float64
	for i := 0; i < b.N; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s := New(Config{})
		for _, key := range keys {
			if err := s.Set(key, value, 0); err != nil {
				b.Fatal(err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		perItem = float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / items
		runtime.KeepAlive(s)
	}
	b.ReportMetric(perItem, "B/item")
}

func BenchmarkConcurrentMixed(b *testing.B) {
	s := New(Config{})
	value := make([]byte, 1024)
	for i := 0; i < 1024; i++ {
		_ = s.Set(fmt.Sprintf("key-%d", i), value, 0)
	}
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			key := fmt.Sprintf("key-%d", i%1024)
			if i%4 == 0 {
				_ = s.Set(key, value, 0)
			} else {
				_, _ = s.Get(key)
			}
		}
	})
}
