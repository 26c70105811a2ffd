package hashring

import (
	"fmt"
	"testing"
)

func BenchmarkGetN(b *testing.B) {
	for _, members := range []int{5, 20} {
		b.Run(fmt.Sprintf("members%d", members), func(b *testing.B) {
			r := newTestRing(members)
			keys := make([]string, 1024)
			for i := range keys {
				keys[i] = fmt.Sprintf("key-%d", i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := r.GetN(keys[i%len(keys)], 5); len(got) != 5 {
					b.Fatal("short placement")
				}
			}
		})
	}
}
