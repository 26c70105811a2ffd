package erasure_test

import (
	"fmt"

	"ecstore/internal/erasure"
)

// Encode a value into 3 data + 2 parity chunks, lose two chunks,
// and recover the original — the paper's RS(3,2) on a 5-node cluster.
func ExampleRSVan() {
	code, err := erasure.NewRSVan(3, 2)
	if err != nil {
		panic(err)
	}
	value := []byte("the quick brown fox jumps over the lazy dog")

	shards := erasure.Split(value, 3, 2)
	if err := code.Encode(shards); err != nil {
		panic(err)
	}
	fmt.Println("chunks:", len(shards))

	// Any two chunks may be lost.
	shards[0] = nil
	shards[3] = nil
	if err := code.Reconstruct(shards); err != nil {
		panic(err)
	}
	recovered, err := erasure.Join(shards, 3, len(value))
	if err != nil {
		panic(err)
	}
	fmt.Println("recovered:", string(recovered))
	// Output:
	// chunks: 5
	// recovered: the quick brown fox jumps over the lazy dog
}

// Verify detects silent chunk corruption.
func ExampleRSVan_Verify() {
	code, _ := erasure.NewRSVan(3, 2)
	shards := erasure.Split([]byte("important data"), 3, 2)
	_ = code.Encode(shards)

	ok, _ := code.Verify(shards)
	fmt.Println("pristine:", ok)

	shards[1][0] ^= 0xFF // a bit flip in a data chunk
	ok, _ = code.Verify(shards)
	fmt.Println("corrupted:", ok)
	// Output:
	// pristine: true
	// corrupted: false
}
