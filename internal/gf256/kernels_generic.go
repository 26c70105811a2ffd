//go:build !amd64 || purego

package gf256

// No vector unit on this build: the three kernels cover nothing and the
// portable loops in gf256.go do the whole slice.

func mulVec(c byte, in, out []byte) int    { return 0 }
func mulAddVec(c byte, in, out []byte) int { return 0 }
func addVec(in, out []byte) int            { return 0 }
