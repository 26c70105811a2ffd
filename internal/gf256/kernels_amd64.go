//go:build amd64 && !purego

package gf256

// hasAVX2 is the hardware's answer, asked once: the CPU has AVX2 and the
// operating system saves the YMM registers.
var hasAVX2 = detectAVX2()

// nibbles holds the split tables of every coefficient: nibbles[c][x] is
// c·x and nibbles[c][16+x] is c·(x<<4) for the sixteen nibble values x,
// so c·b = nibbles[c][b&15] ^ nibbles[c][16+b>>4] — two 16-byte tables a
// VPSHUFB looks up 32 bytes at a time. 8 KB, derived from the product
// table at init.
var nibbles = buildNibbles()

func buildNibbles() *[256][32]byte {
	t := &[256][32]byte{}
	for c := range t {
		for x := 0; x < 16; x++ {
			t[c][x] = _tables.mul[c][x]
			t[c][16+x] = _tables.mul[c][x<<4]
		}
	}
	return t
}

// vecBytes is how many leading bytes of an n-byte slice the vector
// kernels take: its whole 32-byte blocks, or none without AVX2.
func vecBytes(n int) int {
	if !hasAVX2 {
		return 0
	}
	return n &^ 31
}

// mulVec, mulAddVec and addVec run the vector kernel over the leading
// whole 32-byte blocks of in and out (equal lengths, checked by the
// caller) and return how many bytes that covered.

func mulVec(c byte, in, out []byte) int {
	n := vecBytes(len(in))
	if n > 0 {
		mulAVX2(&nibbles[c], &in[0], &out[0], n)
	}
	return n
}

func mulAddVec(c byte, in, out []byte) int {
	n := vecBytes(len(in))
	if n > 0 {
		mulAddAVX2(&nibbles[c], &in[0], &out[0], n)
	}
	return n
}

func addVec(in, out []byte) int {
	n := vecBytes(len(in))
	if n > 0 {
		addAVX2(&in[0], &out[0], n)
	}
	return n
}

// The assembly kernels (kernels_amd64.s). n is a positive multiple of 32;
// out may be in itself: every block is loaded before it is stored.

//go:noescape
func mulAVX2(tbl *[32]byte, in, out *byte, n int)

//go:noescape
func mulAddAVX2(tbl *[32]byte, in, out *byte, n int)

//go:noescape
func addAVX2(in, out *byte, n int)

func detectAVX2() bool
