package erasure

import (
	"bytes"
	"fmt"

	"ecstore/internal/gf256"
)

// bitWordSize is the word size w used by the bit-matrix codes. Each
// shard is treated as w packets and coding is scheduled as packet-level
// XOR operations, as in Jerasure's cauchy and liberation coders.
const bitWordSize = 8

// bitCode is the shared engine behind CauchyRS and Liberation: an MDS
// code whose generator is a GF(2) bit matrix of shape w(k+m) × wk with
// an identity top. Encoding XORs data packets into parity packets
// according to the matrix; decoding inverts the surviving rows.
type bitCode struct {
	k, m, w int
	name    string
	gen     *BitMatrix
}

// newBitCode builds the engine from the bottom (parity) part of the
// generator expressed as a GF(2^8) element matrix of shape m×k: each
// element becomes an 8×8 multiply bit block.
func newBitCode(name string, k, m int, bottom *Matrix) (*bitCode, error) {
	if err := checkKM(k, m); err != nil {
		return nil, err
	}
	w := bitWordSize
	gen := NewBitMatrix(w*(k+m), w*k)
	for i := 0; i < w*k; i++ {
		gen.Set(i, i, 1)
	}
	for r := 0; r < m; r++ {
		for c := 0; c < k; c++ {
			gen.SetBlock(w*(k+r), w*c, bottom.At(r, c))
		}
	}
	return &bitCode{k: k, m: m, w: w, name: name, gen: gen}, nil
}

func (b *bitCode) K() int       { return b.k }
func (b *bitCode) M() int       { return b.m }
func (b *bitCode) Name() string { return b.name }

// packets slices shard s into w equal packets.
func (b *bitCode) packets(s []byte) [][]byte {
	ps := len(s) / b.w
	out := make([][]byte, b.w)
	for i := range out {
		out[i] = s[i*ps : (i+1)*ps]
	}
	return out
}

func (b *bitCode) checkSize(size int) error {
	if size%b.w != 0 || size == 0 {
		return fmt.Errorf("%w: bit-matrix codes need shard size divisible by %d, got %d", ErrShardSize, b.w, size)
	}
	return nil
}

// Encode computes parity shards as packet XOR schedules.
func (b *bitCode) Encode(shards [][]byte) error {
	size, _, err := checkShards(shards, b.k, b.m, true)
	if err != nil {
		return err
	}
	if err := b.checkSize(size); err != nil {
		return err
	}
	dataPkts := make([][]byte, 0, b.k*b.w)
	for i := 0; i < b.k; i++ {
		dataPkts = append(dataPkts, b.packets(shards[i])...)
	}
	for i := b.k; i < b.k+b.m; i++ {
		if shards[i] == nil {
			shards[i] = make([]byte, size)
		} else {
			clear(shards[i])
		}
	}
	for p := 0; p < b.m; p++ {
		outPkts := b.packets(shards[b.k+p])
		for r := 0; r < b.w; r++ {
			row := b.gen.Row(b.w*(b.k+p) + r)
			dst := outPkts[r]
			for q, bit := range row {
				if bit != 0 {
					xorBytes(dataPkts[q], dst)
				}
			}
		}
	}
	return nil
}

// Reconstruct recovers every nil shard from any k present shards.
func (b *bitCode) Reconstruct(shards [][]byte) error {
	size, present, err := checkShards(shards, b.k, b.m, false)
	if err != nil {
		return err
	}
	if err := b.checkSize(size); err != nil {
		return err
	}
	if present < b.k {
		return fmt.Errorf("%w: have %d of %d", ErrTooFewShards, present, b.k)
	}
	missingData := false
	for i := 0; i < b.k; i++ {
		if shards[i] == nil {
			missingData = true
			break
		}
	}
	if missingData {
		if err := b.reconstructData(shards, size); err != nil {
			return err
		}
	}
	// Recompute missing parity from complete data.
	dataPkts := make([][]byte, 0, b.k*b.w)
	for i := 0; i < b.k; i++ {
		dataPkts = append(dataPkts, b.packets(shards[i])...)
	}
	for p := 0; p < b.m; p++ {
		idx := b.k + p
		if shards[idx] != nil {
			continue
		}
		shards[idx] = make([]byte, size)
		outPkts := b.packets(shards[idx])
		for r := 0; r < b.w; r++ {
			row := b.gen.Row(b.w*idx + r)
			for q, bit := range row {
				if bit != 0 {
					xorBytes(dataPkts[q], outPkts[r])
				}
			}
		}
	}
	return nil
}

func (b *bitCode) reconstructData(shards [][]byte, size int) error {
	avail := make([]int, 0, b.k)
	for i := 0; i < len(shards) && len(avail) < b.k; i++ {
		if shards[i] != nil {
			avail = append(avail, i)
		}
	}
	rows := make([]int, 0, b.k*b.w)
	availPkts := make([][]byte, 0, b.k*b.w)
	for _, i := range avail {
		for r := 0; r < b.w; r++ {
			rows = append(rows, b.w*i+r)
		}
		availPkts = append(availPkts, b.packets(shards[i])...)
	}
	inv, err := b.gen.SubMatrixRows(rows).Invert()
	if err != nil {
		return fmt.Errorf("%s decode: %w", b.name, err)
	}
	for d := 0; d < b.k; d++ {
		if shards[d] != nil {
			continue
		}
		shards[d] = make([]byte, size)
		outPkts := b.packets(shards[d])
		for r := 0; r < b.w; r++ {
			row := inv.Row(b.w*d + r)
			for q, bit := range row {
				if bit != 0 {
					xorBytes(availPkts[q], outPkts[r])
				}
			}
		}
	}
	return nil
}

// Verify recomputes parity and compares.
func (b *bitCode) Verify(shards [][]byte) (bool, error) {
	size, _, err := checkShards(shards, b.k, b.m, true)
	if err != nil {
		return false, err
	}
	if err := b.checkSize(size); err != nil {
		return false, err
	}
	for i := b.k; i < b.k+b.m; i++ {
		if shards[i] == nil {
			return false, nil
		}
	}
	dataPkts := make([][]byte, 0, b.k*b.w)
	for i := 0; i < b.k; i++ {
		dataPkts = append(dataPkts, b.packets(shards[i])...)
	}
	buf := make([]byte, size)
	for p := 0; p < b.m; p++ {
		clear(buf)
		outPkts := b.packets(buf)
		for r := 0; r < b.w; r++ {
			row := b.gen.Row(b.w*(b.k+p) + r)
			for q, bit := range row {
				if bit != 0 {
					xorBytes(dataPkts[q], outPkts[r])
				}
			}
		}
		if !bytes.Equal(buf, shards[b.k+p]) {
			return false, nil
		}
	}
	return true, nil
}

// CauchyRS is Cauchy Reed-Solomon coding (Jerasure's cauchy_orig /
// CRS): the generator is a Cauchy matrix over GF(2^8) expanded into a
// GF(2) bit matrix and executed as packet XOR schedules. This trades
// GF multiplications for a larger number of XOR passes, which pays off
// only at large buffer sizes — the effect the paper's Figure 4 shows.
type CauchyRS struct {
	*bitCode
}

var _ Code = (*CauchyRS)(nil)

// NewCauchyRS constructs a CRS(k, m) code.
func NewCauchyRS(k, m int) (*CauchyRS, error) {
	if err := checkKM(k, m); err != nil {
		return nil, err
	}
	bc, err := newBitCode("cauchy-rs", k, m, Cauchy(m, k))
	if err != nil {
		return nil, err
	}
	return &CauchyRS{bitCode: bc}, nil
}

// Liberation is a RAID-6 (m = 2) bit-matrix code in the style of
// Plank's Liberation/Liber8tion minimum-density codes with word size
// w = 8: the P drive is the plain XOR of all data packets (identity bit
// blocks) and the Q drive applies one 8×8 bit block per data shard (the
// multiply-by-α^i maps), giving the same XOR-schedule execution profile
// and the same any-two-erasure recovery guarantee.
type Liberation struct {
	*bitCode
}

var _ Code = (*Liberation)(nil)

// NewLiberation constructs the RAID-6 code for k data shards. m is
// fixed at 2; k must be at most 255.
func NewLiberation(k int) (*Liberation, error) {
	if k <= 0 || k > 255 {
		return nil, fmt.Errorf("erasure: liberation requires 1 <= k <= 255, got %d", k)
	}
	bottom := NewMatrix(2, k)
	for c := 0; c < k; c++ {
		bottom.Set(0, c, 1)            // P: XOR of all data
		bottom.Set(1, c, gf256.Exp(c)) // Q: Σ α^c · d_c
	}
	bc, err := newBitCode("r6-lib", k, 2, bottom)
	if err != nil {
		return nil, err
	}
	return &Liberation{bitCode: bc}, nil
}
