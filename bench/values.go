package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Every value the benchmark writes is self-describing: a 32-byte header
// (seed, key hash, version, length, header checksum) followed by a
// body that is a window of a seed-derived random pool, at an offset
// fixed by (seed, key, version). A reader therefore verifies a value
// knowing only the key and the version it expects: the header must
// parse and match, and the body must equal the pool window byte for
// byte — stronger than a body checksum and cheaper (one memcmp), which
// matters at 1 MB where a CRC per op would be a tenth of the op.
const (
	valueHeaderLen = 32
	poolLen        = 4 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// valueGen makes and checks values for one seed.
type valueGen struct {
	seed uint64
	pool []byte
}

// splitmix64 is the fixed mixing function keys, sizes, pool bytes and
// offsets derive from; math/rand's stream may change across Go
// releases, this may not.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newValueGen(seed int64) *valueGen {
	g := &valueGen{seed: uint64(seed), pool: make([]byte, poolLen)}
	x := splitmix64(g.seed)
	for i := 0; i < poolLen; i += 8 {
		x = splitmix64(x)
		binary.LittleEndian.PutUint64(g.pool[i:], x)
	}
	return g
}

// keyHash is FNV-1a over the key, mixed with the seed.
func (g *valueGen) keyHash(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return splitmix64(h ^ g.seed)
}

// key names record i of a key family. The seed is part of the name, so
// placement on the hash ring — and with it load balance and which
// chunks a killed server held — varies with the seed and with nothing
// else.
func (g *valueGen) key(family string, i int) string {
	return fmt.Sprintf("%s%08x-%07d", family, uint32(splitmix64(g.seed)), i)
}

// size is the value length for key: nominal ± 1/32, fixed per key so an
// overwrite never changes a key's shard layout.
func (g *valueGen) size(key string, nominal int) int {
	span := nominal / 16
	return nominal - span/2 + int(g.keyHash(key)%uint64(span+1))
}

// make builds the value of (key, version) with the given total length
// (at least valueHeaderLen) in a fresh buffer.
func (g *valueGen) make(key string, version uint32, size int) []byte {
	v := make([]byte, size)
	kh := g.keyHash(key)
	binary.LittleEndian.PutUint64(v[0:], g.seed)
	binary.LittleEndian.PutUint64(v[8:], kh)
	binary.LittleEndian.PutUint32(v[16:], version)
	binary.LittleEndian.PutUint32(v[20:], uint32(size))
	binary.LittleEndian.PutUint32(v[24:], crc32.Checksum(v[:24], castagnoli))
	copy(v[valueHeaderLen:], g.body(kh, version, size-valueHeaderLen))
	return v
}

func (g *valueGen) body(keyHash uint64, version uint32, n int) []byte {
	off := splitmix64(keyHash^uint64(version)*0x9e3779b97f4a7c15) % uint64(poolLen-n+1)
	return g.pool[off : off+uint64(n)]
}

// check verifies that got is exactly the value of (key, version): a
// missing, stale, torn or corrupted value is an error.
func (g *valueGen) check(key string, version uint32, got []byte) error {
	if len(got) < valueHeaderLen {
		return fmt.Errorf("value of %s: %d bytes, shorter than its header", key, len(got))
	}
	if sum := crc32.Checksum(got[:24], castagnoli); binary.LittleEndian.Uint32(got[24:]) != sum {
		return fmt.Errorf("value of %s: header checksum mismatch", key)
	}
	if s := binary.LittleEndian.Uint64(got[0:]); s != g.seed {
		return fmt.Errorf("value of %s: written under seed %d, not %d", key, s, g.seed)
	}
	kh := g.keyHash(key)
	if binary.LittleEndian.Uint64(got[8:]) != kh {
		return fmt.Errorf("value of %s: belongs to another key", key)
	}
	if v := binary.LittleEndian.Uint32(got[16:]); v != version {
		return fmt.Errorf("value of %s: version %d, want %d", key, v, version)
	}
	if n := binary.LittleEndian.Uint32(got[20:]); int(n) != len(got) {
		return fmt.Errorf("value of %s: %d bytes, header says %d", key, len(got), n)
	}
	if !bytes.Equal(got[valueHeaderLen:], g.body(kh, version, len(got)-valueHeaderLen)) {
		return fmt.Errorf("value of %s v%d: body differs from what was written", key, version)
	}
	return nil
}
