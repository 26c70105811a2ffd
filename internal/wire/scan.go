package wire

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// DefaultScanLimit is the number of keys a server answers a scan page
// with (fewer on the last page). It bounds a page so one response frame
// stays far below MaxValueLen even with every key at MaxKeyLen, and a
// corrupt count field above it is refused before it can drive an
// allocation.
const DefaultScanLimit = 256

// ScanCursor is the resumption point of a paged keyspace scan. It is
// opaque to clients (carried as bytes in the request value) but has a
// stable encoding so any server replica can continue another's page
// sequence: the shard index being walked and the last key returned
// from it. The zero cursor starts a scan from the beginning.
type ScanCursor struct {
	// Shard is the store shard currently being iterated.
	Shard uint32
	// After is the last key already returned from that shard; the next
	// page resumes strictly after it in lexicographic order.
	After string
}

// EncodeScanCursor serializes c for the wire.
func EncodeScanCursor(c ScanCursor) []byte {
	out := make([]byte, 0, 6+len(c.After))
	out = binary.BigEndian.AppendUint32(out, c.Shard)
	out = binary.BigEndian.AppendUint16(out, uint16(len(c.After)))
	return append(out, c.After...)
}

// DecodeScanCursor parses a cursor produced by EncodeScanCursor. An
// empty payload is the zero cursor (start of the keyspace).
func DecodeScanCursor(b []byte) (ScanCursor, error) {
	if len(b) == 0 {
		return ScanCursor{}, nil
	}
	if len(b) < 6 {
		return ScanCursor{}, fmt.Errorf("%w: scan cursor too short (%d bytes)", ErrMalformed, len(b))
	}
	c := ScanCursor{Shard: binary.BigEndian.Uint32(b[0:4])}
	afterLen := int(binary.BigEndian.Uint16(b[4:6]))
	if afterLen > MaxKeyLen || len(b) != 6+afterLen {
		return ScanCursor{}, fmt.Errorf("%w: scan cursor length mismatch", ErrMalformed)
	}
	c.After = string(b[6:])
	return c, nil
}

// ScanPage is one page of scan results: the keys found plus the cursor
// for the next page (empty when the keyspace is exhausted).
type ScanPage struct {
	// Keys are the stored keys of this page, in scan order. They are
	// raw storage keys: erasure-coded values appear as their derived
	// chunk keys (see LogicalKey).
	Keys []string
	// Next is the encoded cursor of the next page; empty means the
	// scan is complete.
	Next []byte
}

// EncodeScanPage serializes p into a response value.
func EncodeScanPage(p ScanPage) []byte {
	size := 2 + len(p.Next) + 4
	for _, k := range p.Keys {
		size += 2 + len(k)
	}
	out := make([]byte, 0, size)
	out = binary.BigEndian.AppendUint16(out, uint16(len(p.Next)))
	out = append(out, p.Next...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(p.Keys)))
	for _, k := range p.Keys {
		out = binary.BigEndian.AppendUint16(out, uint16(len(k)))
		out = append(out, k...)
	}
	return out
}

// DecodeScanPage parses a response value produced by EncodeScanPage.
func DecodeScanPage(b []byte) (ScanPage, error) {
	var p ScanPage
	if len(b) < 6 {
		return p, fmt.Errorf("%w: scan page too short (%d bytes)", ErrMalformed, len(b))
	}
	nextLen := int(binary.BigEndian.Uint16(b[0:2]))
	b = b[2:]
	if nextLen > len(b) {
		return p, fmt.Errorf("%w: scan page cursor overruns frame", ErrMalformed)
	}
	if nextLen > 0 {
		p.Next = append([]byte(nil), b[:nextLen]...)
	}
	b = b[nextLen:]
	if len(b) < 4 {
		return p, fmt.Errorf("%w: scan page truncated", ErrMalformed)
	}
	count := int(binary.BigEndian.Uint32(b[0:4]))
	b = b[4:]
	if count > DefaultScanLimit {
		return p, fmt.Errorf("%w: scan page of %d keys exceeds limit", ErrMalformed, count)
	}
	p.Keys = make([]string, 0, count)
	for i := 0; i < count; i++ {
		if len(b) < 2 {
			return p, fmt.Errorf("%w: scan page truncated at key %d", ErrMalformed, i)
		}
		kl := int(binary.BigEndian.Uint16(b[0:2]))
		b = b[2:]
		if kl > MaxKeyLen || kl > len(b) {
			return p, fmt.Errorf("%w: scan page key %d overruns frame", ErrMalformed, i)
		}
		p.Keys = append(p.Keys, string(b[:kl]))
		b = b[kl:]
	}
	if len(b) != 0 {
		return p, fmt.Errorf("%w: %d trailing bytes after scan page", ErrMalformed, len(b))
	}
	return p, nil
}

// chunkKeySep is the separator ChunkKey inserts between the logical
// key and the chunk index ("\x00c<idx>"). The NUL byte cannot appear
// in client keys written through the memcached-style front ends, so
// the mapping is unambiguous.
const chunkKeySep = "\x00c"

// LogicalKey maps a stored key back to the logical key a client wrote:
// a derived chunk key ("key\x00c3") yields its base key and true, any
// other key is returned unchanged with false. Scan consumers use it to
// fold per-chunk and per-replica storage keys into one logical
// keyspace.
func LogicalKey(stored string) (key string, isChunk bool) {
	i := strings.LastIndex(stored, chunkKeySep)
	if i < 0 {
		return stored, false
	}
	idx := stored[i+len(chunkKeySep):]
	if len(idx) == 0 {
		return stored, false
	}
	for _, r := range idx {
		if r < '0' || r > '9' {
			return stored, false
		}
	}
	return stored[:i], true
}
