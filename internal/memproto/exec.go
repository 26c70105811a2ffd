package memproto

import (
	"errors"
	"fmt"
	"strconv"
	"time"
)

// casRetries bounds the one read-modify-write loop (update) behind
// replace/append/prepend/incr/decr/touch and their meta forms. Each
// retry means another writer won the conditional write in between;
// eight in a row is contention no memcached client expects to survive
// atomically.
const casRetries = 8

var (
	// errCasExhausted marks an update that lost its conditional write
	// casRetries times in a row. It reaches the client as SERVER_ERROR
	// (the operation did NOT happen — retryable by the caller) and is
	// counted separately so hot-key contention is visible in metrics
	// rather than folded into generic command errors.
	errCasExhausted = errors.New("cas retries exhausted")

	// errNonNumeric is an arithmetic op on a value that is not a 64-bit
	// unsigned decimal: the client's error, not the backend's.
	errNonNumeric = errors.New("cannot increment or decrement non-numeric value")
)

// op is one data command as both dialects parse it: the text commands
// and the meta ones fill the same fields, and one executor runs it.
type op struct {
	key     string
	mode    byte // store: S set, E add, R replace, A append, P prepend; arith: + or -
	flags   uint32
	ttl     time.Duration
	hasTTL  bool   // arith: the op's TTL replaces the counter's own
	value   []byte // store: flagsPrefixLen bytes of room, then the data block (readData)
	cas     uint64
	hasCas  bool // the op is conditional on cas
	delta   uint64
	init    uint64 // arith: the value a missing counter is created with
	autoTTL time.Duration
	autoviv bool // arith: create a missing counter instead of answering a miss

	quiet     bool     // text noreply, meta q
	wantValue bool     // meta v
	ret       []string // meta tokens, whose return flags are echoed in order
}

// result classifies an executed op; each dialect words it its own way.
type result uint8

const (
	resOK        result = iota // STORED, DELETED, TOUCHED, the counter / HD, VA
	resNotStored               // NOT_STORED / NS
	resExists                  // EXISTS / EX
	resNotFound                // NOT_FOUND / NF
)

// outcome is what executing an op did, before either dialect words it.
type outcome struct {
	res   result
	cas   uint64 // the token of the item the op wrote
	value string // arith: the counter after the op
}

// store executes every storage command, text set/add/replace/append/
// prepend/cas and ms in modes S/E/R/A/P. A token (cas, ms C) makes any
// mode but add conditional: a stale one answers resExists and writes
// nothing.
func (h *Handler) store(o *op) (outcome, error) {
	value, data := putFlags(o.flags, o.value), o.value[flagsPrefixLen:]
	if o.mode == 'S' && !o.hasCas {
		cas, err := h.backend.Set(o.key, value, o.ttl)
		return outcome{cas: cas}, err
	}
	if o.mode == 'S' || o.mode == 'E' {
		token, lost := o.cas, resExists
		if o.mode == 'E' {
			token, lost = 0, resNotStored // add: the key must be absent
		}
		cas, err := h.backend.Cas(o.key, value, o.ttl, token)
		switch {
		case errors.Is(err, ErrCASConflict):
			return outcome{res: lost}, nil
		case errors.Is(err, ErrCacheMiss):
			return outcome{res: resNotFound}, nil
		}
		return outcome{cas: cas}, err
	}
	return h.update(o, resNotStored, func(cur Item, _ bool) ([]byte, time.Duration, error) {
		if o.mode == 'R' {
			return value, o.ttl, nil
		}
		// append/prepend keep the original item's flags and TTL; the
		// command's own flags/exptime are ignored, as memcached does.
		flags, payload := decodeFlags(cur.Value)
		joined := make([]byte, 0, len(payload)+len(data))
		if o.mode == 'A' {
			joined = append(append(joined, payload...), data...)
		} else {
			joined = append(append(joined, data...), payload...)
		}
		return encodeFlags(flags, joined), secondsTTL(cur.TTL), nil
	})
}

// arith executes incr/decr and ma: the counter is parsed as a 64-bit
// unsigned decimal, incremented with wrap-around at 2^64 or decremented
// with a clamp at zero, and written back keeping its flags and (unless
// the op carries one) its TTL. With autoviv a missing counter is
// created holding init.
func (h *Handler) arith(o *op) (outcome, error) {
	var out string
	res, err := h.update(o, resNotFound, func(cur Item, found bool) ([]byte, time.Duration, error) {
		if !found {
			out = strconv.FormatUint(o.init, 10)
			return encodeFlags(0, []byte(out)), o.autoTTL, nil
		}
		flags, payload := decodeFlags(cur.Value)
		n, err := strconv.ParseUint(string(payload), 10, 64)
		if err != nil {
			return nil, 0, errNonNumeric
		}
		switch {
		case o.mode == '+':
			n += o.delta
		case o.delta > n:
			n = 0
		default:
			n -= o.delta
		}
		out = strconv.FormatUint(n, 10)
		ttl := secondsTTL(cur.TTL)
		if o.hasTTL {
			ttl = o.ttl
		}
		return encodeFlags(flags, []byte(out)), ttl, nil
	})
	res.value = out
	return res, err
}

// touch executes touch: the item is rewritten unchanged with o.ttl.
func (h *Handler) touch(o *op) (outcome, error) {
	return h.update(o, resNotFound, func(cur Item, _ bool) ([]byte, time.Duration, error) {
		return cur.Value, o.ttl, nil
	})
}

// update is the one read-modify-write loop. It reads the key, lets next
// derive the new value and TTL from the item, and writes them back
// conditional on the token it read, re-reading when another writer won
// in between — at most casRetries times. A missing key answers miss
// unless the op autovivifies, in which case next sees found == false
// and its value is written as an add. With o.hasCas an item whose token
// is not o.cas answers resExists and nothing is written.
func (h *Handler) update(o *op, miss result, next func(cur Item, found bool) ([]byte, time.Duration, error)) (outcome, error) {
	for i := 0; i < casRetries; i++ {
		cur, err := h.backend.Get(o.key)
		found := err == nil
		switch {
		case errors.Is(err, ErrCacheMiss) && !o.autoviv:
			return outcome{res: miss}, nil
		case errors.Is(err, ErrCacheMiss):
			// autovivify: next creates the item, written as an add
		case err != nil:
			return outcome{}, err
		case o.hasCas && cur.CAS != o.cas:
			return outcome{res: resExists}, nil
		}
		value, ttl, err := next(cur, found)
		if err != nil {
			return outcome{}, err
		}
		cas, err := h.backend.Cas(o.key, value, ttl, cur.CAS)
		switch {
		case err == nil:
			return outcome{cas: cas}, nil
		case errors.Is(err, ErrCASConflict), errors.Is(err, ErrCacheMiss):
			continue // lost the race; re-read and retry
		default:
			return outcome{}, err
		}
	}
	return outcome{}, fmt.Errorf("%w on %s", errCasExhausted, o.key)
}

// remove executes delete and md. A token makes it conditional through
// the backend's atomic DeleteCas — the compare and the removal happen
// under one lock at each holder's store, so a concurrent writer can
// never slip between them.
func (h *Handler) remove(o *op) (outcome, error) {
	var err error
	switch {
	case !o.hasCas:
		var existed bool
		if existed, err = h.backend.Delete(o.key); err == nil && !existed {
			return outcome{res: resNotFound}, nil
		}
	case o.cas == 0:
		// Token 0 never matches a stored item (versions are non-zero);
		// classify as present-but-mismatched or absent.
		if _, err = h.backend.Get(o.key); err == nil {
			return outcome{res: resExists}, nil
		}
	default:
		if err = h.backend.DeleteCas(o.key, o.cas); errors.Is(err, ErrCASConflict) {
			return outcome{res: resExists}, nil
		}
	}
	if errors.Is(err, ErrCacheMiss) {
		return outcome{res: resNotFound}, nil
	}
	return outcome{}, err
}
