package memproto

// The memcached meta protocol (mg/ms/md/ma/mn): a compact,
// flag-driven replacement for the classic text commands. Each request
// names the exact fields it wants back, responses echo them in request
// order, and the q flag gives per-command noreply semantics (success /
// miss codes are suppressed, failures still reported) — which is what
// makes deep client-side pipelining with mn barriers work.
//
// Supported flags: v f t c k s O<token> q, plus T<ttl> F<flags>
// C<cas> M<mode> on ms, C<cas> on md, and N<ttl> J<init> D<delta>
// M<mode> C<cas> T<ttl> v on ma. The base64-key flag (b) is not
// supported.

import (
	"bufio"
	"errors"
	"strconv"
	"strings"
)

// metaGet: mg <key> <flags>*. Like get, it reads and writes with no
// executor in between.
func (h *Handler) metaGet(bw *bufio.Writer, args []string) bool {
	if len(args) == 0 || !validKey(args[0]) {
		writeString(bw, "CLIENT_ERROR bad key\r\n")
		return true
	}
	key, tokens := args[0], args[1:]
	item, err := h.backend.Get(key)
	if errors.Is(err, ErrCacheMiss) {
		if h.pm != nil {
			h.pm.misses.Inc()
		}
		if !hasFlag(tokens, 'q') {
			writeString(bw, "EN\r\n")
		}
		return false
	}
	if err != nil {
		h.serverError(bw, false, err)
		return true
	}
	if h.pm != nil {
		h.pm.hits.Inc()
	}
	flags, payload := decodeFlags(item.Value)
	e := echo{key: key, cas: item.CAS, flags: flags, ttl: item.TTL, size: len(payload)}
	if !hasFlag(tokens, 'v') {
		writeString(bw, "HD")
		writeReturnFlags(bw, tokens, "ftckOs", &e)
		return false
	}
	writeString(bw, "VA ")
	bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(len(payload)), 10))
	writeReturnFlags(bw, tokens, "ftckOs", &e)
	bw.Write(payload)
	bw.Write(crlf)
	return false
}

// metaStore parses ms <key> <datalen> <flags>*\r\n<data>\r\n. Modes
// (M): S set (default), E add, A append, P prepend, R replace. C<cas>
// makes every mode but E conditional on the stored CAS token.
func (h *Handler) metaStore(br *bufio.Reader, bw *bufio.Writer, args []string) (bool, error) {
	if len(args) < 2 {
		writeString(bw, "CLIENT_ERROR bad command line format\r\n")
		return true, nil
	}
	nbytes, err := strconv.Atoi(args[1])
	if err != nil || nbytes < 0 {
		writeString(bw, "CLIENT_ERROR bad command line format\r\n")
		return true, nil
	}
	value, err := h.readData(br, bw, nbytes, false)
	if value == nil {
		return true, err
	}
	if !validKey(args[0]) {
		writeString(bw, "CLIENT_ERROR bad key\r\n")
		return true, nil
	}
	o, ok := parseMetaFlags(args[0], args[2:])
	if !ok {
		writeString(bw, "CLIENT_ERROR bad flag\r\n")
		return true, nil
	}
	if o.mode == 0 {
		o.mode = 'S'
	}
	if strings.IndexByte("SERAP", o.mode) < 0 {
		writeString(bw, "CLIENT_ERROR invalid mode\r\n")
		return true, nil
	}
	o.value = value
	out, err := h.store(&o)
	return h.metaReply(bw, &o, "kOc", out, err), nil
}

// metaKeyed parses md <key> <flags>* and ma <key> <flags>*. ma's modes
// (M): I, i or + increment (default), D, d or - decrement. N<ttl>
// autovivifies a missing counter with J<init> (default 0); D<delta>
// defaults to 1; v returns the new value and c the token it was written
// under.
func (h *Handler) metaKeyed(bw *bufio.Writer, cmd string, args []string) bool {
	if len(args) == 0 || !validKey(args[0]) {
		writeString(bw, "CLIENT_ERROR bad key\r\n")
		return true
	}
	o, ok := parseMetaFlags(args[0], args[1:])
	if !ok {
		writeString(bw, "CLIENT_ERROR bad flag\r\n")
		return true
	}
	if cmd == "md" {
		out, err := h.remove(&o)
		return h.metaReply(bw, &o, "kO", out, err)
	}
	switch o.mode {
	case 0, 'I', 'i', '+':
		o.mode = '+'
	case 'D', 'd', '-':
		o.mode = '-'
	default:
		writeString(bw, "CLIENT_ERROR invalid mode\r\n")
		return true
	}
	out, err := h.arith(&o)
	return h.metaReply(bw, &o, "kOc", out, err)
}

// metaWords are the meta dialect's status codes.
var metaWords = [...]string{resOK: "HD", resNotStored: "NS", resExists: "EX", resNotFound: "NF"}

// metaReply words an executed op in the meta dialect: its status code —
// VA with the counter when ma asked for v — then the return flags in
// carry that the request named. q silences a success only. It reports
// whether the op failed.
func (h *Handler) metaReply(bw *bufio.Writer, o *op, carry string, out outcome, err error) bool {
	if err != nil {
		h.execError(bw, false, err)
		return true
	}
	if out.res == resOK && o.quiet {
		return false
	}
	e := echo{key: o.key, cas: out.cas}
	if out.res != resOK || !o.wantValue {
		writeString(bw, metaWords[out.res])
		writeReturnFlags(bw, o.ret, carry, &e)
		return false
	}
	writeString(bw, "VA ")
	bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(len(out.value)), 10))
	writeReturnFlags(bw, o.ret, carry, &e)
	writeString(bw, out.value)
	bw.Write(crlf)
	return false
}

// echo is what a meta reply can report through its return flags.
type echo struct {
	key   string
	cas   uint64
	flags uint32
	ttl   uint32 // remaining seconds, 0 = never expires
	size  int
}

// writeReturnFlags is the one meta return-flag writer: it echoes, in
// request order, each token whose letter is in carry (the fields this
// reply has), then ends the line.
func writeReturnFlags(bw *bufio.Writer, tokens []string, carry string, e *echo) {
	for _, t := range tokens {
		if strings.IndexByte(carry, t[0]) < 0 {
			continue
		}
		bw.WriteByte(' ')
		if t[0] == 'O' {
			writeString(bw, t)
			continue
		}
		bw.WriteByte(t[0])
		switch t[0] {
		case 'k':
			writeString(bw, e.key)
		case 'c':
			bw.Write(strconv.AppendUint(bw.AvailableBuffer(), e.cas, 10))
		case 'f':
			bw.Write(strconv.AppendUint(bw.AvailableBuffer(), uint64(e.flags), 10))
		case 's':
			bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(e.size), 10))
		case 't':
			ttl := int64(e.ttl)
			if ttl == 0 {
				ttl = -1 // meta protocol: -1 = never expires
			}
			bw.Write(strconv.AppendInt(bw.AvailableBuffer(), ttl, 10))
		}
	}
	bw.Write(crlf)
}

// parseMetaFlags turns a meta command's key and flag tokens into an op.
// Return-flag tokens (k, O, f, t, c, s) are kept in order for the
// reply. Unknown letters are ignored for forward compatibility; a
// malformed argument fails the parse.
func parseMetaFlags(key string, tokens []string) (op, bool) {
	o := op{key: key, delta: 1, ret: tokens}
	for _, t := range tokens {
		if t == "" {
			return o, false
		}
		arg := t[1:]
		var err error
		var n int64
		switch t[0] {
		case 'T':
			n, err = strconv.ParseInt(arg, 10, 64)
			o.ttl, o.hasTTL = expTimeToTTL(n), true
		case 'F':
			var f uint64
			f, err = strconv.ParseUint(arg, 10, 32)
			o.flags = uint32(f)
		case 'C':
			o.cas, err = strconv.ParseUint(arg, 10, 64)
			o.hasCas = true
		case 'M':
			if len(arg) != 1 {
				return o, false
			}
			o.mode = arg[0]
		case 'N':
			n, err = strconv.ParseInt(arg, 10, 64)
			o.autoTTL, o.autoviv = expTimeToTTL(n), true
		case 'J':
			o.init, err = strconv.ParseUint(arg, 10, 64)
		case 'D':
			o.delta, err = strconv.ParseUint(arg, 10, 64)
		case 'q':
			o.quiet = true
		case 'v':
			o.wantValue = true
		case 'b':
			return o, false // base64 keys unsupported
		}
		if err != nil {
			return o, false
		}
	}
	return o, true
}

func hasFlag(tokens []string, flag byte) bool {
	for _, t := range tokens {
		if len(t) > 0 && t[0] == flag {
			return true
		}
	}
	return false
}
