package memproto

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

var crlf = []byte("\r\n")

var (
	errQuit        = errors.New("memproto: quit")
	errLineTooLong = errors.New("memproto: line too long")
)

// Handler executes memcached ASCII protocol conversations over any
// reader/writer pair. Splitting it from Server keeps the protocol
// logic transport-free: tests and fuzzers drive ServeConn with
// in-memory buffers.
type Handler struct {
	backend Backend
	maxItem int
	pm      *proxyMetrics
}

// NewHandler builds a protocol handler over backend.
func NewHandler(backend Backend, opts ...Option) *Handler {
	h := &Handler{
		backend: backend,
		maxItem: DefaultMaxItemSize,
	}
	for _, opt := range opts {
		opt(h)
	}
	return h
}

// ServeConn runs the protocol loop until EOF, quit, or an I/O error.
// Responses are buffered and flushed only once the read side has no
// more buffered input, so pipelined bursts are answered with a few
// large writes instead of one write per command.
func (h *Handler) ServeConn(r io.Reader, w io.Writer) error {
	if h.pm != nil {
		r = h.pm.countReader(r)
		w = h.pm.countWriter(w)
		h.pm.connsActive.Add(1)
		defer h.pm.connsActive.Add(-1)
	}
	br := bufio.NewReaderSize(r, 16<<10)
	bw := bufio.NewWriterSize(w, 32<<10)
	// Every command line is split into this one slice. Its words are
	// substrings of one string per line, so a key an op keeps is its own;
	// the slice is not kept past the command that was split into it.
	var fields []string
	for {
		line, err := readLine(br)
		if err != nil {
			_ = bw.Flush()
			if err == io.EOF {
				return nil
			}
			if err == errLineTooLong {
				writeString(bw, "CLIENT_ERROR line too long\r\n")
				_ = bw.Flush()
			}
			return err
		}
		fields = appendFields(fields[:0], string(line))
		if err := h.dispatch(br, bw, fields); err != nil {
			flushErr := bw.Flush()
			if err == errQuit {
				return flushErr
			}
			return err
		}
		// The pipelining pivot: only pay the syscall when the client
		// has nothing else already queued for us.
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
	}
}

// readLine reads one \n-terminated line, stripping the terminator and
// an optional preceding \r. A line longer than the read buffer is
// unrecoverable (we cannot tell commands from data any more) and maps
// to errLineTooLong.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		if err == bufio.ErrBufferFull {
			return nil, errLineTooLong
		}
		if err == io.ErrUnexpectedEOF || (err == io.EOF && len(line) > 0) {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// asciiSpace marks the bytes strings.Fields splits an ASCII line at.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// appendFields appends the words of s, as strings.Fields splits them, to
// dst, growing it at most once: a slice the caller reuses stops
// allocating once it has held its longest line. A line that is not all
// ASCII, whose spaces may be Unicode ones, is left to strings.Fields.
func appendFields(dst []string, s string) []string {
	words, space := 0, true
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return append(dst, strings.Fields(s)...)
		}
		if !asciiSpace[s[i]] && space {
			words++
		}
		space = asciiSpace[s[i]]
	}
	dst = slices.Grow(dst, words)
	start := -1 // where the current word began; -1 between words
	for i := 0; i < len(s); i++ {
		switch {
		case !asciiSpace[s[i]]:
			if start < 0 {
				start = i
			}
		case start >= 0:
			dst, start = append(dst, s[start:i]), -1
		}
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

// dispatch executes one command line, split into fields. The returned
// error is fatal for the connection; protocol-level failures are
// written to bw and return nil.
func (h *Handler) dispatch(br *bufio.Reader, bw *bufio.Writer, fields []string) error {
	if len(fields) == 0 {
		writeString(bw, "ERROR\r\n")
		return nil
	}
	cmd, args := fields[0], fields[1:]
	var done func(failed bool)
	if h.pm != nil {
		done = h.pm.begin(cmd)
	}
	failed, err := h.run(br, bw, cmd, args)
	if done != nil {
		done(failed)
	}
	return err
}

// run executes one command, reporting whether it was answered with
// ERROR, CLIENT_ERROR or SERVER_ERROR (for metrics; a miss or a lost
// conditional write is an answer, not a failure), plus any fatal error.
func (h *Handler) run(br *bufio.Reader, bw *bufio.Writer, cmd string, args []string) (failed bool, fatal error) {
	switch cmd {
	case "get":
		return h.handleGet(bw, args, false), nil
	case "gets":
		return h.handleGet(bw, args, true), nil
	case "set", "add", "replace", "append", "prepend", "cas":
		return h.textStore(br, bw, cmd, args)
	case "delete", "incr", "decr", "touch":
		return h.textKeyed(bw, cmd, args), nil
	case "flush_all":
		return h.handleFlushAll(bw, args), nil
	case "stats":
		h.handleStats(bw, args)
	case "version":
		writeString(bw, "VERSION "+proxyVersion+"\r\n")
	case "verbosity":
		if !hasNoreply(args) {
			writeString(bw, "OK\r\n")
		}
	case "quit":
		return false, errQuit
	case "mg":
		return h.metaGet(bw, args), nil
	case "ms":
		return h.metaStore(br, bw, args)
	case "md", "ma":
		return h.metaKeyed(bw, cmd, args), nil
	case "mn":
		writeString(bw, "MN\r\n")
	default:
		writeString(bw, "ERROR\r\n")
		return true, nil
	}
	return false, nil
}

// ---- retrieval ----

// handleGet answers get/gets. All keys are fetched through ONE batched
// backend GetMulti — the proxy's whole reason to exist is that the
// fan-out below it is pipelined — and per-key infrastructure errors
// turn the reply into SERVER_ERROR rather than a silent miss. A key
// listed twice is answered once. Each VALUE line is formatted straight
// into the connection's write buffer.
func (h *Handler) handleGet(bw *bufio.Writer, keys []string, withCas bool) bool {
	if len(keys) == 0 {
		writeString(bw, "ERROR\r\n")
		return true
	}
	for _, k := range keys {
		if !validKey(k) {
			writeString(bw, "CLIENT_ERROR bad key\r\n")
			return true
		}
	}
	found, errs := h.backend.GetMulti(keys)
	for _, k := range keys {
		if err, ok := errs[k]; ok {
			h.serverError(bw, false, err)
			return true
		}
	}
	var hits, misses int64
	for i, k := range keys {
		item, ok := found[k]
		if !ok {
			misses++
			continue
		}
		if slices.Contains(keys[:i], k) {
			continue // answered at its first occurrence
		}
		hits++
		flags, payload := decodeFlags(item.Value)
		line := append(bw.AvailableBuffer(), "VALUE "...)
		line = append(append(line, k...), ' ')
		line = append(strconv.AppendUint(line, uint64(flags), 10), ' ')
		line = strconv.AppendInt(line, int64(len(payload)), 10)
		if withCas {
			line = strconv.AppendUint(append(line, ' '), item.CAS, 10)
		}
		bw.Write(append(line, crlf...))
		bw.Write(payload)
		bw.Write(crlf)
	}
	writeString(bw, "END\r\n")
	if h.pm != nil {
		h.pm.hits.Add(hits)
		h.pm.misses.Add(misses)
	}
	return false
}

// ---- the text dialect: parse into an op, execute, word the outcome ----

// textStore parses set/add/replace/append/prepend/cas:
// <cmd> <key> <flags> <exptime> <bytes> [<cas unique>] [noreply]\r\n<data>\r\n
func (h *Handler) textStore(br *bufio.Reader, bw *bufio.Writer, cmd string, args []string) (bool, error) {
	o := op{mode: 'S'}
	switch cmd {
	case "add":
		o.mode = 'E'
	case "replace":
		o.mode = 'R'
	case "append":
		o.mode = 'A'
	case "prepend":
		o.mode = 'P'
	}
	want := 4
	if cmd == "cas" {
		want, o.hasCas = 5, true
	}
	if len(args) == want+1 && args[want] == "noreply" {
		o.quiet, args = true, args[:want]
	}
	if len(args) != want {
		writeString(bw, "ERROR\r\n")
		return true, nil
	}
	flags, errFlags := strconv.ParseUint(args[1], 10, 32)
	exptime, errExp := strconv.ParseInt(args[2], 10, 64)
	nbytes, errBytes := strconv.Atoi(args[3])
	var errCas error
	if o.hasCas {
		o.cas, errCas = strconv.ParseUint(args[4], 10, 64)
	}
	if errBytes != nil || nbytes < 0 {
		// Without a byte count we cannot skip the data block; the
		// client's next line will re-sync as a (failing) command.
		h.clientError(bw, o.quiet, "bad command line format")
		return true, nil
	}
	value, err := h.readData(br, bw, nbytes, o.quiet)
	if value == nil {
		return true, err
	}
	if errFlags != nil || errExp != nil || errCas != nil || !validKey(args[0]) {
		h.clientError(bw, o.quiet, "bad command line format")
		return true, nil
	}
	o.key, o.flags, o.ttl, o.value = args[0], uint32(flags), expTimeToTTL(exptime), value
	out, err := h.store(&o)
	return h.textReply(bw, &o, "STORED\r\n", out, err), nil
}

// textKeyed parses the commands that name one key and at most one
// argument: delete <key>, incr|decr <key> <delta>, touch <key>
// <exptime>, each with an optional noreply.
func (h *Handler) textKeyed(bw *bufio.Writer, cmd string, args []string) bool {
	o := op{quiet: hasNoreply(args)}
	if o.quiet {
		args = args[:len(args)-1]
	}
	want := 2
	if cmd == "delete" {
		want = 1
	}
	if len(args) != want || !validKey(args[0]) {
		h.clientError(bw, o.quiet, "bad command line format")
		return true
	}
	o.key = args[0]
	switch cmd {
	case "delete":
		out, err := h.remove(&o)
		return h.textReply(bw, &o, "DELETED\r\n", out, err)
	case "touch":
		exptime, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			h.clientError(bw, o.quiet, "bad command line format")
			return true
		}
		o.ttl = expTimeToTTL(exptime)
		out, err := h.touch(&o)
		return h.textReply(bw, &o, "TOUCHED\r\n", out, err)
	}
	delta, err := strconv.ParseUint(args[1], 10, 64)
	if err != nil {
		h.clientError(bw, o.quiet, "invalid numeric delta argument")
		return true
	}
	o.delta, o.mode = delta, '+'
	if cmd == "decr" {
		o.mode = '-'
	}
	out, err := h.arith(&o)
	return h.textReply(bw, &o, out.value+"\r\n", out, err)
}

// textWords are the text dialect's answers other than success, whose
// line each command names itself.
var textWords = [...]string{resNotStored: "NOT_STORED\r\n", resExists: "EXISTS\r\n", resNotFound: "NOT_FOUND\r\n"}

// textReply words an executed op in the text dialect, ok being its
// success line; noreply silences every answer, errors included. It
// reports whether the op failed.
func (h *Handler) textReply(bw *bufio.Writer, o *op, ok string, out outcome, err error) bool {
	if err != nil {
		h.execError(bw, o.quiet, err)
		return true
	}
	if !o.quiet {
		if out.res != resOK {
			ok = textWords[out.res]
		}
		writeString(bw, ok)
	}
	return false
}

// ---- flush / stats ----

// handleFlushAll: flush_all [delay] [noreply]. The optional delay is
// accepted but not honoured — the flush is immediate.
func (h *Handler) handleFlushAll(bw *bufio.Writer, args []string) bool {
	noreply := hasNoreply(args)
	if noreply {
		args = args[:len(args)-1]
	}
	if len(args) > 1 {
		h.clientError(bw, noreply, "bad command line format")
		return true
	}
	if len(args) == 1 {
		if _, err := strconv.ParseInt(args[0], 10, 64); err != nil {
			h.clientError(bw, noreply, "bad command line format")
			return true
		}
	}
	if err := h.backend.Flush(); err != nil {
		h.serverError(bw, noreply, err)
		return true
	}
	if !noreply {
		writeString(bw, "OK\r\n")
	}
	return false
}

func (h *Handler) handleStats(bw *bufio.Writer, args []string) {
	if len(args) == 0 {
		st := h.backend.Stats()
		names := make([]string, 0, len(st))
		for n := range st {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			writeString(bw, "STAT "+n+" "+st[n]+"\r\n")
		}
	}
	writeString(bw, "END\r\n")
}

// ---- shared helpers ----

// readData reads a command's n-byte data block and its CRLF into the
// value it will be stored as: the block behind flagsPrefixLen bytes of
// room for the client flags (putFlags), so a stored value is read once
// and never copied. A block over the item limit is skipped and answered
// SERVER_ERROR, one not ending in CRLF answered CLIENT_ERROR; either way
// the value is nil, as it is when err (always fatal) is set.
func (h *Handler) readData(br *bufio.Reader, bw *bufio.Writer, n int, quiet bool) ([]byte, error) {
	if n > h.maxItem {
		if _, err := io.CopyN(io.Discard, br, int64(n)+2); err != nil {
			return nil, err
		}
		if !quiet {
			writeString(bw, "SERVER_ERROR object too large for cache\r\n")
		}
		return nil, nil
	}
	buf := make([]byte, flagsPrefixLen+n+2)
	if _, err := io.ReadFull(br, buf[flagsPrefixLen:]); err != nil {
		return nil, err
	}
	if !bytes.HasSuffix(buf, crlf) {
		h.clientError(bw, quiet, "bad data chunk")
		return nil, nil
	}
	return buf[:flagsPrefixLen+n], nil
}

func (h *Handler) clientError(bw *bufio.Writer, quiet bool, msg string) {
	if !quiet {
		writeString(bw, "CLIENT_ERROR "+msg+"\r\n")
	}
}

// execError answers an op the executor could not run: a non-numeric
// counter is the client's error, anything else the backend's.
func (h *Handler) execError(bw *bufio.Writer, quiet bool, err error) {
	if errors.Is(err, errNonNumeric) {
		h.clientError(bw, quiet, err.Error())
		return
	}
	h.serverError(bw, quiet, err)
}

// serverError is the single funnel every backend failure reaches the
// wire through, which makes it the one place to classify them for
// metrics (exhausted update loops get their own counter).
func (h *Handler) serverError(bw *bufio.Writer, quiet bool, err error) {
	if h.pm != nil && errors.Is(err, errCasExhausted) {
		h.pm.casExhausted.Inc()
	}
	if !quiet {
		writeString(bw, "SERVER_ERROR "+sanitize(err.Error())+"\r\n")
	}
}

// sanitize keeps backend error text from breaking protocol framing.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		if r == '\r' || r == '\n' {
			return ' '
		}
		return r
	}, s)
}

func writeString(bw *bufio.Writer, s string) {
	_, _ = bw.WriteString(s)
}

func hasNoreply(args []string) bool {
	return len(args) > 0 && args[len(args)-1] == "noreply"
}

// validKey enforces memcached key rules: 1–250 bytes, no whitespace or
// control characters.
func validKey(key string) bool {
	if len(key) == 0 || len(key) > 250 {
		return false
	}
	for i := 0; i < len(key); i++ {
		if key[i] <= ' ' || key[i] == 0x7f {
			return false
		}
	}
	return true
}

// secondsIn30Days is the memcached pivot: exptimes beyond it are
// absolute unix timestamps, not relative offsets.
const secondsIn30Days = 60 * 60 * 24 * 30

// expTimeToTTL maps a memcached exptime to a backend TTL. Negative
// exptimes (and absolute timestamps in the past) become an immediately
// expiring TTL, matching memcached's "store it already expired".
func expTimeToTTL(exp int64) time.Duration {
	switch {
	case exp == 0:
		return 0
	case exp < 0:
		return time.Nanosecond
	case exp > secondsIn30Days:
		d := time.Until(time.Unix(exp, 0))
		if d <= 0 {
			return time.Nanosecond
		}
		return d
	default:
		return time.Duration(exp) * time.Second
	}
}

// secondsTTL converts a remaining-TTL-in-seconds (0 = no expiry) back
// to a duration for a rewrite that should preserve the lifetime.
func secondsTTL(secs uint32) time.Duration {
	return time.Duration(secs) * time.Second
}
