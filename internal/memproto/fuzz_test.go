package memproto_test

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"ecstore/internal/memproto"
)

// FuzzServeConn throws arbitrary byte streams at the full protocol
// loop — classic and meta commands, data blocks, pipelines — over an
// in-memory backend. The invariant is simply that the handler never
// panics and never blocks: every input terminates (EOF) with protocol
// or I/O errors only.
func FuzzServeConn(f *testing.F) {
	seeds := []string{
		"get k\r\n",
		"gets a b c\r\n",
		"set k 5 0 5\r\nhello\r\nget k\r\n",
		"set k 0 0 5 noreply\r\nhello\r\ngets k\r\n",
		"add k 0 0 1\r\nx\r\nreplace k 0 0 1\r\ny\r\n",
		"append k 0 0 1\r\nz\r\nprepend k 0 0 1\r\nw\r\n",
		"cas k 0 0 1 42\r\nx\r\n",
		"delete k\r\ndelete k noreply\r\n",
		"incr k 1\r\ndecr k 9999999999999999999\r\n",
		"touch k 100\r\ntouch k -1\r\n",
		"flush_all\r\nflush_all 10 noreply\r\n",
		"stats\r\nstats items\r\nversion\r\nverbosity 1\r\nquit\r\n",
		"mg k v f t c k s Oabc q\r\nmn\r\n",
		"ms k 5 T30 F7 C9 MS c k q Ox\r\nhello\r\n",
		"ms k 3 ME\r\nabc\r\nms k 3 MA\r\ndef\r\nms k 3 MP\r\nghi\r\nms k 3 MR\r\njkl\r\n",
		"md k C5 Otag q\r\nmd k\r\n",
		"ma k N60 J5 D2 MI v\r\nma k MD D1 q\r\n",
		"set k 0 0 100\r\nshort\r\n",
		"set k 0 0 3\r\nabcdef\r\n",
		"set k 0 0 notanum\r\n",
		"bogus\r\n\r\n \r\n",
		"get " + strings.Repeat("k", 300) + "\r\n",
		"set k 0 0 -1\r\n",
		"ms k -5\r\n",
		"mg\r\nms\r\nmd\r\nma\r\n",
		"set k 99999999999999999999 99999999999999999999 2\r\nhi\r\n",
		"set k 0 0 1\r\n1\r\nms k 1 MA C999\r\nx\r\nms k 1 MR C999\r\ny\r\nms k 1 MP C1 c\r\nz\r\n",
		"set k 0 0 2\r\n10\r\nma k M- D3 v\r\nma k M+ q\r\nma k MX\r\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// A small item ceiling keeps declared-size allocations cheap
		// while still exercising the too-large path.
		h := memproto.NewHandler(newFakeBackend(), memproto.WithMaxItemSize(1<<16))
		var out bytes.Buffer
		err := h.ServeConn(bytes.NewReader(data), &out)
		if err != nil && err != io.ErrUnexpectedEOF &&
			!strings.Contains(err.Error(), "line too long") &&
			!strings.Contains(err.Error(), "EOF") {
			t.Fatalf("ServeConn returned unexpected error class: %v", err)
		}
	})
}
