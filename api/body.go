package api

import (
	"io"
	"net/http"
	"slices"
	"sync"
)

// Body is a request body held in a pooled buffer: a chunk or append
// body DecodeRequest read, a JournalAppend body EncodeJournalAppend
// built, or a recording ReadUpload read. Its Bytes stay valid until
// Release returns the buffer to its pool. The zero Body holds nothing.
type Body struct {
	buf   *[]byte
	class *bodyClass
}

// Bytes returns the body. They are valid until Release.
func (b Body) Bytes() []byte {
	if b.buf == nil {
		return nil
	}
	return *b.buf
}

// Release returns the buffer to its pool and leaves b empty. Call it
// once, after the last use of Bytes, on one copy only: copies of a Body
// share its buffer.
func (b *Body) Release() {
	if b.buf != nil {
		b.class.put(b.buf)
		*b = Body{}
	}
}

// set makes p the body's bytes, keeping p's capacity for the pool.
func (b Body) set(p []byte) {
	if b.buf != nil {
		*b.buf = p
	}
}

// bodyClass is one size class of pooled body buffers.
type bodyClass struct {
	pool sync.Pool
	// presize caps the allocation made from a declared body length
	// before any byte has arrived: the declared length is a hint, not a
	// promise, so a client claiming a huge body it never sends costs no
	// more than presize.
	presize int64
	// keep caps the buffers the pool keeps, so one oversized body cannot
	// pin its memory.
	keep int
}

var (
	// chunkClass holds chunk and JournalAppend bodies. presize covers
	// a 0.5 s four-microphone chunk at 16 kHz (about 0.7 MB) with room
	// to spare; larger bodies grow from there by doubling.
	chunkClass = &bodyClass{presize: 1 << 20, keep: 2 << 20}
	// uploadClass holds batch uploads, a few MB of .sbf each. They have
	// their own class so that a chunk body never pins an upload-sized
	// buffer.
	uploadClass = &bodyClass{presize: 8 << 20, keep: 16 << 20}
)

func (c *bodyClass) get() Body {
	buf, ok := c.pool.Get().(*[]byte)
	if !ok {
		buf = new([]byte)
	}
	return Body{buf: buf, class: c}
}

func (c *bodyClass) put(buf *[]byte) {
	if cap(*buf) <= c.keep {
		c.pool.Put(buf)
	}
}

// ReadUpload reads a batch upload's body whole into a pooled buffer
// sized from its declared Content-Length (capped, as DecodeRequest caps
// it, at the upload class's presize). The caller releases the Body once
// the last use of its bytes has returned; on error it holds nothing.
func ReadUpload(r *http.Request) (Body, error) {
	b := uploadClass.get()
	p, err := readBody(r.Body, r.ContentLength, b.Bytes(), uploadClass.presize)
	b.set(p)
	if err != nil {
		b.Release()
		return Body{}, err
	}
	return b, nil
}

// readBody reads r to EOF into buf, reusing its capacity when it is at
// least the size hint (the declared length, or negative when unknown;
// at most presize). It returns what it read along with any error other
// than io.EOF.
func readBody(r io.Reader, size int64, buf []byte, presize int64) ([]byte, error) {
	n := int64(512)
	if size >= 0 {
		n = size
	}
	n = min(n, presize)
	// One spare byte lets the final, empty read that reports EOF run
	// without growing an exactly sized buffer.
	buf = slices.Grow(buf[:0], int(n)+1)
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, cap(buf))
		}
		m, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
