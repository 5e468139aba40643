package api

import (
	"bytes"
	"net/http/httptest"
	"testing"
)

// decodeRequest runs body through DecodeRequest, as a server handler
// does.
func decodeRequest(t *testing.T, body []byte, v any) {
	t.Helper()
	if err := DecodeRequest(httptest.NewRequest("POST", "/", bytes.NewReader(body)), v); err != nil {
		t.Fatalf("body %.200q: %v", body, err)
	}
}

// TestReleasedRequestEncodes decodes chunk bodies through DecodeRequest,
// releasing each before the next decode reuses its buffer. A request
// that kept its bytes holds a pooled buffer until Release; one decoded
// by encoding/json holds none. After every buffer has been reused, each
// released request still equals encoding/json's decode of its body, and
// its EncodeChunk — now json.Marshal — decodes to that value too.
func TestReleasedRequestEncodes(t *testing.T) {
	bodies := chunkBodies(t)
	// A case-folded key sends a body to encoding/json.
	folded := bytes.Replace(bodies[0], []byte(`"seq"`), []byte(`"SEQ"`), 1)
	bodies = append(bodies, folded)
	reqs := make([]FramesRequest, len(bodies))
	for i, body := range bodies {
		decodeRequest(t, body, &reqs[i])
		if kept := reqs[i].wire != nil; kept != (reqs[i].body.buf != nil) || kept == (i == len(bodies)-1) {
			t.Fatalf("body %d: kept bytes %v, pooled buffer %v", i, kept, reqs[i].body.buf != nil)
		}
		reqs[i].Release()
		if reqs[i].wire != nil || reqs[i].body.buf != nil {
			t.Fatalf("body %d: Release left wire %v, buffer %v", i, reqs[i].wire != nil, reqs[i].body.buf != nil)
		}
	}
	for i, body := range bodies {
		var want, again FramesRequest
		if err := referenceDecode(body, &want); err != nil {
			t.Fatal(err)
		}
		sameFrames(t, body, reqs[i], want)
		enc, err := EncodeChunk(reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := referenceDecode(enc, &again); err != nil {
			t.Fatal(err)
		}
		sameFrames(t, body, again, want)
	}
}

// TestReleasedAppendHoldsNoChunk: a CheckedAppend from DecodeRequest
// carries its chunk's bytes in a pooled buffer; after Release its chunk
// has no bytes, so nothing can journal the recycled buffer.
func TestReleasedAppendHoldsNoChunk(t *testing.T) {
	chunk := chunkBodies(t)[0]
	var a CheckedAppend
	decodeRequest(t, spliceAppend(3, chunk), &a)
	if a.Chunk.body.buf == nil || !bytes.Equal(a.Chunk.Bytes(), chunk) {
		t.Fatalf("decoded append: pooled %v, chunk bytes %.80q", a.Chunk.body.buf != nil, a.Chunk.Bytes())
	}
	a.Release()
	if a.Chunk.body.buf != nil || a.Chunk.Bytes() != nil || a.Seq != 3 {
		t.Fatalf("released append: pooled %v, chunk bytes %.80q, seq %d", a.Chunk.body.buf != nil, a.Chunk.Bytes(), a.Seq)
	}
}

// TestReleasedCheckedChunk: a CheckedChunk checked on the fast path
// holds its bytes in a pooled chunk buffer until Release, after which it
// has none, so nothing can forward the recycled buffer. One checked by
// encoding/json holds its re-encoding and no pooled buffer.
func TestReleasedCheckedChunk(t *testing.T) {
	body := chunkBodies(t)[0]
	var c CheckedChunk
	decodeRequest(t, body, &c)
	if c.body.buf == nil || c.body.class != chunkClass || !bytes.Equal(c.Bytes(), body) {
		t.Fatalf("checked chunk: pooled %v, chunk bytes %.80q", c.body.buf != nil, c.Bytes())
	}
	c.Release()
	if c.body.buf != nil || c.Bytes() != nil {
		t.Fatalf("released chunk: pooled %v, chunk bytes %.80q", c.body.buf != nil, c.Bytes())
	}
	decodeRequest(t, bytes.Replace(body, []byte(`"seq"`), []byte(`"SEQ"`), 1), &c)
	if c.body.buf != nil || !bytes.Equal(c.Bytes(), body) {
		t.Fatalf("folded chunk: pooled %v, chunk bytes %.80q", c.body.buf != nil, c.Bytes())
	}
}

// TestReadUpload reads uploads with and without a declared length into
// the upload class, byte for byte, and Release empties the Body.
func TestReadUpload(t *testing.T) {
	for _, n := range []int{0, 100, 3 << 20} {
		want := bytes.Repeat([]byte("sbf!"), n/4)
		for _, declared := range []bool{true, false} {
			r := httptest.NewRequest("POST", "/v1/flights", bytes.NewReader(want))
			if !declared {
				r.ContentLength = -1
			}
			b, err := ReadUpload(r)
			if err != nil {
				t.Fatal(err)
			}
			if b.class != uploadClass || !bytes.Equal(b.Bytes(), want) {
				t.Fatalf("%d B (declared %v): read %d B in class %p", n, declared, len(b.Bytes()), b.class)
			}
			b.Release()
			if b.Bytes() != nil {
				t.Fatal("released upload still holds bytes")
			}
		}
	}
}
