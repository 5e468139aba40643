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
		if kept := reqs[i].wire != nil; kept != (reqs[i].body != nil) || kept == (i == len(bodies)-1) {
			t.Fatalf("body %d: kept bytes %v, pooled buffer %v", i, kept, reqs[i].body != nil)
		}
		reqs[i].Release()
		if reqs[i].wire != nil || reqs[i].body != nil {
			t.Fatalf("body %d: Release left wire %v, buffer %v", i, reqs[i].wire != nil, reqs[i].body != nil)
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
	if a.body == nil || !bytes.Equal(a.Chunk.Bytes(), chunk) {
		t.Fatalf("decoded append: pooled %v, chunk bytes %.80q", a.body != nil, a.Chunk.Bytes())
	}
	a.Release()
	if a.body != nil || a.Chunk.Bytes() != nil || a.Seq != 3 {
		t.Fatalf("released append: pooled %v, chunk bytes %.80q, seq %d", a.body != nil, a.Chunk.Bytes(), a.Seq)
	}
}
