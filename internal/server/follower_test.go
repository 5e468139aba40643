package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"soundboost/api"
)

// shutdownNow drains a server mid-test (restart scenarios); the
// registered cleanup's second Shutdown is idempotent.
func shutdownNow(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// followerChunks builds a session request plus chunked frames for the
// fixture's first calibration flight — the payload a gateway would
// replicate.
func followerChunks(t *testing.T, nBatches int) (api.SessionRequest, []api.FramesRequest) {
	t.Helper()
	f := getFixture(t).calib[0]
	reqs, err := framesFromFlight(f, nBatches)
	if err != nil {
		t.Fatal(err)
	}
	return api.SessionRequest{Flight: f.Name, SampleRateHz: f.Audio.SampleRate}, reqs
}

// appendChunk replicates one chunk to the follower endpoint. The
// replication seq is the chunk's position in the stream (1-based),
// independent of the chunk's own client seq.
func appendChunk(t *testing.T, s *Server, id string, seq int, req api.SessionRequest, chunk api.FramesRequest) *api.JournalAppendResponse {
	t.Helper()
	w := do(t, s, "POST", "/v1/sessions/"+id+"/journal/append", api.JournalAppend{
		SchemaVersion: api.Version, Seq: seq, Request: req, Chunk: chunk,
	})
	resp := decode[api.JournalAppendResponse](t, w, http.StatusOK)
	return &resp
}

// TestFollowerAppendExport drives the full replica-side replication
// contract: in-order appends ack with the advancing high-water mark,
// duplicates absorb, gaps 409, and the journal-export route serves the
// copy back byte-for-byte under the gateway's session id.
func TestFollowerAppendExport(t *testing.T) {
	s := newTestServer(t, Config{JournalDir: t.TempDir(), Logf: t.Logf})
	req, chunks := followerChunks(t, 3)
	const id = "g-00000001"

	for i, c := range chunks {
		resp := appendChunk(t, s, id, i+1, req, c)
		if resp.LastSeq != i+1 || resp.Duplicate {
			t.Fatalf("append %d: resp %+v", i+1, resp)
		}
	}
	// A retried append (the gateway lost the ack) is absorbed.
	if resp := appendChunk(t, s, id, 2, req, chunks[1]); !resp.Duplicate || resp.LastSeq != len(chunks) {
		t.Fatalf("duplicate append: resp %+v", resp)
	}
	// A gap is rejected so the gateway reseeds instead of leaving a hole.
	w := do(t, s, "POST", "/v1/sessions/"+id+"/journal/append", api.JournalAppend{
		SchemaVersion: api.Version, Seq: len(chunks) + 5, Request: req, Chunk: chunks[0],
	})
	errCode(t, w, http.StatusConflict, api.CodeConflict)

	// The copy exports through the normal journal route even though the
	// id is not a session this server owns.
	exp := decode[api.SessionJournal](t, do(t, s, "GET", "/v1/sessions/"+id+"/journal", nil), http.StatusOK)
	if exp.ID != id {
		t.Fatalf("export id = %q", exp.ID)
	}
	if !reflect.DeepEqual(exp.Request, req) {
		t.Fatalf("export request = %+v, want %+v", exp.Request, req)
	}
	if !reflect.DeepEqual(exp.Chunks, chunks) {
		t.Fatalf("export chunks do not round-trip (%d vs %d)", len(exp.Chunks), len(chunks))
	}
	if exp.LastSeq != chunks[len(chunks)-1].Seq {
		t.Fatalf("export last_seq = %d, want %d", exp.LastSeq, chunks[len(chunks)-1].Seq)
	}

	// An id with neither a session nor a copy is still a 404.
	errCode(t, do(t, s, "GET", "/v1/sessions/g-99999999/journal", nil), http.StatusNotFound, api.CodeNotFound)
}

// TestFollowerAppendChecksChunk pins the follower's check-only decode of
// a replicated chunk. An append whose chunk the full decode rejects gets
// the full decode's 400, code and message, and nothing lands in the
// follower journal. An append whose chunk only encoding/json accepts is
// journaled as the chunk's json.Marshal re-encoding.
func TestFollowerAppendChecksChunk(t *testing.T) {
	s := newTestServer(t, Config{JournalDir: t.TempDir(), Logf: t.Logf})
	const id = "g-00000001"
	envelope := func(chunk string) string {
		return `{"schema_version":"v1","seq":1,"request":{"flight":"f","sample_rate_hz":16000},"chunk":` + chunk + `}`
	}

	bad := envelope(`{"seq":1,"audio":[{"start_seconds":0,"rate_hz":16000,"samples":[[0,1e999]]}]}`)
	var full api.JournalAppend
	wantErr := api.DecodeStrict(strings.NewReader(bad), &full)
	if wantErr == nil {
		t.Fatal("the full decode accepted a 1e999 sample")
	}
	e := decode[api.Error](t, do(t, s, "POST", "/v1/sessions/"+id+"/journal/append", bad), http.StatusBadRequest)
	if e.Code != api.CodeBadRequest || e.Error != wantErr.Error() {
		t.Fatalf("rejected append: %+v, want code %q error %q", e, api.CodeBadRequest, wantErr)
	}
	for _, path := range []string{s.followers.MetaPath(id), s.followers.ChunksPath(id)} {
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("a rejected append left %s (stat err %v)", path, err)
		}
	}

	folded := envelope(`{"SEQ":1,"audio":[{"start_seconds":0,"rate_hz":16000,"samples":[[0,0.5]]}]}`)
	if resp := decode[api.JournalAppendResponse](t, do(t, s, "POST", "/v1/sessions/"+id+"/journal/append", folded), http.StatusOK); resp.LastSeq != 1 {
		t.Fatalf("append after a rejected one: %+v, want last seq 1", resp)
	}
	full = api.JournalAppend{}
	if err := api.DecodeStrict(strings.NewReader(folded), &full); err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(full.Chunk)
	got, err := os.ReadFile(s.followers.ChunksPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want)+"\n" {
		t.Fatalf("journaled %q, want %q", got, want)
	}
}

// TestFollowerAppendRequiresJournal pins the 409 on replicas running
// without -journal: a copy that cannot be persisted is not a copy.
func TestFollowerAppendRequiresJournal(t *testing.T) {
	s := newTestServer(t, Config{Logf: t.Logf})
	req, chunks := followerChunks(t, 2)
	w := do(t, s, "POST", "/v1/sessions/g-00000001/journal/append", api.JournalAppend{
		SchemaVersion: api.Version, Seq: 1, Request: req, Chunk: chunks[0],
	})
	errCode(t, w, http.StatusConflict, api.CodeConflict)
}

// TestFollowerCopySurvivesRestart rebuilds a copy's high-water mark from
// disk after the process restarts: replication resumes exactly where it
// stopped, and the export still carries every chunk.
func TestFollowerCopySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	req, chunks := followerChunks(t, 4)
	const id = "g-00000007"

	s1 := newTestServer(t, Config{JournalDir: dir, Logf: t.Logf})
	appendChunk(t, s1, id, 1, req, chunks[0])
	appendChunk(t, s1, id, 2, req, chunks[1])
	shutdownNow(t, s1)

	s2 := newTestServer(t, Config{JournalDir: dir, Logf: t.Logf})
	// The restarted server re-learns lastSeq=2 lazily from disk: a
	// duplicate absorbs, the next seq appends.
	if resp := appendChunk(t, s2, id, 2, req, chunks[1]); !resp.Duplicate {
		t.Fatalf("resumed duplicate: resp %+v", resp)
	}
	appendChunk(t, s2, id, 3, req, chunks[2])
	appendChunk(t, s2, id, 4, req, chunks[3])
	exp := decode[api.SessionJournal](t, do(t, s2, "GET", "/v1/sessions/"+id+"/journal", nil), http.StatusOK)
	if !reflect.DeepEqual(exp.Chunks, chunks) {
		t.Fatalf("export after restart: %d chunks, want %d", len(exp.Chunks), len(chunks))
	}
}

// TestRecoveryCleansEmptyJournals pins crash-mid-create debris handling:
// a blank meta and an orphan chunk log are reclaimed at startup as
// never-started sessions — not recovered, not surfaced as corrupt.
func TestRecoveryCleansEmptyJournals(t *testing.T) {
	dir := t.TempDir()
	// Blank meta (crash before the first atomic write landed) …
	if err := os.WriteFile(filepath.Join(dir, "s-00000001.meta.json"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// … and an orphan chunk log whose meta never existed.
	if err := os.WriteFile(filepath.Join(dir, "s-00000002.chunks.jsonl"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{JournalDir: dir, Logf: t.Logf})
	h := decode[api.Health](t, do(t, s, "GET", "/v1/healthz", nil), http.StatusOK)
	if h.ActiveSessions != 0 {
		t.Fatalf("recovered %d session(s) from empty journals", h.ActiveSessions)
	}
	for _, name := range []string{"s-00000001.meta.json", "s-00000002.chunks.jsonl"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s not cleaned up (err %v)", name, err)
		}
	}
	// A fresh session under a cleaned id works normally.
	runSession(t, s, getFixture(t).calib[0], 2)
}

// FuzzFollowerAppend drives the follower append route with an arbitrary
// sequence of replication seqs. Each input byte is one append: its low
// six bits are the seq and its top bit sets Close on the chunk. A model
// of the contract predicts every answer — seq 0 is a 400, a seq at or
// below the high-water mark acks duplicate with the mark unchanged, the
// next seq is appended, anything further ahead is a 409 gap — and the
// copy exported at the end holds exactly the accepted prefix.
func FuzzFollowerAppend(f *testing.F) {
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{1, 1, 3, 2, 2, 0x83, 4, 2})
	f.Add([]byte{2, 0, 1})
	f.Fuzz(func(t *testing.T, seqs []byte) {
		if len(seqs) > 32 {
			seqs = seqs[:32]
		}
		s := newTestServer(t, Config{JournalDir: t.TempDir()})
		const id = "g-00000001"
		path := "/v1/sessions/" + id + "/journal"
		req := api.SessionRequest{Flight: "fuzz", SampleRateHz: 4000}
		var held []api.FramesRequest
		for _, b := range seqs {
			seq := int(b & 0x3f)
			chunk := api.FramesRequest{Seq: seq, IMU: []api.IMUSample{{TimeSeconds: float64(seq)}}, Close: b&0x80 != 0}
			w := do(t, s, "POST", path+"/append", api.JournalAppend{
				SchemaVersion: api.Version, Seq: seq, Request: req, Chunk: chunk,
			})
			last := len(held)
			switch {
			case seq == 0:
				errCode(t, w, http.StatusBadRequest, api.CodeBadRequest)
			case seq <= last:
				if resp := decode[api.JournalAppendResponse](t, w, http.StatusOK); !resp.Duplicate || resp.LastSeq != last {
					t.Fatalf("seq %d at mark %d: %+v, want a duplicate ack", seq, last, resp)
				}
			case seq == last+1:
				if resp := decode[api.JournalAppendResponse](t, w, http.StatusOK); resp.Duplicate || resp.LastSeq != seq {
					t.Fatalf("seq %d at mark %d: %+v, want it appended", seq, last, resp)
				}
				held = append(held, chunk)
			default:
				errCode(t, w, http.StatusConflict, api.CodeConflict)
			}
		}
		w := do(t, s, "GET", path, nil)
		if len(held) == 0 {
			if w.Code == http.StatusOK {
				if exp := decode[api.SessionJournal](t, w, http.StatusOK); len(exp.Chunks) != 0 {
					t.Fatalf("nothing accepted, yet the copy holds %d chunks", len(exp.Chunks))
				}
			}
			return
		}
		exp := decode[api.SessionJournal](t, w, http.StatusOK)
		if !reflect.DeepEqual(exp.Chunks, held) || exp.LastSeq != len(held) || exp.Request != req {
			t.Fatalf("copy holds %+v (last_seq %d, request %+v), want the accepted prefix %+v",
				exp.Chunks, exp.LastSeq, exp.Request, held)
		}
	})
}
