package journal

import (
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"soundboost/api"
)

func chunk(seq int, close bool) api.FramesRequest {
	return api.FramesRequest{
		Seq:   seq,
		IMU:   []api.IMUSample{{TimeSeconds: float64(seq)}},
		Close: close,
	}
}

func writeSession(t *testing.T, st *Store, id string, n int) *Session {
	t.Helper()
	sj, err := st.Session(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := sj.WriteMeta(Meta{ID: id, State: api.SessionOpen, Req: api.SessionRequest{Flight: id, SampleRateHz: 4000}}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if err := sj.AppendChunk(chunk(i, false)); err != nil {
			t.Fatal(err)
		}
	}
	return sj
}

// TestRoundTrip pins the append → load cycle: every appended chunk comes
// back in order, the meta snapshot survives rewrites, and ids load in
// sorted order.
func TestRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b := writeSession(t, st, "s-00000002", 2)
	a := writeSession(t, st, "s-00000001", 3)
	if err := a.WriteMeta(Meta{ID: "s-00000001", State: api.SessionDraining, LastSeq: 3}); err != nil {
		t.Fatal(err)
	}
	a.CloseChunks()
	b.CloseChunks()

	recs, errs := st.Load()
	if len(errs) != 0 {
		t.Fatalf("load errs: %v", errs)
	}
	if len(recs) != 2 {
		t.Fatalf("loaded %d sessions, want 2", len(recs))
	}
	if recs[0].Meta.ID != "s-00000001" || recs[1].Meta.ID != "s-00000002" {
		t.Fatalf("load order %q, %q; want sorted ids", recs[0].Meta.ID, recs[1].Meta.ID)
	}
	if recs[0].Meta.State != api.SessionDraining || recs[0].Meta.LastSeq != 3 {
		t.Fatalf("meta rewrite lost: %+v", recs[0].Meta)
	}
	if len(recs[0].Chunks) != 3 || len(recs[1].Chunks) != 2 {
		t.Fatalf("chunks = %d, %d; want 3, 2", len(recs[0].Chunks), len(recs[1].Chunks))
	}
	for i, c := range recs[0].Chunks {
		if c.Seq != i+1 {
			t.Fatalf("chunk %d has seq %d", i, c.Seq)
		}
	}
	if recs[0].Corrupt != "" || recs[1].Corrupt != "" {
		t.Fatalf("clean logs flagged corrupt: %q, %q", recs[0].Corrupt, recs[1].Corrupt)
	}
}

// TestTornTailTolerated pins the crash-mid-append contract: a garbage
// FINAL line is end-of-log — the chunk was never acknowledged — and the
// session is NOT corrupt.
func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeSession(t, st, "s-00000001", 2).CloseChunks()
	f, err := os.OpenFile(st.ChunksPath("s-00000001"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":3,"imu":[{"time_se`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rec, err := st.LoadSession("s-00000001")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Corrupt != "" {
		t.Fatalf("torn tail flagged corrupt: %q", rec.Corrupt)
	}
	if len(rec.Chunks) != 2 {
		t.Fatalf("recovered %d chunks, want 2 (torn tail dropped)", len(rec.Chunks))
	}
}

// TestMidLogCorruptionSurfaced is the regression test for the silent
// truncation hole: damage BEFORE the final line means acknowledged
// chunks are unreadable, and the load must say so instead of silently
// replaying a prefix.
func TestMidLogCorruptionSurfaced(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeSession(t, st, "s-00000001", 4).CloseChunks()

	// Smash chunk 2 in place: the log now has a valid line, garbage, then
	// two more valid lines.
	path := st.ChunksPath("s-00000001")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("fixture has %d lines, want 4", len(lines))
	}
	lines[1] = lines[1][:len(lines[1])/2] // torn in the middle of the log
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := st.LoadSession("s-00000001")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Corrupt == "" {
		t.Fatal("mid-log corruption not surfaced")
	}
	if !strings.Contains(rec.Corrupt, "line 2") {
		t.Fatalf("corruption cause %q does not name the damaged line", rec.Corrupt)
	}
	if len(rec.Chunks) != 1 {
		t.Fatalf("recovered %d chunks before the damage, want 1", len(rec.Chunks))
	}
}

// TestRemove deletes both files so an evicted session cannot be
// resurrected by the next recovery.
func TestRemove(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sj := writeSession(t, st, "s-00000001", 1)
	sj.Remove()
	if _, err := os.Stat(st.MetaPath("s-00000001")); !os.IsNotExist(err) {
		t.Fatalf("meta still present: %v", err)
	}
	if _, err := os.Stat(st.ChunksPath("s-00000001")); !os.IsNotExist(err) {
		t.Fatalf("chunks still present: %v", err)
	}
	recs, errs := st.Load()
	if len(recs) != 0 || len(errs) != 0 {
		t.Fatalf("load after remove: %d recs, errs %v", len(recs), errs)
	}
}

// TestAppendAfterClose keeps the lifecycle strict: appends after
// CloseChunks must error, not silently write nowhere.
func TestAppendAfterClose(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sj := writeSession(t, st, "s-00000001", 1)
	sj.CloseChunks()
	if err := sj.AppendChunk(chunk(2, false)); err == nil {
		t.Fatal("append after close succeeded")
	}
}

// TestAppendReleasedChecked: a follower's append released before its
// journal write holds no chunk bytes, so AppendChecked fails and the
// log stays empty instead of taking bytes the pool has handed on.
func TestAppendReleasedChecked(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sj := writeSession(t, st, "g-00000001", 0)
	body := `{"schema_version":"v1","seq":1,"request":{},"chunk":{"seq":1,"imu":[{"time_seconds":1}]}}`
	var a api.CheckedAppend
	if err := api.DecodeRequest(httptest.NewRequest("POST", "/", strings.NewReader(body)), &a); err != nil {
		t.Fatal(err)
	}
	a.Release()
	if err := sj.AppendChecked(a.Chunk); err == nil {
		t.Fatal("released chunk journalled")
	}
	sj.CloseChunks()
	if raw, err := os.ReadFile(st.ChunksPath("g-00000001")); err != nil || len(raw) != 0 {
		t.Fatalf("chunk log after a refused append: %q, %v", raw, err)
	}
}

// TestPresenceMatrix pins how every combination of meta and chunk-log
// presence loads. The load-bearing rows are the partially-created ones:
// an empty meta or an orphan chunk log is the debris of a crash inside
// session creation and must read as ErrEmptyJournal (a clean new
// session), never as corruption — and a valid meta with no chunk log at
// all is simply a session that never saw frames.
func TestPresenceMatrix(t *testing.T) {
	const id = "s-00000001"
	validMeta := func(st *Store) {
		sj, err := st.Session(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := sj.WriteMeta(Meta{ID: id, State: api.SessionOpen, Req: api.SessionRequest{Flight: id, SampleRateHz: 4000}}); err != nil {
			t.Fatal(err)
		}
		sj.CloseChunks()
		// Session() creates the chunk log; rows that want it absent or
		// reshaped overwrite below.
	}
	cases := []struct {
		name      string
		setup     func(st *Store)
		wantEmpty bool
		wantErr   bool // a non-empty load error
		wantRecs  int  // sessions recovered by Load
		wantChunk int  // chunks on the recovered session
	}{
		{
			name:  "meta valid, chunk log absent",
			setup: func(st *Store) { validMeta(st); os.Remove(st.ChunksPath(id)) },
			// A session that never saw frames: loads clean with zero chunks.
			wantRecs: 1,
		},
		{
			name:     "meta valid, chunk log empty",
			setup:    func(st *Store) { validMeta(st) },
			wantRecs: 1,
		},
		{
			name: "meta valid, chunk log populated",
			setup: func(st *Store) {
				sj := writeSession(t, st, id, 2)
				sj.CloseChunks()
			},
			wantRecs:  1,
			wantChunk: 2,
		},
		{
			name: "meta empty, chunk log absent",
			setup: func(st *Store) {
				if err := os.WriteFile(st.MetaPath(id), nil, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantEmpty: true,
		},
		{
			name: "meta empty, chunk log present",
			setup: func(st *Store) {
				if err := os.WriteFile(st.MetaPath(id), []byte(" \n"), 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(st.ChunksPath(id), nil, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantEmpty: true,
		},
		{
			name: "meta absent, chunk log present",
			setup: func(st *Store) {
				if err := os.WriteFile(st.ChunksPath(id), nil, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantEmpty: true,
		},
		{
			name:  "meta absent, chunk log absent",
			setup: func(st *Store) {},
			// Not a session at all: LoadSession reports not-found, Load
			// reports nothing.
			wantErr: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			tc.setup(st)

			rec, err := st.LoadSession(id)
			switch {
			case tc.wantEmpty:
				if !errors.Is(err, ErrEmptyJournal) {
					t.Fatalf("LoadSession err = %v, want ErrEmptyJournal", err)
				}
				var emptyErr *EmptyJournalError
				if !errors.As(err, &emptyErr) || emptyErr.ID != id {
					t.Fatalf("LoadSession err = %v, want EmptyJournalError carrying %q", err, id)
				}
			case tc.wantErr:
				if err == nil {
					t.Fatalf("LoadSession succeeded: %+v", rec)
				}
				if errors.Is(err, ErrEmptyJournal) {
					t.Fatalf("missing session misreported as empty journal: %v", err)
				}
			default:
				if err != nil {
					t.Fatalf("LoadSession: %v", err)
				}
				if rec.Corrupt != "" {
					t.Fatalf("clean journal flagged corrupt: %q", rec.Corrupt)
				}
				if len(rec.Chunks) != tc.wantChunk {
					t.Fatalf("chunks = %d, want %d", len(rec.Chunks), tc.wantChunk)
				}
			}

			recs, errs := st.Load()
			if len(recs) != tc.wantRecs {
				t.Fatalf("Load recovered %d sessions, want %d (errs %v)", len(recs), tc.wantRecs, errs)
			}
			gotEmpty := false
			for _, lerr := range errs {
				if errors.Is(lerr, ErrEmptyJournal) {
					gotEmpty = true
				}
			}
			if gotEmpty != tc.wantEmpty {
				t.Fatalf("Load empty-journal report = %v, want %v (errs %v)", gotEmpty, tc.wantEmpty, errs)
			}
		})
	}
}

// TestRemoveSession cleans up an empty journal by id — no Session handle
// needed.
func TestRemoveSession(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.MetaPath("s-00000009"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.ChunksPath("s-00000009"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	st.RemoveSession("s-00000009")
	if _, err := os.Stat(st.MetaPath("s-00000009")); !os.IsNotExist(err) {
		t.Fatalf("meta still present: %v", err)
	}
	if _, err := os.Stat(st.ChunksPath("s-00000009")); !os.IsNotExist(err) {
		t.Fatalf("chunks still present: %v", err)
	}
}

// TestUnreadableMetaReported keeps the per-session error contract: a
// damaged meta skips that session but reports it.
func TestUnreadableMetaReported(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	writeSession(t, st, "s-00000001", 1).CloseChunks()
	if err := os.WriteFile(filepath.Join(dir, "s-00000002.meta.json"), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, errs := st.Load()
	if len(recs) != 1 || recs[0].Meta.ID != "s-00000001" {
		t.Fatalf("recs = %+v, want just s-00000001", recs)
	}
	if len(errs) != 1 {
		t.Fatalf("errs = %v, want exactly one", errs)
	}
}
