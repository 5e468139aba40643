package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"soundboost/api"
	"soundboost/internal/chaos"
	"soundboost/internal/dataset"
)

// waitSessionState polls a session's status until it reaches want.
func waitSessionState(t *testing.T, s *Server, base, want string) api.SessionStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := decode[api.SessionStatus](t, do(t, s, "GET", base+"/status", nil), http.StatusOK)
		if st.State == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("session stuck in state %q, want %q", st.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSessionPanicIsolation poisons one session's message stream and
// requires that session — and only that session — to fail: the panic is
// contained, its cause recorded and served, and a concurrently fed
// session's verdict stays identical to a clean run.
func TestSessionPanicIsolation(t *testing.T) {
	fx := getFixture(t)
	flight := fx.calib[0]
	const poisonFlight = "poisoned-run"
	s := newTestServer(t, Config{
		SessionInjector: func(id, flight string) *chaos.Injector {
			if flight != poisonFlight {
				return nil
			}
			return chaos.NewInjector(chaos.Config{PoisonAfter: 50}, nil)
		},
	})
	clean := runSession(t, s, flight, 4)

	// Interleave: open the healthy session, detonate the poisoned one,
	// then finish the healthy one.
	reqs, err := framesFromFlight(flight, 4)
	if err != nil {
		t.Fatal(err)
	}
	healthy := openSession(t, s, flight)
	for _, req := range reqs[:2] {
		decode[api.FramesResponse](t, do(t, s, "POST", healthy+"/frames", req), http.StatusOK)
	}

	poisoned := decode[api.SessionResponse](t, do(t, s, "POST", "/v1/sessions", api.SessionRequest{
		Flight:       poisonFlight,
		SampleRateHz: flight.Audio.SampleRate,
	}), http.StatusCreated)
	pBase := "/v1/sessions/" + poisoned.ID
	for _, req := range reqs {
		// Posts racing the panic may fail once the engine dies; that is
		// the expected way for the client to learn.
		if w := do(t, s, "POST", pBase+"/frames", req); w.Code != http.StatusOK {
			break
		}
	}
	st := waitSessionState(t, s, pBase, api.SessionFailed)
	if st.FailCause == "" {
		t.Error("failed session has no recorded cause")
	}
	// Further frames are refused with the permanent failure code.
	errCode(t, do(t, s, "POST", pBase+"/frames", reqs[0]), http.StatusInternalServerError, api.CodeSessionFailed)
	// The report endpoint must not pretend there is a verdict.
	if w := do(t, s, "GET", pBase+"/report", nil); w.Code == http.StatusOK {
		t.Errorf("failed session served a report: %s", w.Body.String())
	}

	report, err := feedSession(s, healthy, flight, 4)
	if err != nil {
		t.Fatalf("healthy session disturbed by sibling panic: %v", err)
	}
	// feedSession re-sends the full chunk sequence; the first two were
	// already accepted, so their resends must come back as duplicates —
	// and the verdict must be untouched by the sibling's death.
	if !reflect.DeepEqual(report, clean) {
		t.Errorf("healthy session verdict diverged after sibling panic:\nclean: %+v\ngot:   %+v", clean, report)
	}
}

// TestPoisonReleasesBlockedPost pins the chunk queue's failure path: a
// post blocked on a full queue of a session whose engine then panics is
// released with 500 session_failed, as is every later post, while a
// sibling session streamed meanwhile keeps its clean verdict.
func TestPoisonReleasesBlockedPost(t *testing.T) {
	fx := getFixture(t)
	flight := fx.calib[0]
	const poisonFlight = "poisoned-run"
	// The poisoned engine stalls on its first message until gate opens
	// (a latency burst), then dies on its second (the poison pill).
	gate := make(chan struct{})
	s := newTestServer(t, Config{
		SessionInjector: func(id, flight string) *chaos.Injector {
			if flight != poisonFlight {
				return nil
			}
			return chaos.NewInjector(chaos.Config{
				LatencyRate: 1, LatencySeconds: 1,
				Sleep:       func(time.Duration) { <-gate },
				PoisonAfter: 2,
			}, nil)
		},
	})
	clean := runSession(t, s, flight, 4)

	reqs, err := framesFromFlight(flight, chunkQueueDepth+4)
	if err != nil {
		t.Fatal(err)
	}
	poisoned := decode[api.SessionResponse](t, do(t, s, "POST", "/v1/sessions", api.SessionRequest{
		Flight:       poisonFlight,
		SampleRateHz: flight.Audio.SampleRate,
	}), http.StatusCreated)
	pBase := "/v1/sessions/" + poisoned.ID
	sess, err := s.lookup(poisoned.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	// The engine takes the first chunk and stalls inside it; the next
	// chunkQueueDepth chunks fill the queue and are all acknowledged.
	decode[api.FramesResponse](t, do(t, s, "POST", pBase+"/frames", reqs[0]), http.StatusOK)
	waitFor("the engine to take chunk 1", func() bool { return len(sess.in) == 0 })
	for _, req := range reqs[1 : 1+chunkQueueDepth] {
		decode[api.FramesResponse](t, do(t, s, "POST", pBase+"/frames", req), http.StatusOK)
	}
	if n := len(sess.in); n != chunkQueueDepth {
		t.Fatalf("queue holds %d chunks, want %d", n, chunkQueueDepth)
	}
	blocked := make(chan *httptest.ResponseRecorder)
	go func() { blocked <- do(nil, s, "POST", pBase+"/frames", reqs[1+chunkQueueDepth]) }()
	// The blocked post holds the session's publication lock.
	waitFor("the post to block", func() bool {
		if sess.pubMu.TryLock() {
			sess.pubMu.Unlock()
			return false
		}
		return true
	})
	select {
	case w := <-blocked:
		t.Fatalf("post on a full queue returned %d before the engine moved", w.Code)
	case <-time.After(50 * time.Millisecond):
	}

	// A sibling streams to completion while the poisoned engine stalls.
	report, err := feedSession(s, openSession(t, s, flight), flight, 4)
	if err != nil {
		t.Fatalf("sibling session: %v", err)
	}
	if !reflect.DeepEqual(report, clean) {
		t.Errorf("sibling verdict diverged:\nclean: %+v\ngot:   %+v", clean, report)
	}

	close(gate)
	errCode(t, <-blocked, http.StatusInternalServerError, api.CodeSessionFailed)
	st := waitSessionState(t, s, pBase, api.SessionFailed)
	if !strings.Contains(st.FailCause, "poison pill") {
		t.Errorf("fail cause = %q, want the poison pill", st.FailCause)
	}
	errCode(t, do(t, s, "POST", pBase+"/frames", reqs[2+chunkQueueDepth]), http.StatusInternalServerError, api.CodeSessionFailed)
}

// TestFramesSeqIdempotency pins the sequence-number contract: duplicate
// chunks are acknowledged without re-publication, gaps are rejected with
// a 409, and the in-order chunk is then accepted.
func TestFramesSeqIdempotency(t *testing.T) {
	fx := getFixture(t)
	flight := fx.calib[0]
	s := newTestServer(t, Config{})
	clean := runSession(t, s, flight, 4)

	reqs, err := framesFromFlight(flight, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) < 3 {
		t.Fatalf("want >= 3 chunks, got %d", len(reqs))
	}
	for i, r := range reqs {
		if r.Seq != i+1 {
			t.Fatalf("ChunkFlight seq[%d] = %d, want %d", i, r.Seq, i+1)
		}
	}
	base := openSession(t, s, flight)
	first := decode[api.FramesResponse](t, do(t, s, "POST", base+"/frames", reqs[0]), http.StatusOK)
	if first.Duplicate || first.Accepted == 0 {
		t.Fatalf("first chunk: accepted %d duplicate %v", first.Accepted, first.Duplicate)
	}
	// Resend: the lost-ack case. Must ack as duplicate, publish nothing.
	resent := decode[api.FramesResponse](t, do(t, s, "POST", base+"/frames", reqs[0]), http.StatusOK)
	if !resent.Duplicate || resent.Accepted != 0 {
		t.Fatalf("resent chunk: accepted %d duplicate %v, want 0/true", resent.Accepted, resent.Duplicate)
	}
	// Gap: skipping a chunk must be refused, not silently published.
	errCode(t, do(t, s, "POST", base+"/frames", reqs[2]), http.StatusConflict, api.CodeConflict)
	// The in-order successor is still welcome.
	for _, r := range reqs[1:] {
		decode[api.FramesResponse](t, do(t, s, "POST", base+"/frames", r), http.StatusOK)
	}
	w := do(t, s, "GET", base+"/report", nil)
	report := decode[api.Report](t, w, http.StatusOK)
	if !reflect.DeepEqual(report, clean) {
		t.Errorf("verdict after duplicate+gap traffic diverged:\nclean: %+v\ngot:   %+v", clean, report)
	}
	st := decode[api.SessionStatus](t, do(t, s, "GET", base+"/status", nil), http.StatusOK)
	if st.LastSeq != len(reqs) {
		t.Errorf("last_seq = %d, want %d", st.LastSeq, len(reqs))
	}
}

// TestBatchTimeout bounds the batch path: a deadline that expires mid-
// analysis turns into a 503 with the timeout code, and the limiter slot
// comes back once the abandoned work returns — a wedged analysis cannot
// hold a slot forever.
func TestBatchTimeout(t *testing.T) {
	fx := getFixture(t)
	s := newTestServer(t, Config{MaxJobs: 1, BatchTimeout: time.Nanosecond})
	raw := encodeFlight(t, fx.calib[0])
	errCode(t, do(t, s, "POST", "/v1/flights", string(raw)), http.StatusServiceUnavailable, api.CodeTimeout)
	// The slot is released when the abandoned analysis finishes, not
	// leaked with it.
	deadline := time.Now().Add(30 * time.Second)
	for s.jobs.InUse() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("limiter slot still held %d after timeout", s.jobs.InUse())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func encodeFlight(t *testing.T, f *dataset.Flight) []byte {
	t.Helper()
	var buf []byte
	w := &sliceWriter{buf: &buf}
	if err := f.Save(w); err != nil {
		t.Fatal(err)
	}
	return buf
}

type sliceWriter struct{ buf *[]byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	*w.buf = append(*w.buf, p...)
	return len(p), nil
}

// copyDir snapshots a journal directory the way kill -9 would leave it:
// byte-for-byte, no cooperation from the running server.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		// The followers/ subdir is not part of a session's own journal,
		// and a *.tmp file is a meta write the journal has not renamed
		// into place yet.
		if e.IsDir() || strings.HasSuffix(e.Name(), ".tmp") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if errors.Is(err, fs.ErrNotExist) {
			continue // renamed or removed since ReadDir: not in the snapshot
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestJournalCrashRecoveryMidSession kills a server (by snapshotting its
// journal mid-upload and starting a fresh server over the snapshot) and
// requires the recovered session to hold every acknowledged chunk: the
// client resends its in-flight chunk, streams the rest, and gets the
// exact clean verdict.
func TestJournalCrashRecoveryMidSession(t *testing.T) {
	fx := getFixture(t)
	flight := fx.calib[0]
	liveDir := t.TempDir()
	a := newTestServer(t, Config{JournalDir: liveDir})
	clean := runSession(t, a, flight, 6)

	reqs, err := framesFromFlight(flight, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) < 4 {
		t.Fatalf("want >= 4 chunks, got %d", len(reqs))
	}
	base := openSession(t, a, flight)
	cut := len(reqs) / 2
	for _, r := range reqs[:cut] {
		decode[api.FramesResponse](t, do(t, a, "POST", base+"/frames", r), http.StatusOK)
	}

	// "Crash": freeze the journal as-is while the session is mid-upload.
	crashDir := copyDir(t, liveDir)
	// A torn trailing line — the crash landed mid-append. Recovery must
	// treat it as end-of-log, not refuse the session.
	var chunksFile string
	for _, m := range mustGlob(t, crashDir, "*.chunks.jsonl") {
		chunksFile = m
	}
	torn, err := os.OpenFile(chunksFile, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(torn, `{"seq":99,"audio":[{"start":`)
	torn.Close()
	// Unreadable sibling meta: logged and skipped, never fatal.
	if err := os.WriteFile(filepath.Join(crashDir, "s-garbage.meta.json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	b := newTestServer(t, Config{JournalDir: crashDir})
	st := waitSessionState(t, b, base, api.SessionOpen)
	if st.LastSeq != cut {
		t.Fatalf("recovered last_seq = %d, want %d (no acknowledged chunk may be lost)", st.LastSeq, cut)
	}
	// The client's resend of its last unacknowledged chunk rides the seq
	// contract: chunk cut was never acked, so it is accepted; a resend of
	// chunk cut-1 would be a duplicate.
	dup := decode[api.FramesResponse](t, do(t, b, "POST", base+"/frames", reqs[cut-1]), http.StatusOK)
	if !dup.Duplicate {
		t.Fatal("resend of an acknowledged chunk after recovery was not deduplicated")
	}
	for _, r := range reqs[cut:] {
		decode[api.FramesResponse](t, do(t, b, "POST", base+"/frames", r), http.StatusOK)
	}
	report := decode[api.Report](t, do(t, b, "GET", base+"/report", nil), http.StatusOK)
	if !reflect.DeepEqual(report, clean) {
		t.Errorf("recovered session verdict diverged from clean:\nclean: %+v\ngot:   %+v", clean, report)
	}

	// The id allocator must have advanced past the recovered session.
	fresh := decode[api.SessionResponse](t, do(t, b, "POST", "/v1/sessions", api.SessionRequest{
		Flight: flight.Name, SampleRateHz: flight.Audio.SampleRate,
	}), http.StatusCreated)
	if fresh.ID == st.ID {
		t.Fatalf("new session reused recovered id %q", fresh.ID)
	}
}

// TestJournalRecoversTerminalStates restarts over a journal holding a
// finished session and requires its report to be served without
// rebuilding an engine — and a new server to refuse frames for it.
func TestJournalRecoversTerminalStates(t *testing.T) {
	fx := getFixture(t)
	flight := fx.calib[0]
	liveDir := t.TempDir()
	a := newTestServer(t, Config{JournalDir: liveDir})
	reqs, err := framesFromFlight(flight, 3)
	if err != nil {
		t.Fatal(err)
	}
	base := openSession(t, a, flight)
	clean, err := feedSession(a, base, flight, 3)
	if err != nil {
		t.Fatal(err)
	}
	waitSessionState(t, a, base, api.SessionDone)

	b := newTestServer(t, Config{JournalDir: copyDir(t, liveDir)})
	st := waitSessionState(t, b, base, api.SessionDone)
	if st.State != api.SessionDone {
		t.Fatalf("recovered state %q", st.State)
	}
	report := decode[api.Report](t, do(t, b, "GET", base+"/report", nil), http.StatusOK)
	if !reflect.DeepEqual(report, clean) {
		t.Errorf("recovered report diverged:\nwant: %+v\ngot:  %+v", clean, report)
	}
	errCode(t, do(t, b, "POST", base+"/frames", reqs[0]), http.StatusConflict, api.CodeConflict)
}

// TestJournalCorruptRecoveredAsFailed is the regression test for the
// silent-vanish hole: a session whose meta parses but whose chunk log is
// damaged BEFORE the tolerated torn tail must come back as a failed
// session with the corruption recorded as its cause — not disappear, and
// not serve a verdict replayed from a silently truncated log.
func TestJournalCorruptRecoveredAsFailed(t *testing.T) {
	fx := getFixture(t)
	flight := fx.calib[0]
	liveDir := t.TempDir()
	a := newTestServer(t, Config{JournalDir: liveDir})
	reqs, err := framesFromFlight(flight, 6)
	if err != nil {
		t.Fatal(err)
	}
	base := openSession(t, a, flight)
	for _, r := range reqs[:len(reqs)/2] {
		decode[api.FramesResponse](t, do(t, a, "POST", base+"/frames", r), http.StatusOK)
	}

	// "Crash", then damage the log in its interior: truncate the second
	// chunk line halfway. Acknowledged chunks are now unreadable.
	crashDir := copyDir(t, liveDir)
	var chunksFile string
	for _, m := range mustGlob(t, crashDir, "*.chunks.jsonl") {
		chunksFile = m
	}
	raw, err := os.ReadFile(chunksFile)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("fixture journal has %d chunk lines, want >= 3", len(lines))
	}
	lines[1] = lines[1][:len(lines[1])/2]
	if err := os.WriteFile(chunksFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	b := newTestServer(t, Config{JournalDir: crashDir})
	st := waitSessionState(t, b, base, api.SessionFailed)
	if st.FailCause == "" {
		t.Fatal("corrupt-journal session recovered without a recorded cause")
	}
	if !strings.Contains(st.FailCause, "journal unreadable") || !strings.Contains(st.FailCause, "line 2") {
		t.Errorf("fail cause %q does not name the journal corruption", st.FailCause)
	}
	// The failure is permanent and visible on every surface: frames are
	// refused with the failed code, and the report endpoint must not
	// fabricate a verdict.
	errCode(t, do(t, b, "POST", base+"/frames", reqs[0]), http.StatusInternalServerError, api.CodeSessionFailed)
	if w := do(t, b, "GET", base+"/report", nil); w.Code == http.StatusOK {
		t.Errorf("corrupt-journal session served a report: %s", w.Body.String())
	}
	// And it survives another restart: the failure cause was re-journaled.
	c := newTestServer(t, Config{JournalDir: copyDir(t, crashDir)})
	st = waitSessionState(t, c, base, api.SessionFailed)
	if !strings.Contains(st.FailCause, "journal unreadable") {
		t.Errorf("fail cause lost across second restart: %q", st.FailCause)
	}
}

// TestJournalExportEndpoint pins the fleet handoff source: the export
// carries the original request plus exactly the acknowledged chunk
// prefix, and replaying it into a second server reproduces the verdict
// byte-identically.
func TestJournalExportEndpoint(t *testing.T) {
	fx := getFixture(t)
	flight := fx.calib[0]
	a := newTestServer(t, Config{JournalDir: t.TempDir()})
	clean := runSession(t, a, flight, 6)

	reqs, err := framesFromFlight(flight, 6)
	if err != nil {
		t.Fatal(err)
	}
	base := openSession(t, a, flight)
	cut := len(reqs) / 2
	for _, r := range reqs[:cut] {
		decode[api.FramesResponse](t, do(t, a, "POST", base+"/frames", r), http.StatusOK)
	}

	exp := decode[api.SessionJournal](t, do(t, a, "GET", base+"/journal", nil), http.StatusOK)
	if exp.SchemaVersion != api.Version {
		t.Errorf("schema_version = %q", exp.SchemaVersion)
	}
	if exp.State != api.SessionOpen || exp.LastSeq != cut || len(exp.Chunks) != cut {
		t.Fatalf("export state %q last_seq %d chunks %d, want open/%d/%d",
			exp.State, exp.LastSeq, len(exp.Chunks), cut, cut)
	}
	if exp.Request.SampleRateHz != flight.Audio.SampleRate {
		t.Errorf("exported request lost sample rate: %+v", exp.Request)
	}
	for i, c := range exp.Chunks {
		if c.Seq != i+1 {
			t.Fatalf("exported chunk %d has seq %d", i, c.Seq)
		}
	}

	// Handoff: replay the export into a fresh server — the successor
	// replica — then finish the upload there. Verdict must be identical.
	b := newTestServer(t, Config{JournalDir: t.TempDir()})
	succ := decode[api.SessionResponse](t, do(t, b, "POST", "/v1/sessions", exp.Request), http.StatusCreated)
	succBase := "/v1/sessions/" + succ.ID
	for _, c := range exp.Chunks {
		decode[api.FramesResponse](t, do(t, b, "POST", succBase+"/frames", c), http.StatusOK)
	}
	for _, r := range reqs[cut:] {
		decode[api.FramesResponse](t, do(t, b, "POST", succBase+"/frames", r), http.StatusOK)
	}
	report := decode[api.Report](t, do(t, b, "GET", succBase+"/report", nil), http.StatusOK)
	if !reflect.DeepEqual(report, clean) {
		t.Errorf("replayed export verdict diverged:\nclean: %+v\ngot:   %+v", clean, report)
	}

	// A server without journaling has nothing durable to export.
	c := newTestServer(t, Config{})
	njBase := openSession(t, c, flight)
	errCode(t, do(t, c, "GET", njBase+"/journal", nil), http.StatusConflict, api.CodeConflict)
}

func mustGlob(t *testing.T, dir, pattern string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil || len(matches) == 0 {
		t.Fatalf("glob %s in %s: %v (%d matches)", pattern, dir, err, len(matches))
	}
	return matches
}

// TestJournalPrettyBodyRecovery streams pretty-printed, multi-line
// frames bodies: each is journaled as the client's bytes on one line
// (newlines flattened), and a restart over the journal mid-upload ends
// with the verdict of the compact upload.
func TestJournalPrettyBodyRecovery(t *testing.T) {
	fx := getFixture(t)
	flight := fx.calib[0]
	liveDir := t.TempDir()
	a := newTestServer(t, Config{JournalDir: liveDir})
	clean := runSession(t, a, flight, 6)

	reqs, err := framesFromFlight(flight, 6)
	if err != nil {
		t.Fatal(err)
	}
	pretty := make([]string, len(reqs))
	for i, r := range reqs {
		b, err := json.MarshalIndent(r, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		pretty[i] = strings.ReplaceAll(string(b), "\n", "\r\n")
	}
	base := openSession(t, a, flight)
	cut := len(reqs) / 2
	for _, body := range pretty[:cut] {
		decode[api.FramesResponse](t, do(t, a, "POST", base+"/frames", body), http.StatusOK)
	}

	crashDir := copyDir(t, liveDir)
	var log []byte
	for _, m := range mustGlob(t, crashDir, "*.chunks.jsonl") {
		raw, err := os.ReadFile(m)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Count(raw, []byte("\n")) == cut {
			log = raw
		}
	}
	if log == nil {
		t.Fatalf("no chunk log holds the %d pretty chunks one per line", cut)
	}
	if bytes.ContainsRune(log, '\r') || !bytes.HasPrefix(log, []byte("{  \t\"seq\": 1,  \t\"audio\"")) {
		t.Fatalf("journal line is not the client's body with newlines flattened: %.80q", log)
	}

	b := newTestServer(t, Config{JournalDir: crashDir})
	if st := waitSessionState(t, b, base, api.SessionOpen); st.LastSeq != cut {
		t.Fatalf("recovered last_seq = %d, want %d", st.LastSeq, cut)
	}
	for _, body := range pretty[cut:] {
		decode[api.FramesResponse](t, do(t, b, "POST", base+"/frames", body), http.StatusOK)
	}
	report := decode[api.Report](t, do(t, b, "GET", base+"/report", nil), http.StatusOK)
	if !reflect.DeepEqual(report, clean) {
		t.Errorf("pretty upload after recovery diverged from compact:\nclean: %+v\ngot:   %+v", clean, report)
	}
}

// TestClaimedContentLengthNotTrusted sends a frames request declaring
// 200 MiB that carries 1 KB: it gets the answer the truthful request
// gets, and the server never allocates anything like the claimed size.
// An over-limit body still fails as it always did.
func TestClaimedContentLengthNotTrusted(t *testing.T) {
	s := newTestServer(t, Config{MaxBodyBytes: 64 << 10, Logf: t.Logf})
	base := openSession(t, s, getFixture(t).calib[0])
	body := []byte(`{"seq":1,"imu":[` + strings.Repeat(`{"time_seconds":0.5},`, 48))[:1024]

	truthful := do(t, s, "POST", base+"/frames", bytes.NewReader(body))
	errCode(t, truthful, http.StatusBadRequest, api.CodeBadRequest)

	req := httptest.NewRequest("POST", base+"/frames", bytes.NewReader(body))
	req.ContentLength = 200 << 20
	w := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.ServeHTTP(w, req)
	runtime.ReadMemStats(&after)
	if w.Code != truthful.Code || w.Body.String() != truthful.Body.String() {
		t.Fatalf("lying Content-Length answered %d %s, truthful %d %s", w.Code, w.Body, truthful.Code, truthful.Body)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Fatalf("request claiming 200 MiB allocated %d bytes", grew)
	}

	over := bytes.Repeat([]byte(" "), 128<<10)
	w = do(t, s, "POST", base+"/frames", bytes.NewReader(over))
	errCode(t, w, http.StatusBadRequest, api.CodeBadRequest)
	if !strings.Contains(w.Body.String(), "request body too large") {
		t.Fatalf("over-limit body: %s", w.Body)
	}
}
