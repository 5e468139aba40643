package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"soundboost/api"
	"soundboost/internal/chaos"
	"soundboost/internal/dataset"
	"soundboost/internal/obs"
	"soundboost/internal/server"
	"soundboost/internal/testfix"
)

// replica is one live `serve`-equivalent backend: a real server.Server
// behind a real listener, with its journal directory visible to the
// gateway (the shared-journal failover source).
type replica struct {
	name       string
	srv        *server.Server
	ts         *httptest.Server
	journalDir string
	killOnce   sync.Once
}

// kill drops the replica's listener without any drain — the SIGKILL
// shape: in-flight state is gone, only the fsynced journal survives.
func (r *replica) kill() { r.killOnce.Do(r.ts.Close) }

func (r *replica) host() string {
	u, err := url.Parse(r.ts.URL)
	if err != nil {
		panic(err)
	}
	return u.Host
}

func startReplica(t *testing.T, name string) *replica {
	t.Helper()
	dir := t.TempDir()
	s, err := server.New(testfix.Get(t).Analyzer, server.Config{JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	r := &replica{name: name, srv: s, journalDir: dir}
	r.ts = httptest.NewServer(s)
	t.Cleanup(func() {
		r.kill()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("replica %s shutdown: %v", name, err)
		}
	})
	return r
}

// startFleet stands up n replicas and a gateway over them. cfg's
// Replicas field is filled in; other fields are respected.
func startFleet(t *testing.T, n int, cfg Config) (*Gateway, []*replica) {
	t.Helper()
	reps := make([]*replica, n)
	for i := range reps {
		reps[i] = startReplica(t, fmt.Sprintf("r%d", i+1))
		cfg.Replicas = append(cfg.Replicas, Replica{
			Name:       reps[i].name,
			BaseURL:    reps[i].ts.URL,
			JournalDir: reps[i].journalDir,
		})
	}
	if cfg.RetryBase == 0 {
		cfg.RetryBase = time.Millisecond
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 25 * time.Millisecond
	}
	cfg.Logf = t.Logf
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := g.Shutdown(ctx); err != nil {
			t.Errorf("gateway shutdown: %v", err)
		}
	})
	return g, reps
}

// hdo runs one request through an http.Handler (gateway or single-node
// server — both serve the same /v1 surface).
func hdo(t *testing.T, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	if t != nil {
		t.Helper()
	}
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case io.Reader:
		rd = b
	case []byte:
		rd = bytes.NewReader(b)
	default:
		raw, err := json.Marshal(b)
		if err != nil {
			panic(err)
		}
		rd = bytes.NewReader(raw)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decode[T any](t *testing.T, w *httptest.ResponseRecorder, wantStatus int) T {
	t.Helper()
	var v T
	if w.Code != wantStatus {
		t.Fatalf("status = %d, want %d (body %s)", w.Code, wantStatus, w.Body.String())
	}
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("decode %T from %q: %v", v, w.Body.String(), err)
	}
	return v
}

// openVia opens a session through a handler and returns its base path.
func openVia(t *testing.T, h http.Handler, f *dataset.Flight) (base, id string) {
	t.Helper()
	created := decode[api.SessionResponse](t, hdo(t, h, "POST", "/v1/sessions", api.SessionRequest{
		Flight:       f.Name,
		SampleRateHz: f.Audio.SampleRate,
	}), http.StatusCreated)
	if created.State != api.SessionOpen {
		t.Fatalf("new session state = %q", created.State)
	}
	return "/v1/sessions/" + created.ID, created.ID
}

// reportBytes streams a whole flight through a handler's session
// surface and returns the raw report body — the byte-identity oracle.
func reportBytes(t *testing.T, h http.Handler, f *dataset.Flight, nBatches int) []byte {
	t.Helper()
	reqs, err := testfix.Frames(f, nBatches)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := openVia(t, h, f)
	for _, r := range reqs {
		fr := decode[api.FramesResponse](t, hdo(t, h, "POST", base+"/frames", r), http.StatusOK)
		if fr.Shed != 0 {
			t.Fatalf("frames ack reports %d messages shed; equivalence void", fr.Shed)
		}
	}
	w := hdo(t, h, "GET", base+"/report", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("report: status %d: %s", w.Code, w.Body.String())
	}
	return w.Body.Bytes()
}

// TestFleetVerdictEquivalence is the fleet-level correctness gate: a
// 3-replica fleet behind the gateway must produce byte-identical
// verdicts to a single-node server, for both the streaming and the
// batch surface, with gateway ids (not backend ids) on every response.
func TestFleetVerdictEquivalence(t *testing.T) {
	fx := testfix.Get(t)
	single, err := server.New(fx.Analyzer, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		single.Shutdown(ctx)
	})
	g, _ := startFleet(t, 3, Config{})

	for i, flight := range fx.Calib[:2] {
		want := reportBytes(t, single, flight, 5)
		got := reportBytes(t, g, flight, 5)
		if !bytes.Equal(got, want) {
			t.Errorf("flight %d: fleet report differs from single-node:\nsingle: %s\nfleet:  %s", i, want, got)
		}
	}

	// Batch surface: same recording, byte-identical response report.
	var buf bytes.Buffer
	if err := fx.Calib[0].Save(&buf); err != nil {
		t.Fatal(err)
	}
	wantBatch := decode[api.FlightResponse](t, hdo(t, single, "POST", "/v1/flights", bytes.NewReader(buf.Bytes())), http.StatusOK)
	gotBatch := decode[api.FlightResponse](t, hdo(t, g, "POST", "/v1/flights", bytes.NewReader(buf.Bytes())), http.StatusOK)
	wantRaw, _ := json.Marshal(wantBatch.Report)
	gotRaw, _ := json.Marshal(gotBatch.Report)
	if !bytes.Equal(wantRaw, gotRaw) {
		t.Errorf("fleet batch report differs from single-node:\nsingle: %s\nfleet:  %s", wantRaw, gotRaw)
	}

	// The gateway speaks gateway ids everywhere.
	base, gwID := openVia(t, g, fx.Calib[0])
	if !strings.HasPrefix(gwID, "g-") {
		t.Errorf("gateway session id %q does not carry the gateway prefix", gwID)
	}
	st := decode[api.SessionStatus](t, hdo(t, g, "GET", base+"/status", nil), http.StatusOK)
	if st.ID != gwID {
		t.Errorf("status id = %q, want gateway id %q", st.ID, gwID)
	}
	exp := decode[api.SessionJournal](t, hdo(t, g, "GET", base+"/journal", nil), http.StatusOK)
	if exp.ID != gwID {
		t.Errorf("journal id = %q, want gateway id %q", exp.ID, gwID)
	}
	hdo(t, g, "POST", base+"/frames", api.FramesRequest{Close: true})

	h := decode[api.Health](t, hdo(t, g, "GET", "/v1/healthz", nil), http.StatusOK)
	if h.Status != "ok" || h.SessionCap == 0 {
		t.Errorf("fleet healthz = %+v, want ok with aggregated capacity", h)
	}
}

// TestGatewayChecksChunks pins the gateway's check-only decode of a
// chunk. A body the full decode rejects gets the full decode's 400, code
// and message at the gateway, and the owner never sees it. A body only
// encoding/json accepts reaches the owner and the follower as its
// json.Marshal re-encoding: one line, the same in both journals.
func TestGatewayChecksChunks(t *testing.T) {
	withObs(t)
	fx := testfix.Get(t)
	flight := fx.Calib[0]
	g, reps := startFleet(t, 3, Config{})
	reqs, err := testfix.Frames(flight, 4)
	if err != nil {
		t.Fatal(err)
	}
	base, gwID := openVia(t, g, flight)
	var sent []string
	for i, r := range reqs[:2] {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		sent = append(sent, string(b))
		if want := fmt.Sprintf(`{"seq":%d,`, i+1); !strings.HasPrefix(sent[i], want) {
			t.Fatalf("chunk %d does not open with %s: %.40s", i+1, want, sent[i])
		}
	}

	// Every server's rejections count in one process-wide counter.
	replicaErrors := obs.Default.Counter("server.http.errors")
	before := replicaErrors.Value()
	for _, body := range []string{
		`{"seq":1,"audio":[{"start_seconds":0,"rate_hz":16000,"samples":[[0,1e999]]}]}`,
		`{"seq":1,"bogus":2}`,
		sent[0] + "garbage",
	} {
		var full api.FramesRequest
		wantErr := api.DecodeStrict(strings.NewReader(body), &full)
		if wantErr == nil {
			t.Fatalf("the full decode accepted %.80s", body)
		}
		e := decode[api.Error](t, hdo(t, g, "POST", base+"/frames", []byte(body)), http.StatusBadRequest)
		if e.Code != api.CodeBadRequest || e.Error != wantErr.Error() {
			t.Errorf("body %.80s: %+v, want code %q error %q", body, e, api.CodeBadRequest, wantErr)
		}
	}
	if n := replicaErrors.Value() - before; n != 0 {
		t.Fatalf("replicas answered %d errors: a chunk the gateway rejects reached one", n)
	}

	// A case-folded and an escaped "seq" take encoding/json's path.
	folded := []string{`{"SEQ":1,` + sent[0][len(`{"seq":1,`):], `{"\u0073eq":2,` + sent[1][len(`{"seq":2,`):]}
	var want []string
	for _, body := range folded {
		if fr := decode[api.FramesResponse](t, hdo(t, g, "POST", base+"/frames", []byte(body)), http.StatusOK); fr.Duplicate {
			t.Fatalf("first post of %.40s acknowledged as a duplicate", body)
		}
		var full api.FramesRequest
		if err := api.DecodeStrict(strings.NewReader(body), &full); err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(full)
		want = append(want, string(b)+"\n")
	}

	rt, ok := g.lookupRoute(gwID)
	if !ok {
		t.Fatalf("no route for %s", gwID)
	}
	rt.mu.Lock()
	owner, backendID, followers := rt.replica, rt.backendID, rt.followers
	rt.mu.Unlock()
	if len(followers) != 1 {
		t.Fatalf("followers %v, want one (Replication 2)", followers)
	}
	dirs := map[string]string{}
	for _, r := range reps {
		dirs[r.name] = r.journalDir
	}
	for _, path := range []string{
		filepath.Join(dirs[owner], backendID+".chunks.jsonl"),
		filepath.Join(dirs[followers[0]], "followers", gwID+".chunks.jsonl"),
	} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitAfter(string(raw), "\n")
		if len(lines) != 3 || lines[2] != "" || lines[0] != want[0] || lines[1] != want[1] {
			t.Errorf("%s holds %.200q, want %.200q", path, raw, want)
		}
	}
	hdo(t, g, "POST", base+"/frames", api.FramesRequest{Close: true})
}

// TestFleetMidFlightKillFailover is the handoff gate (ISSUE satellite):
// SIGKILL the owning replica between chunk k and k+1, resend through the
// gateway, and require (a) the journal-backed replay onto a successor to
// preserve the acknowledged prefix — the resend of chunk k comes back
// Duplicate — and (b) the final report to be byte-identical to an
// unsharded run of the same flight.
func TestFleetMidFlightKillFailover(t *testing.T) {
	fx := testfix.Get(t)
	single, err := server.New(fx.Analyzer, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		single.Shutdown(ctx)
	})
	flight := fx.Calib[0]
	want := reportBytes(t, single, flight, 6)

	// A probe interval far beyond the test forces the lazy path: the
	// failover must be triggered by the failing frames request itself,
	// not by the health prober getting there first.
	g, reps := startFleet(t, 3, Config{ProbeInterval: time.Hour, Retries: 1})

	reqs, err := testfix.Frames(flight, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) < 4 {
		t.Fatalf("want >= 4 chunks, got %d", len(reqs))
	}
	base, gwID := openVia(t, g, flight)
	k := len(reqs) / 2
	for _, r := range reqs[:k] {
		decode[api.FramesResponse](t, hdo(t, g, "POST", base+"/frames", r), http.StatusOK)
	}

	owner, ok := g.Placement(gwID)
	if !ok {
		t.Fatalf("no placement for %s", gwID)
	}
	faultPlane := chaos.NewFleet()
	for _, r := range reps {
		if r.name == owner {
			faultPlane.Kill(r.name, r.kill)
		}
	}
	if faultPlane.Counts()[chaos.KindReplicaKill] != 1 {
		t.Fatal("kill not recorded")
	}

	// The client's view: its last ack was chunk k, so it resends k —
	// transport failure triggers the journal-backed migration, and the
	// successor (holding the replayed prefix) answers Duplicate.
	resent := decode[api.FramesResponse](t, hdo(t, g, "POST", base+"/frames", reqs[k-1]), http.StatusOK)
	if !resent.Duplicate {
		t.Fatalf("resend after failover: %+v, want Duplicate (acknowledged prefix lost)", resent)
	}
	after, _ := g.Placement(gwID)
	if after == owner {
		t.Fatalf("session still placed on killed replica %s", owner)
	}
	for _, r := range reqs[k:] {
		decode[api.FramesResponse](t, hdo(t, g, "POST", base+"/frames", r), http.StatusOK)
	}
	w := hdo(t, g, "GET", base+"/report", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("report after failover: %d: %s", w.Code, w.Body.String())
	}
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Errorf("post-failover report differs from unsharded run:\nsingle: %s\nfleet:  %s", want, w.Body.Bytes())
	}

	// The killed replica's state must stay dead to routing: a new
	// session never lands on it (MarkDown took it out of every candidate list).
	for i := 0; i < 5; i++ {
		b2, id2 := openVia(t, g, flight)
		if rep, _ := g.Placement(id2); rep == owner {
			t.Fatalf("new session %s placed on killed replica", id2)
		}
		hdo(t, g, "POST", b2+"/frames", api.FramesRequest{Close: true})
	}
}

// TestFleetDrainEvacuation covers the cooperative half of handoff: a
// replica that starts draining (its healthz flips) is marked down by the
// prober and its sessions are proactively migrated through the live
// journal-export endpoint; the client finishes the stream on the
// successor and the verdict matches the unsharded run.
func TestFleetDrainEvacuation(t *testing.T) {
	fx := testfix.Get(t)
	single, err := server.New(fx.Analyzer, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		single.Shutdown(ctx)
	})
	flight := fx.Calib[1]
	want := reportBytes(t, single, flight, 6)

	g, reps := startFleet(t, 2, Config{ProbeInterval: 20 * time.Millisecond, Retries: 1})
	reqs, err := testfix.Frames(flight, 6)
	if err != nil {
		t.Fatal(err)
	}
	base, gwID := openVia(t, g, flight)
	k := len(reqs) / 2
	for _, r := range reqs[:k] {
		decode[api.FramesResponse](t, hdo(t, g, "POST", base+"/frames", r), http.StatusOK)
	}
	owner, _ := g.Placement(gwID)

	// Drain the owning replica (graceful: journal export keeps working).
	for _, r := range reps {
		if r.name == owner {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := r.srv.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The prober notices the drain and evacuates without any client
	// traffic driving it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if rep, _ := g.Placement(gwID); rep != owner {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session never evacuated from draining replica %s", owner)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The migrated session is OPEN on the successor even though the
	// drain force-closed it on the original — a close the client never
	// sent must not strand the upload.
	st := decode[api.SessionStatus](t, hdo(t, g, "GET", base+"/status", nil), http.StatusOK)
	if st.State != api.SessionOpen {
		t.Fatalf("evacuated session state = %q, want open", st.State)
	}
	if st.LastSeq != k {
		t.Fatalf("evacuated last_seq = %d, want %d", st.LastSeq, k)
	}
	for _, r := range reqs[k:] {
		decode[api.FramesResponse](t, hdo(t, g, "POST", base+"/frames", r), http.StatusOK)
	}
	w := hdo(t, g, "GET", base+"/report", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("report after evacuation: %d: %s", w.Code, w.Body.String())
	}
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Errorf("post-evacuation report differs from unsharded run:\nsingle: %s\nfleet:  %s", want, w.Body.Bytes())
	}
}

// TestFleetPartitionFailover uses the chaos partition plane: the owning
// replica stays alive but unreachable, so the live export fails and the
// gateway falls back to reading the replica's journal directory.
func TestFleetPartitionFailover(t *testing.T) {
	fx := testfix.Get(t)
	flight := fx.Calib[0]
	faultPlane := chaos.NewFleet()
	g, reps := startFleet(t, 2, Config{
		ProbeInterval: time.Hour, // lazy path only
		Retries:       1,
		Transport:     faultPlane.Transport(nil),
	})
	reqs, err := testfix.Frames(flight, 4)
	if err != nil {
		t.Fatal(err)
	}
	base, gwID := openVia(t, g, flight)
	for _, r := range reqs[:2] {
		decode[api.FramesResponse](t, hdo(t, g, "POST", base+"/frames", r), http.StatusOK)
	}
	owner, _ := g.Placement(gwID)
	for _, r := range reps {
		if r.name == owner {
			faultPlane.Partition(r.host())
		}
	}
	if faultPlane.Counts()[chaos.KindPartition] != 1 {
		t.Fatal("partition not recorded")
	}
	// Next chunk: transport reset → failover via the journal directory
	// (the live export is behind the same partition).
	decode[api.FramesResponse](t, hdo(t, g, "POST", base+"/frames", reqs[2]), http.StatusOK)
	after, _ := g.Placement(gwID)
	if after == owner {
		t.Fatal("session not migrated off partitioned replica")
	}
	decode[api.FramesResponse](t, hdo(t, g, "POST", base+"/frames", reqs[3]), http.StatusOK)
	if w := hdo(t, g, "GET", base+"/report", nil); w.Code != http.StatusOK {
		t.Fatalf("report after partition failover: %d: %s", w.Code, w.Body.String())
	}
	// Heal so the gateway's drain (cleanup) can reach both replicas.
	for _, r := range reps {
		faultPlane.Heal(r.host())
	}
}
