package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"soundboost/api"
)

// stubReplica serves the /v1 session surface with canned answers and
// no engine: every session opens, takes its chunks, finishes on the
// spot and reports cause "none". It reads each chunk and follower
// append whole, as a replica does, and discards it.
func stubReplica(t testing.TB) *httptest.Server {
	t.Helper()
	var ids atomic.Int64
	reply := func(w http.ResponseWriter, status int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(v)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		reply(w, http.StatusOK, api.Health{SchemaVersion: api.Version, Status: "ok"})
	})
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		reply(w, http.StatusCreated, api.SessionResponse{
			SchemaVersion: api.Version, ID: fmt.Sprintf("s-%d", ids.Add(1)), State: api.SessionOpen,
		})
	})
	mux.HandleFunc("POST /v1/sessions/{id}/frames", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		reply(w, http.StatusOK, api.FramesResponse{SchemaVersion: api.Version, State: api.SessionDone})
	})
	mux.HandleFunc("POST /v1/sessions/{id}/journal/append", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		reply(w, http.StatusOK, api.JournalAppendResponse{SchemaVersion: api.Version})
	})
	mux.HandleFunc("GET /v1/sessions/{id}/status", func(w http.ResponseWriter, r *http.Request) {
		reply(w, http.StatusOK, api.SessionStatus{SchemaVersion: api.Version, ID: r.PathValue("id"), State: api.SessionDone})
	})
	mux.HandleFunc("GET /v1/sessions/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		reply(w, http.StatusOK, api.Report{SchemaVersion: api.Version, Cause: "none"})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestGatewayRoutesBounded drives 10k sessions through a gateway, each
// opened, closed and its report read. Finished routes must be evicted:
// the route table and the checkpoint stay under maxRoutes, healthz
// counts no finished session as active, and an evicted id answers 404
// not_found like an evicted server session. The gateway runs without a
// state file, since a checkpoint per session would dominate the run;
// its checkpoint mirror is checked after every session and written out
// once at the end.
func TestGatewayRoutesBounded(t *testing.T) {
	g, err := New(Config{
		Replicas: []Replica{
			{Name: "r1", BaseURL: stubReplica(t).URL},
			{Name: "r2", BaseURL: stubReplica(t).URL},
		},
		Replication: 1,
		RetryBase:   time.Millisecond,
	})
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

	// Four clients at once, so eviction races lookups and creates.
	const clients, sessions = 4, 10000
	ids := make(chan string, sessions)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < sessions/clients; i++ {
				w := hdo(nil, g, "POST", "/v1/sessions", api.SessionRequest{SampleRateHz: 4000})
				var created api.SessionResponse
				if err := json.Unmarshal(w.Body.Bytes(), &created); w.Code != http.StatusCreated || err != nil {
					t.Errorf("create: status %d: %s", w.Code, w.Body.String())
					return
				}
				ids <- created.ID
				base := "/v1/sessions/" + created.ID
				if w := hdo(nil, g, "POST", base+"/frames", api.FramesRequest{Seq: 1, Close: true}); w.Code != http.StatusOK {
					t.Errorf("close: status %d: %s", w.Code, w.Body.String())
					return
				}
				if w := hdo(nil, g, "GET", base+"/report", nil); w.Code != http.StatusOK {
					t.Errorf("report: status %d: %s", w.Code, w.Body.String())
					return
				}
				g.mu.Lock()
				routes, placed := len(g.routes), len(g.placed)
				g.mu.Unlock()
				if routes > maxRoutes || placed > maxRoutes {
					t.Errorf("the gateway holds %d routes and checkpoints %d, bound %d", routes, placed, maxRoutes)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(ids)
	if t.Failed() {
		t.FailNow()
	}
	first := <-ids
	g.cfg.StatePath = filepath.Join(t.TempDir(), "state.json")
	g.checkpoint()
	st, err := loadState(g.cfg.StatePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Routes) > maxRoutes {
		t.Fatalf("the checkpoint holds %d routes, bound %d", len(st.Routes), maxRoutes)
	}

	h := decode[api.Health](t, hdo(t, g, "GET", "/v1/healthz", nil), http.StatusOK)
	if h.ActiveSessions != 0 {
		t.Errorf("healthz active sessions = %d after every session finished, want 0", h.ActiveSessions)
	}
	if e := decode[api.Error](t, hdo(t, g, "GET", "/v1/sessions/"+first+"/report", nil), http.StatusNotFound); e.Code != api.CodeNotFound {
		t.Errorf("evicted session's report: code %q, want %q", e.Code, api.CodeNotFound)
	}
}
