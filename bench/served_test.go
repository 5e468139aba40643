package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"soundboost/api"
)

// fakeService answers session reports, uploads and chunk acks with
// canned bodies.
func fakeService(t *testing.T, report api.Report, shed int) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/sessions/s-1/report", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(report)
	})
	mux.HandleFunc("POST /v1/flights", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(api.FlightResponse{Report: report})
	})
	mux.HandleFunc("POST /v1/sessions/s-1/frames", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(api.FramesResponse{SchemaVersion: api.Version, Accepted: 1, Shed: shed, State: api.SessionOpen})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// tallyAgainst sends one report fetch, one upload and one chunk to a
// service and returns the run's operation counts.
func tallyAgainst(t *testing.T, srv *httptest.Server, want api.Report) *measurement {
	t.Helper()
	plan := &schedule{Sessions: []sessionPlan{{Flight: 0, Chunks: 1}}}
	tr := traffic{{0, 1}: {chunks: [][]byte{[]byte(`{}`)}, sbf: []byte("sbf"), ref: want}}
	sess := []session{{id: "s-1"}}
	c := newClient(srv.URL, tr, plan, 1, sess)
	reqs := []request{{Kind: kindReport}, {Kind: kindBatch}, {Kind: kindFrames}}
	outs := drive(time.Now(), reqs, false, time.Hour, c.do, c.skip)
	m := newMeasurement()
	m.tally(outs)
	return m
}

func TestDoctoredReportIsAFailedOperation(t *testing.T) {
	want := api.Report{SchemaVersion: api.Version, Flight: "pool-hover", Cause: api.CauseNone, GPSMode: "audio+imu"}
	if m := tallyAgainst(t, fakeService(t, want, 0), want); m.attempted != 3 || m.failed != 0 {
		t.Fatalf("faithful service: %d attempted, %d failed; want 3, 0 (%v)", m.attempted, m.failed, m.notes)
	}
	doctored := want
	doctored.GPS.PeakError = 1e-9 // one field off in the last digit is enough
	m := tallyAgainst(t, fakeService(t, doctored, 0), want)
	if m.attempted != 3 || m.failed != 2 {
		t.Fatalf("doctored report and upload: %d attempted, %d failed; want 3, 2 (%v)", m.attempted, m.failed, m.notes)
	}
}

func TestShedFramesAreAFailedOperation(t *testing.T) {
	want := api.Report{Cause: api.CauseNone}
	m := tallyAgainst(t, fakeService(t, want, 3), want)
	if m.failed != 1 {
		t.Fatalf("an ack reporting 3 shed messages: %d failed, want 1 (%v)", m.failed, m.notes)
	}
}
