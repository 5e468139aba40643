package httpretry

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"soundboost/api"
)

// recorded is one request as the test server saw it.
type recorded struct {
	method, path string
	body         []byte
}

// recordingServer answers every request with answer's status and body
// and records method, path and body.
func recordingServer(t *testing.T, status int, answer string) (*httptest.Server, func() []recorded) {
	t.Helper()
	var (
		mu  sync.Mutex
		got []recorded
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		got = append(got, recorded{r.Method, r.URL.Path, body})
		mu.Unlock()
		w.WriteHeader(status)
		w.Write([]byte(answer))
	}))
	t.Cleanup(srv.Close)
	return srv, func() []recorded {
		mu.Lock()
		defer mu.Unlock()
		return append([]recorded(nil), got...)
	}
}

// TestSessionRoutes pins the exact /v1 route each Session call takes.
func TestSessionRoutes(t *testing.T) {
	srv, requests := recordingServer(t, http.StatusOK, `{"id":"s-1","state":"open"}`)
	c := New(nil, 0, time.Millisecond, 1)

	open := api.SessionRequest{Flight: "f", SampleRateHz: 4000}
	sess, err := c.OpenSession(srv.URL, open)
	if err != nil {
		t.Fatal(err)
	}
	if sess.ID != "s-1" || sess.State != api.SessionOpen {
		t.Fatalf("opened %+v, want id s-1 state open", sess)
	}
	chunk := api.FramesRequest{Seq: 1, Close: true}
	if _, err := sess.Post(chunk); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Report(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Status(); err != nil {
		t.Fatal(err)
	}
	if err := c.SessionAt(srv.URL, "g-7").Do("POST", "/journal/append", []byte(`{}`), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PostFlight(srv.URL, []byte("SBF")); err != nil {
		t.Fatal(err)
	}

	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := []recorded{
		{"POST", "/v1/sessions", marshal(open)},
		{"POST", "/v1/sessions/s-1/frames", marshal(chunk)},
		{"GET", "/v1/sessions/s-1/report", nil},
		{"GET", "/v1/sessions/s-1/status", nil},
		{"POST", "/v1/sessions/g-7/journal/append", []byte(`{}`)},
		{"POST", "/v1/flights", []byte("SBF")},
	}
	got := requests()
	if len(got) != len(want) {
		t.Fatalf("server saw %d requests, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i].method != want[i].method || got[i].path != want[i].path || !bytes.Equal(got[i].body, want[i].body) {
			t.Errorf("request %d = %s %s %q, want %s %s %q", i,
				got[i].method, got[i].path, got[i].body, want[i].method, want[i].path, want[i].body)
		}
	}
}

// TestSessionPostForwardsDecodedBytes: a chunk api.DecodeStrict parsed
// from a client's body goes out as that body, byte for byte — the
// gateway and the failover replay never re-encode it.
func TestSessionPostForwardsDecodedBytes(t *testing.T) {
	compact, err := json.Marshal(api.FramesRequest{
		Seq:   3,
		Audio: []api.AudioFrame{{StartSeconds: 0.5, RateHz: 4000, Samples: [][]float64{{0.25, -1}, {2, 3}}}},
		IMU:   []api.IMUSample{{TimeSeconds: 0.5, Accel: api.Vec3{X: 1, Y: 2, Z: 3}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, compact, "", "  "); err != nil {
		t.Fatal(err)
	}
	var chunk api.FramesRequest
	if err := api.DecodeStrict(bytes.NewReader(pretty.Bytes()), &chunk); err != nil {
		t.Fatal(err)
	}

	srv, requests := recordingServer(t, http.StatusOK, `{"accepted":3}`)
	resp, err := New(nil, 0, time.Millisecond, 1).SessionAt(srv.URL, "s-1").Post(chunk)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 3 {
		t.Fatalf("ack = %+v, want 3 accepted", resp)
	}
	got := requests()
	if len(got) != 1 || !bytes.Equal(got[0].body, pretty.Bytes()) {
		t.Fatalf("posted %q, want the received body %q", got[0].body, pretty.Bytes())
	}
}

// TestSessionFailedIsPermanent: a dead session's 500 session_failed
// comes back typed after one attempt, so a caller can read the cause
// from Status instead of burning the retry budget.
func TestSessionFailedIsPermanent(t *testing.T) {
	srv, requests := recordingServer(t, http.StatusInternalServerError,
		`{"code":"session_failed","error":"engine panic: poison"}`)
	c := New(nil, 5, time.Millisecond, 1)
	c.Sleep = func(time.Duration) {}
	_, err := c.SessionAt(srv.URL, "s-1").Report()
	var se *StatusError
	if !errors.As(err, &se) || se.Code != api.CodeSessionFailed || se.Status != http.StatusInternalServerError {
		t.Fatalf("err = %v, want *StatusError{Code: session_failed}", err)
	}
	if n := len(requests()); n != 1 {
		t.Fatalf("server saw %d requests, want 1", n)
	}
	if c.Retries() != 0 {
		t.Fatalf("Retries() = %d, want 0", c.Retries())
	}
}
