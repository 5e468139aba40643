package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"soundboost/api"
	"soundboost/internal/attack"
	soundboost "soundboost/internal/core"
	"soundboost/internal/dataset"
	"soundboost/internal/mathx"
	"soundboost/internal/sim"
)

type fixture struct {
	calib    []*dataset.Flight
	analyzer *soundboost.Analyzer
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

func getFixture(t *testing.T) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		f := &fixture{}
		missions := []sim.Mission{
			sim.HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: 14},
			sim.NewWaypointMission("dash", mathx.Vec3{Z: -10}, []sim.Waypoint{
				{Pos: mathx.Vec3{X: 8, Z: -10}, Speed: 2, HoldSeconds: 2},
				{Pos: mathx.Vec3{Z: -10}, Speed: 2, HoldSeconds: 2},
			}),
			sim.NewWaypointMission("column", mathx.Vec3{Z: -10}, []sim.Waypoint{
				{Pos: mathx.Vec3{Z: -14}, Speed: 1.5, HoldSeconds: 2},
				{Pos: mathx.Vec3{Z: -10}, Speed: 1.5, HoldSeconds: 2},
			}),
		}
		var train []*dataset.Flight
		seed := int64(700)
		for rep := 0; rep < 2; rep++ {
			for _, m := range missions {
				fl, err := dataset.Generate(dataset.FastGenConfig(m, seed))
				if err != nil {
					fixErr = err
					return
				}
				train = append(train, fl)
				seed += 7
			}
		}
		for _, m := range missions {
			fl, err := dataset.Generate(dataset.FastGenConfig(m, seed))
			if err != nil {
				fixErr = err
				return
			}
			f.calib = append(f.calib, fl)
			seed += 7
		}
		sig := soundboost.DefaultSignatureConfig(dataset.FastGenConfig(missions[0], 0).Synth)
		mcfg := soundboost.DefaultMappingConfig(sig)
		mcfg.Hidden = 48
		mcfg.Train.Epochs = 100
		model, _, err := soundboost.TrainModel(train, nil, mcfg)
		if err != nil {
			fixErr = err
			return
		}
		an, err := soundboost.NewAnalyzer(model, f.calib)
		if err != nil {
			fixErr = err
			return
		}
		f.analyzer = an
		fix = f
	})
	if fixErr != nil {
		t.Fatalf("fixture: %v", fixErr)
	}
	return fix
}

func gpsAttackFlight(t *testing.T, seed int64) *dataset.Flight {
	t.Helper()
	cfg := dataset.FastGenConfig(sim.HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: 20}, seed)
	cfg.Scenario = attack.Scenario{GPS: &attack.GPSSpoofer{
		Window:      attack.Window{Start: 6, End: 18},
		Mode:        attack.GPSSpoofDrift,
		SpoofOffset: mathx.Vec3{X: 24},
	}}
	f, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func imuAttackFlight(t *testing.T, seed int64) *dataset.Flight {
	t.Helper()
	cfg := dataset.FastGenConfig(sim.HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: 14}, seed)
	cfg.Scenario = attack.Scenario{IMU: &attack.IMUBiaser{
		Window:    attack.Window{Start: 5, End: 11},
		Mode:      attack.IMUAccelDoS,
		Axis:      mathx.Vec3{Z: 1},
		Magnitude: 3,
		Rng:       rand.New(rand.NewSource(seed)),
	}}
	f, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// newTestServer builds a server over the shared fixture analyzer and
// registers a drained shutdown for cleanup.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(getFixture(t).analyzer, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

// do runs one request through the handler and returns the recorder.
// A nil t is allowed for use off the test goroutine (marshal failures
// panic instead).
func do(t *testing.T, s *Server, method, path string, body any) *httptest.ResponseRecorder {
	if t != nil {
		t.Helper()
	}
	var r io.Reader
	switch b := body.(type) {
	case nil:
	case io.Reader:
		r = b
	case string:
		r = strings.NewReader(b)
	default:
		raw, err := json.Marshal(b)
		if err != nil {
			panic(err)
		}
		r = bytes.NewReader(raw)
	}
	req := httptest.NewRequest(method, path, r)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// decode unmarshals a response body, failing on unexpected status.
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

// errCode asserts a failure response's status and machine-readable code.
func errCode(t *testing.T, w *httptest.ResponseRecorder, wantStatus int, wantCode string) {
	t.Helper()
	e := decode[api.Error](t, w, wantStatus)
	if e.Code != wantCode {
		t.Errorf("error code = %q, want %q (error %q)", e.Code, wantCode, e.Error)
	}
}

// framesFromFlight chunks a flight into roughly nBatches time-ordered
// frame requests via the api package's client-side chunker — the same
// code path `soundboost push -mode session` uses, so the equivalence
// tests exercise it too.
func framesFromFlight(f *dataset.Flight, nBatches int) ([]api.FramesRequest, error) {
	duration := float64(f.Audio.Samples()) / f.Audio.SampleRate
	if n := len(f.Telemetry); n > 0 && f.Telemetry[n-1].Time > duration {
		duration = f.Telemetry[n-1].Time
	}
	return api.ChunkFlight(f, 0.05, duration/float64(nBatches))
}

// openSession creates a streaming session for a flight and returns its
// /v1/sessions/{id} base path.
func openSession(t *testing.T, s *Server, f *dataset.Flight) string {
	t.Helper()
	created := decode[api.SessionResponse](t, do(t, s, "POST", "/v1/sessions", api.SessionRequest{
		Flight:       f.Name,
		SampleRateHz: f.Audio.SampleRate,
	}), http.StatusCreated)
	if created.State != api.SessionOpen {
		t.Fatalf("new session state = %q", created.State)
	}
	return "/v1/sessions/" + created.ID
}

// feedSession streams a flight into an open session in nBatches frame
// requests and returns the final wire report. Returns an error instead
// of failing so it is safe off the test goroutine.
func feedSession(s *Server, base string, f *dataset.Flight, nBatches int) (api.Report, error) {
	reqs, err := framesFromFlight(f, nBatches)
	if err != nil {
		return api.Report{}, err
	}
	for _, req := range reqs {
		w := do(nil, s, "POST", base+"/frames", req)
		if w.Code != http.StatusOK {
			return api.Report{}, fmt.Errorf("frames: status %d: %s", w.Code, w.Body.String())
		}
		var resp api.FramesResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			return api.Report{}, err
		}
		if resp.Shed != 0 {
			return api.Report{}, fmt.Errorf("frames ack reports %d messages shed; verdict no longer batch-equivalent", resp.Shed)
		}
	}
	w := do(nil, s, "GET", base+"/report", nil)
	if w.Code != http.StatusOK {
		return api.Report{}, fmt.Errorf("report: status %d: %s", w.Code, w.Body.String())
	}
	var report api.Report
	if err := json.Unmarshal(w.Body.Bytes(), &report); err != nil {
		return api.Report{}, err
	}
	return report, nil
}

// runSession drives a flight through the streaming endpoints and
// returns the final wire report.
func runSession(t *testing.T, s *Server, f *dataset.Flight, nBatches int) api.Report {
	t.Helper()
	report, err := feedSession(s, openSession(t, s, f), f, nBatches)
	if err != nil {
		t.Fatal(err)
	}
	return report
}

// TestBatchFlightMatchesOffline uploads a recorded flight to
// POST /v1/flights and requires the wire report to equal the offline
// Analyze result field for field.
func TestBatchFlightMatchesOffline(t *testing.T) {
	fx := getFixture(t)
	s := newTestServer(t, Config{})
	for _, f := range []*dataset.Flight{fx.calib[0], gpsAttackFlight(t, 5100)} {
		var buf bytes.Buffer
		if err := f.Save(&buf); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		resp := decode[api.FlightResponse](t, do(t, s, "POST", "/v1/flights", bytes.NewReader(raw)), http.StatusOK)
		// Compare against Analyze of the round-tripped flight: .sbf stores
		// audio as float32, so the server sees (exactly) the encoded copy.
		loaded, err := dataset.Load(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		batch, err := fx.analyzer.Analyze(loaded)
		if err != nil {
			t.Fatal(err)
		}
		if want := api.ReportFromCore(batch); !reflect.DeepEqual(resp.Report, want) {
			t.Errorf("%s: served report:\n got %+v\nwant %+v", f.Name, resp.Report, want)
		}
	}
}

// TestSessionMatchesBatch is the service's equivalence contract: a
// flight chunked through the session endpoints must yield the same
// verdict as a batch upload of the same recording — on a benign flight
// and on an attacked one (IMU and GPS).
func TestSessionMatchesBatch(t *testing.T) {
	fx := getFixture(t)
	s := newTestServer(t, Config{})
	flights := []*dataset.Flight{fx.calib[0], imuAttackFlight(t, 5200), gpsAttackFlight(t, 5300)}
	for _, f := range flights {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			batch, err := fx.analyzer.Analyze(f)
			if err != nil {
				t.Fatal(err)
			}
			got := runSession(t, s, f, 5)
			if want := api.ReportFromCore(batch); !reflect.DeepEqual(got, want) {
				t.Errorf("session report:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestWholeFlightOneChunk posts a whole attacked flight as one frames
// request, cut into one-sample audio frames (80k of them). A session
// queues whole chunks for its engine, so a burst of any size is taken
// in full. Nothing may be dropped: the ack reports shed 0 and every
// message accepted, and the verdict is the batch one.
func TestWholeFlightOneChunk(t *testing.T) {
	fx := getFixture(t)
	s := newTestServer(t, Config{})
	f := gpsAttackFlight(t, 5300)
	reqs, err := api.ChunkFlight(f, 1/f.Audio.SampleRate, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 1 {
		t.Fatalf("want the flight in one chunk, got %d", len(reqs))
	}
	chunk := reqs[0]
	if n := len(chunk.Audio); n <= 8192 {
		t.Fatalf("chunk carries %d audio frames; the burst must exceed 8192", n)
	}
	base := openSession(t, s, f)
	resp := decode[api.FramesResponse](t, do(t, s, "POST", base+"/frames", chunk), http.StatusOK)
	if want := len(chunk.Audio) + len(chunk.IMU) + len(chunk.GPS); resp.Accepted != want || resp.Shed != 0 {
		t.Fatalf("ack: accepted %d shed %d, want %d accepted and 0 shed", resp.Accepted, resp.Shed, want)
	}
	got := decode[api.Report](t, do(t, s, "GET", base+"/report", nil), http.StatusOK)
	if st := decode[api.SessionStatus](t, do(t, s, "GET", base+"/status", nil), http.StatusOK); st.Shed != 0 {
		t.Errorf("status reports %d shed", st.Shed)
	}
	batch, err := fx.analyzer.Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	if want := api.ReportFromCore(batch); !reflect.DeepEqual(got, want) {
		t.Errorf("one-chunk session report:\n got %+v\nwant %+v", got, want)
	}
}

// TestSessionPrecision pins the /v1 precision rule of session open: an
// unknown precision is rejected with 422 and a fixed message; "",
// "float64" and "float32" are accepted, have no effect, and serve the
// float64 batch report exactly.
func TestSessionPrecision(t *testing.T) {
	fx := getFixture(t)
	s := newTestServer(t, Config{})
	f := fx.calib[0]

	bad := decode[api.Error](t, do(t, s, "POST", "/v1/sessions", api.SessionRequest{
		SampleRateHz: f.Audio.SampleRate,
		Precision:    "float16",
	}), http.StatusUnprocessableEntity)
	const wantMsg = `server: unprocessable payload: stream: soundboost: unknown precision "float16" (want "float64" or "float32")`
	if bad.Code != api.CodeUnprocessable || bad.Error != wantMsg {
		t.Errorf("float16 open = (%q, %q), want (%q, %q)", bad.Code, bad.Error, api.CodeUnprocessable, wantMsg)
	}

	batch, err := fx.analyzer.Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	want := api.ReportFromCore(batch)
	for _, precision := range []string{"", string(soundboost.Float64), string(soundboost.Float32)} {
		created := decode[api.SessionResponse](t, do(t, s, "POST", "/v1/sessions", api.SessionRequest{
			Flight:       f.Name,
			SampleRateHz: f.Audio.SampleRate,
			Precision:    precision,
		}), http.StatusCreated)
		report, err := feedSession(s, "/v1/sessions/"+created.ID, f, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(report, want) {
			t.Errorf("precision %q: session report\n got %+v\nwant %+v", precision, report, want)
		}
		if report.Precision != string(soundboost.Float64) || report.Tolerance != 0 {
			t.Errorf("precision %q: report precision %q tolerance %g, want float64 and 0", precision, report.Precision, report.Tolerance)
		}
	}
}

// TestConcurrentSessionsBackpressure fills the session table with live
// streams and verifies (a) an over-cap create sheds with 429 +
// Retry-After instead of blocking, (b) all capped sessions still finish
// correctly under concurrent load, and (c) a finished session is
// LRU-evicted to admit a newcomer. Run under -race this is also the
// session manager's data-race check.
func TestConcurrentSessionsBackpressure(t *testing.T) {
	const cap = 8
	fx := getFixture(t)
	s := newTestServer(t, Config{MaxSessions: cap})
	f := fx.calib[0]
	batch, err := fx.analyzer.Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	want := api.ReportFromCore(batch)

	// Fill the table with live sessions first, so the cap probe is
	// deterministic: every slot is open, nothing is evictable.
	bases := make([]string, cap)
	for i := range bases {
		bases[i] = openSession(t, s, f)
	}
	w := do(t, s, "POST", "/v1/sessions", api.SessionRequest{SampleRateHz: f.Audio.SampleRate})
	errCode(t, w, http.StatusTooManyRequests, api.CodeCapacity)
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}

	// Now stream the same flight through all cap sessions at once.
	var wg sync.WaitGroup
	reports := make([]api.Report, cap)
	errs := make([]error, cap)
	for i := 0; i < cap; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = feedSession(s, bases[i], f, 3)
		}(i)
	}
	wg.Wait()
	for i := 0; i < cap; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(reports[i], want) {
			t.Errorf("session %d report diverged:\n got %+v\nwant %+v", i, reports[i], want)
		}
	}

	// All cap sessions are now done: the next create must evict one.
	created := decode[api.SessionResponse](t, do(t, s, "POST", "/v1/sessions",
		api.SessionRequest{SampleRateHz: f.Audio.SampleRate}), http.StatusCreated)
	do(t, s, "POST", "/v1/sessions/"+created.ID+"/frames", api.FramesRequest{Close: true})
}

// TestErrorMapping walks the documented fault → HTTP status table.
func TestErrorMapping(t *testing.T) {
	fx := getFixture(t)
	s := newTestServer(t, Config{})
	rate := fx.calib[0].Audio.SampleRate

	errCode(t, do(t, s, "GET", "/v1/sessions/nope/status", nil), http.StatusNotFound, api.CodeNotFound)
	errCode(t, do(t, s, "GET", "/v1/sessions/nope/report", nil), http.StatusNotFound, api.CodeNotFound)
	errCode(t, do(t, s, "POST", "/v1/sessions/nope/frames", api.FramesRequest{}), http.StatusNotFound, api.CodeNotFound)
	errCode(t, do(t, s, "POST", "/v1/sessions", `{"sample_rate_hz": 4000, "bogus": 1}`), http.StatusBadRequest, api.CodeBadRequest)
	errCode(t, do(t, s, "POST", "/v1/sessions", api.SessionRequest{SampleRateHz: 0}), http.StatusUnprocessableEntity, api.CodeUnprocessable)
	errCode(t, do(t, s, "POST", "/v1/flights", "this is not an .sbf flight"), http.StatusUnprocessableEntity, api.CodeUnprocessable)

	created := decode[api.SessionResponse](t, do(t, s, "POST", "/v1/sessions",
		api.SessionRequest{SampleRateHz: rate}), http.StatusCreated)
	base := "/v1/sessions/" + created.ID
	// Report before close: conflict, the stream is still open.
	errCode(t, do(t, s, "GET", base+"/report", nil), http.StatusConflict, api.CodeConflict)
	decode[api.FramesResponse](t, do(t, s, "POST", base+"/frames", api.FramesRequest{Close: true}), http.StatusOK)
	// Frames after close: conflict.
	errCode(t, do(t, s, "POST", base+"/frames", api.FramesRequest{}), http.StatusConflict, api.CodeConflict)
	// Empty stream still yields a (benign) report rather than an error.
	report := decode[api.Report](t, do(t, s, "GET", base+"/report", nil), http.StatusOK)
	if report.Cause != api.CauseNone {
		t.Errorf("empty session cause = %q, want %q", report.Cause, api.CauseNone)
	}
	if st := decode[api.SessionStatus](t, do(t, s, "GET", base+"/status", nil), http.StatusOK); st.State != api.SessionDone {
		t.Errorf("post-report state = %q, want %q", st.State, api.SessionDone)
	}
}

// TestBatchPoolBackpressure holds the single batch slot open with a
// stalled upload and verifies a second upload sheds with 429 instead of
// queueing.
func TestBatchPoolBackpressure(t *testing.T) {
	s := newTestServer(t, Config{MaxJobs: 1})
	pr, pw := io.Pipe()
	firstDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		firstDone <- do(t, s, "POST", "/v1/flights", pr)
	}()
	// Wait until the stalled request owns the slot.
	deadline := time.Now().Add(5 * time.Second)
	for s.jobs.InUse() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first upload never acquired the batch slot")
		}
		time.Sleep(time.Millisecond)
	}
	errCode(t, do(t, s, "POST", "/v1/flights", "x"), http.StatusTooManyRequests, api.CodeCapacity)
	pw.CloseWithError(io.ErrUnexpectedEOF)
	errCode(t, <-firstDone, http.StatusUnprocessableEntity, api.CodeUnprocessable)
}

// TestIdleExpiry lets the janitor reap an abandoned session: the stream
// closes on the idle timeout and the verdict becomes readable.
func TestIdleExpiry(t *testing.T) {
	fx := getFixture(t)
	s := newTestServer(t, Config{IdleTimeout: 50 * time.Millisecond, SweepInterval: 5 * time.Millisecond})
	created := decode[api.SessionResponse](t, do(t, s, "POST", "/v1/sessions",
		api.SessionRequest{SampleRateHz: fx.calib[0].Audio.SampleRate}), http.StatusCreated)
	base := "/v1/sessions/" + created.ID
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := decode[api.SessionStatus](t, do(t, s, "GET", base+"/status", nil), http.StatusOK)
		if st.State != api.SessionOpen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("janitor never closed the idle session")
		}
		time.Sleep(5 * time.Millisecond)
	}
	decode[api.Report](t, do(t, s, "GET", base+"/report", nil), http.StatusOK)
}

// TestHealthzAndDrain checks liveness reporting and the graceful-drain
// behavior: in-flight sessions finish, new work is shed with 503.
func TestHealthzAndDrain(t *testing.T) {
	fx := getFixture(t)
	s, err := New(fx.analyzer, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := decode[api.Health](t, do(t, s, "GET", "/v1/healthz", nil), http.StatusOK)
	if h.Status != "ok" || h.SessionCap <= 0 || h.JobCap <= 0 {
		t.Errorf("healthz = %+v", h)
	}

	created := decode[api.SessionResponse](t, do(t, s, "POST", "/v1/sessions",
		api.SessionRequest{SampleRateHz: fx.calib[0].Audio.SampleRate}), http.StatusCreated)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	errCode(t, do(t, s, "POST", "/v1/sessions", api.SessionRequest{SampleRateHz: 4000}),
		http.StatusServiceUnavailable, api.CodeShuttingDown)
	errCode(t, do(t, s, "POST", "/v1/flights", "x"), http.StatusServiceUnavailable, api.CodeShuttingDown)
	if h := decode[api.Health](t, do(t, s, "GET", "/v1/healthz", nil), http.StatusOK); h.Status != "draining" {
		t.Errorf("post-drain healthz status = %q, want draining", h.Status)
	}
	// The drained session's verdict must still be readable.
	report := decode[api.Report](t, do(t, s, "GET", "/v1/sessions/"+created.ID+"/report", nil), http.StatusOK)
	if report.SchemaVersion != api.Version {
		t.Errorf("report schema_version = %q", report.SchemaVersion)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil analyzer accepted")
	}
}
