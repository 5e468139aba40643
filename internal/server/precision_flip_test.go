package server

import (
	"context"
	"net/http"
	"testing"
	"time"

	"soundboost/api"
	soundboost "soundboost/internal/core"
	"soundboost/internal/dataset"
)

// runPrecisionSession drives a flight through the streaming endpoints
// with an explicit session precision and returns the final wire report.
func runPrecisionSession(t *testing.T, s *Server, f *dataset.Flight, precision string, nBatches int) api.Report {
	t.Helper()
	created := decode[api.SessionResponse](t, do(t, s, "POST", "/v1/sessions", api.SessionRequest{
		Flight:       f.Name,
		SampleRateHz: f.Audio.SampleRate,
		Precision:    precision,
	}), http.StatusCreated)
	if created.State != api.SessionOpen {
		t.Fatalf("new session state = %q", created.State)
	}
	report, err := feedSession(s, "/v1/sessions/"+created.ID, f, nBatches)
	if err != nil {
		t.Fatal(err)
	}
	return report
}

// TestFloat32ZeroFlipAllPaths is the corpus-wide zero verdict-flip
// guarantee of the float32 fast path: over the same verified corpus the
// triage parity test uses, re-precisioning the analyzer to float32 must
// not change a single root-cause verdict on any serving surface — the
// batch path (Analyze, with and without the triage tier), the streaming
// path (live engine over the float32 analyzer), and the served
// path (HTTP sessions opened with the wire precision field). Run under
// -race in CI alongside the triage flip test.
func TestFloat32ZeroFlipAllPaths(t *testing.T) {
	an, corpus := triageTestAnalyzer(t)
	an32, err := an.WithPrecision(soundboost.Float32)
	if err != nil {
		t.Fatal(err)
	}
	full := an.WithoutTriage()
	full32 := an32.WithoutTriage()

	s, err := New(an, Config{})
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

	fastpath := 0
	for _, f := range corpus {
		batch64, err := full.Analyze(f)
		if err != nil {
			t.Fatalf("float64 Analyze %s: %v", f.Name, err)
		}
		batch32, err := full32.Analyze(f)
		if err != nil {
			t.Fatalf("float32 Analyze %s: %v", f.Name, err)
		}
		if batch32.Cause != batch64.Cause {
			t.Errorf("%s: batch verdict flipped under float32: %q vs %q", f.Name, batch32.Cause, batch64.Cause)
		}
		if batch32.Precision != soundboost.Float32 || batch64.Precision != soundboost.Float64 {
			t.Errorf("%s: report precisions = (%q, %q), want (float32, float64)",
				f.Name, batch32.Precision, batch64.Precision)
		}

		// Triage tier on top of the float32 signature path: verdicts must
		// still match the exact pipeline, and the tier must short-circuit
		// the same flights it short-circuits under float64.
		tri64, err := an.Analyze(f)
		if err != nil {
			t.Fatalf("float64 triage Analyze %s: %v", f.Name, err)
		}
		tri32, err := an32.Analyze(f)
		if err != nil {
			t.Fatalf("float32 triage Analyze %s: %v", f.Name, err)
		}
		if tri32.Cause != tri64.Cause {
			t.Errorf("%s: triage verdict flipped under float32: %q vs %q", f.Name, tri32.Cause, tri64.Cause)
		}
		fast64 := tri64 == soundboost.FastBenignReport(f.Name, an)
		fast32 := tri32 == soundboost.FastBenignReport(f.Name, an32)
		if fast64 != fast32 {
			t.Errorf("%s: fast-path disagreement (float64 %v, float32 %v)", f.Name, fast64, fast32)
		}
		if fast32 {
			fastpath++
		}

		stream32 := replayStream(t, full32, f)
		if stream32.Cause != batch64.Cause {
			t.Errorf("%s: float32 stream cause %q, float64 batch %q", f.Name, stream32.Cause, batch64.Cause)
		}
		if stream32.Precision != soundboost.Float32 {
			t.Errorf("%s: float32 stream report precision = %q", f.Name, stream32.Precision)
		}

		served32 := runPrecisionSession(t, s, f, string(soundboost.Float32), 6)
		if served32.Cause != string(tri64.Cause) {
			t.Errorf("%s: float32 served cause %q, float64 batch %q", f.Name, served32.Cause, tri64.Cause)
		}
		if served32.Precision != string(soundboost.Float32) {
			t.Errorf("%s: served precision = %q, want float32", f.Name, served32.Precision)
		}
		if served32.Tolerance != soundboost.Float32Tolerance {
			t.Errorf("%s: served tolerance = %g, want %g", f.Name, served32.Tolerance, soundboost.Float32Tolerance)
		}
	}
	t.Logf("float32 fast-path flights: %d/%d", fastpath, len(corpus))
	if fastpath == 0 {
		t.Error("no corpus flight took the float32 fast path — the parity check is vacuous")
	}
}
