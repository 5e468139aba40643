package server

import (
	"context"
	"testing"
	"time"

	soundboost "soundboost/internal/core"
	"soundboost/internal/dataset"
	"soundboost/internal/mathx"
	"soundboost/internal/mavbus"
	"soundboost/internal/sim"
	"soundboost/internal/stream"
	"soundboost/internal/triage"
)

// triageTestAnalyzer clones the fixture analyzer, attaches a triage
// tier trained on the calibration flights, extra benign flights across
// the same missions, and one attack flight per family, then enforces
// the zero-flip guarantee over that corpus. The corpus is returned so
// the path-parity test replays exactly the flights the guarantee was
// verified on.
func triageTestAnalyzer(t *testing.T) (*soundboost.Analyzer, []*dataset.Flight) {
	t.Helper()
	fx := getFixture(t)
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
	corpus := append([]*dataset.Flight(nil), fx.calib...)
	seed := int64(8000)
	for rep := 0; rep < 2; rep++ {
		for _, m := range missions {
			f, err := dataset.Generate(dataset.FastGenConfig(m, seed))
			if err != nil {
				t.Fatal(err)
			}
			corpus = append(corpus, f)
			seed += 7
		}
	}
	corpus = append(corpus, gpsAttackFlight(t, 8100), imuAttackFlight(t, 8101))

	tier, err := soundboost.TrainTriage(corpus, fx.analyzer.Model.Config().Signature, triage.Config{})
	if err != nil {
		t.Fatalf("TrainTriage: %v", err)
	}
	an := *fx.analyzer // shallow clone: the shared fixture stays triage-free
	an.Triage = tier
	if _, _, err := an.VerifyTriage(corpus); err != nil {
		t.Fatalf("VerifyTriage: %v", err)
	}
	return &an, corpus
}

// replayStream drives a flight through a live stream engine over a
// bus and returns the streaming report.
func replayStream(t *testing.T, an *soundboost.Analyzer, f *dataset.Flight) soundboost.Report {
	t.Helper()
	bus := mavbus.NewBus(0)
	eng, err := stream.New(an, f.Audio.SampleRate, stream.WithFlightName(f.Name))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Attach(bus); err != nil {
		t.Fatal(err)
	}
	replayErr := make(chan error, 1)
	go func() {
		replayErr <- stream.Replay(context.Background(), bus, f, stream.ReplayConfig{Speed: 0})
		bus.Close()
	}()
	report, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("engine run: %v", err)
	}
	if err := <-replayErr; err != nil {
		t.Fatalf("replay: %v", err)
	}
	return report
}

// TestTriageZeroFlipAllPaths is the corpus-wide zero verdict-flip
// guarantee across every serving surface: for each flight of the
// verified corpus, the triage-on and triage-off causes must agree on
// the batch path (Analyze), the streaming path (live engine over a
// bus, with the tier and with WithoutTriage), and the served path
// (HTTP sessions against triage-on and triage-off servers). Run under
// -race in CI (scripts/verify.sh), this also exercises the engine's
// escalation replay for data races.
func TestTriageZeroFlipAllPaths(t *testing.T) {
	an, corpus := triageTestAnalyzer(t)
	full := an.WithoutTriage()

	newServer := func(a *soundboost.Analyzer) *Server {
		s, err := New(a, Config{})
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
	sOn, sOff := newServer(an), newServer(full)

	fastpath := 0
	for _, f := range corpus {
		batchOn, err := an.Analyze(f)
		if err != nil {
			t.Fatalf("triage-on Analyze %s: %v", f.Name, err)
		}
		batchOff, err := full.Analyze(f)
		if err != nil {
			t.Fatalf("triage-off Analyze %s: %v", f.Name, err)
		}
		if batchOn.Cause != batchOff.Cause {
			t.Errorf("%s: batch verdict flipped: %q vs %q", f.Name, batchOn.Cause, batchOff.Cause)
		}
		if batchOn == soundboost.FastBenignReport(f.Name, an) {
			fastpath++
		}

		streamOn := replayStream(t, an, f)
		streamOff := replayStream(t, full, f)
		if streamOn.Cause != batchOn.Cause {
			t.Errorf("%s: stream triage-on cause %q, batch %q", f.Name, streamOn.Cause, batchOn.Cause)
		}
		if streamOff.Cause != batchOff.Cause {
			t.Errorf("%s: stream triage-off cause %q, batch %q", f.Name, streamOff.Cause, batchOff.Cause)
		}

		servedOn := runSession(t, sOn, f, 6)
		servedOff := runSession(t, sOff, f, 6)
		if servedOn.Cause != string(batchOn.Cause) {
			t.Errorf("%s: served triage-on cause %q, batch %q", f.Name, servedOn.Cause, batchOn.Cause)
		}
		if servedOff.Cause != string(batchOff.Cause) {
			t.Errorf("%s: served triage-off cause %q, batch %q", f.Name, servedOff.Cause, batchOff.Cause)
		}
	}
	t.Logf("fast-path flights: %d/%d", fastpath, len(corpus))
	if fastpath == 0 {
		t.Error("no corpus flight took the fast path — the parity check is vacuous")
	}
}
