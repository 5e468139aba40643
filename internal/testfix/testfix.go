// Package testfix is the shared integration-test fixture: one trained,
// calibrated analyzer over the reduced-rate simulation corpus (4 kHz
// audio, 125 Hz telemetry), built once per test binary and reused by
// every test that needs a live RCA pipeline. The server and fleet test
// suites both stand real services on top of it, so their equivalence
// assertions (streamed == batch, fleet == single node) run against the
// same model and the same flights.
package testfix

import (
	"sync"
	"testing"

	"soundboost/api"
	soundboost "soundboost/internal/core"
	"soundboost/internal/dataset"
	"soundboost/internal/mathx"
	"soundboost/internal/sim"
)

// F is the built fixture: calibration flights plus the analyzer trained
// over the sibling training corpus.
type F struct {
	Calib    []*dataset.Flight
	Analyzer *soundboost.Analyzer
}

var (
	once sync.Once
	fix  *F
	err  error
)

// Get builds (once per binary) and returns the shared fixture.
func Get(t *testing.T) *F {
	t.Helper()
	once.Do(func() { fix, err = build() })
	if err != nil {
		t.Fatalf("testfix: %v", err)
	}
	return fix
}

func build() (*F, error) {
	f := &F{}
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
				return nil, err
			}
			train = append(train, fl)
			seed += 7
		}
	}
	for _, m := range missions {
		fl, err := dataset.Generate(dataset.FastGenConfig(m, seed))
		if err != nil {
			return nil, err
		}
		f.Calib = append(f.Calib, fl)
		seed += 7
	}
	sig := soundboost.DefaultSignatureConfig(dataset.FastGenConfig(missions[0], 0).Synth)
	mcfg := soundboost.DefaultMappingConfig(sig)
	mcfg.Hidden = 48
	mcfg.Train.Epochs = 100
	model, _, err := soundboost.TrainModel(train, nil, mcfg)
	if err != nil {
		return nil, err
	}
	an, err := soundboost.NewAnalyzer(model, f.Calib)
	if err != nil {
		return nil, err
	}
	f.Analyzer = an
	return f, nil
}

// Frames chunks a flight into roughly nBatches time-ordered frame
// requests via the api package's client-side chunker — the same code
// path `soundboost push -mode session` uses.
func Frames(f *dataset.Flight, nBatches int) ([]api.FramesRequest, error) {
	duration := float64(f.Audio.Samples()) / f.Audio.SampleRate
	if n := len(f.Telemetry); n > 0 && f.Telemetry[n-1].Time > duration {
		duration = f.Telemetry[n-1].Time
	}
	return api.ChunkFlight(f, 0.05, duration/float64(nBatches))
}
