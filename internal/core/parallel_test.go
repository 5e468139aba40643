package soundboost

import (
	"math"
	"testing"

	"soundboost/internal/dataset"
	"soundboost/internal/parallel"
	"soundboost/internal/sim"
)

// TestValidateForRate covers the Nyquist check that plain Validate cannot
// perform (SignatureConfig carries no sample rate).
func TestValidateForRate(t *testing.T) {
	good := testSignatureConfig()
	synth := dataset.FastGenConfig(sim.HoverMission{Seconds: 1}, 0).Synth
	if err := good.ValidateForRate(synth.SampleRate); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := good.ValidateForRate(0); err == nil {
		t.Error("zero sample rate accepted")
	}
	// A band entirely above Nyquist can never see energy.
	bad := testSignatureConfig()
	bad.Bands[0].Low = synth.SampleRate
	bad.Bands[0].High = synth.SampleRate * 2
	if err := bad.ValidateForRate(synth.SampleRate); err == nil {
		t.Error("band entirely above Nyquist accepted")
	}
	// A band whose upper edge merely crosses Nyquist is clamped, not fatal.
	edge := testSignatureConfig()
	edge.Bands[0].High = synth.SampleRate // low edge stays below Nyquist
	if err := edge.ValidateForRate(synth.SampleRate); err != nil {
		t.Errorf("Nyquist-crossing band rejected: %v", err)
	}
}

// TestWindowStartsLongRecordingNoDrift is the regression test for the
// float-accumulation bug: with a hop that is not exactly representable in
// binary (0.1 s), repeated `t += hop` drifts after thousands of windows,
// shifting starts and dropping the final windows. Starts must equal
// i*hop exactly for the whole recording.
func TestWindowStartsLongRecordingNoDrift(t *testing.T) {
	cfg := testSignatureConfig()
	cfg.WindowSeconds = 0.2
	cfg.HopSeconds = 0.1
	const (
		rate = 100.0
		dur  = 7200.0 // two hours
	)
	e := &Extractor{cfg: cfg, rate: rate}
	for m := range e.filtered {
		e.filtered[m] = make([]float64, int(dur*rate))
	}
	starts := e.WindowStarts(cfg.WindowSeconds)
	// floor((dur-window)/hop)+1 windows, computed without accumulation.
	want := 0
	for i := 0; ; i++ {
		if float64(i)*cfg.HopSeconds+cfg.WindowSeconds > dur {
			break
		}
		want = i + 1
	}
	if len(starts) != want {
		t.Fatalf("window count %d, want %d", len(starts), want)
	}
	for i, s := range starts {
		if s != float64(i)*cfg.HopSeconds {
			t.Fatalf("start %d = %v, want exactly %v (drift %g)", i, s, float64(i)*cfg.HopSeconds, s-float64(i)*cfg.HopSeconds)
		}
	}
	last := starts[len(starts)-1]
	if last+cfg.WindowSeconds > dur {
		t.Errorf("last window [%g, %g] exceeds recording", last, last+cfg.WindowSeconds)
	}
}

// withWorkers runs fn under a fixed default worker count, restoring the
// previous default afterwards.
func withWorkers(n int, fn func()) {
	prev := parallel.DefaultWorkers()
	parallel.SetDefaultWorkers(n)
	defer parallel.SetDefaultWorkers(prev)
	fn()
}

// TestBuildWindowsParallelMatchesSerial is the tentpole equivalence
// guarantee at the feature level: the parallel window builder must be
// bitwise identical to the serial path (workers=1).
func TestBuildWindowsParallelMatchesSerial(t *testing.T) {
	f := getFixture(t).train[0]
	cfg := testSignatureConfig()
	var serial, par []WindowSample
	var serialErr, parErr error
	withWorkers(1, func() { serial, serialErr = BuildWindows(f, cfg, 0, 1) })
	withWorkers(4, func() { par, parErr = BuildWindows(f, cfg, 0, 1) })
	if serialErr != nil || parErr != nil {
		t.Fatalf("serial err %v, parallel err %v", serialErr, parErr)
	}
	if len(serial) == 0 || len(serial) != len(par) {
		t.Fatalf("window counts differ: serial %d, parallel %d", len(serial), len(par))
	}
	for i := range serial {
		if serial[i].Start != par[i].Start || serial[i].Label != par[i].Label {
			t.Fatalf("window %d metadata differs", i)
		}
		for j := range serial[i].Features {
			if serial[i].Features[j] != par[i].Features[j] {
				t.Fatalf("window %d feature %d: serial %v != parallel %v",
					i, j, serial[i].Features[j], par[i].Features[j])
			}
		}
	}
}

// TestAnalyzerParallelMatchesSerial is the tentpole equivalence guarantee
// end to end: calibrating and running the full RCA pipeline with a worker
// pool must produce Reports identical to the serial path.
func TestAnalyzerParallelMatchesSerial(t *testing.T) {
	fx := getFixture(t)
	run := func() []Report {
		an, err := NewAnalyzer(fx.model, fx.calib)
		if err != nil {
			t.Fatal(err)
		}
		var reports []Report
		for _, f := range fx.heldout {
			r, err := an.Analyze(f)
			if err != nil {
				t.Fatal(err)
			}
			reports = append(reports, r)
		}
		return reports
	}
	var serial, par []Report
	withWorkers(1, func() { serial = run() })
	withWorkers(4, func() { par = run() })
	if len(serial) != len(par) {
		t.Fatalf("report counts differ")
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Errorf("flight %d: serial report %+v != parallel report %+v", i, serial[i], par[i])
		}
	}
}

// TestExtractorRejectsNyquistBand wires ValidateForRate into construction.
func TestExtractorRejectsNyquistBand(t *testing.T) {
	f := getFixture(t).train[0]
	cfg := testSignatureConfig()
	cfg.Bands[0].Low = f.Audio.SampleRate
	cfg.Bands[0].High = f.Audio.SampleRate * 2
	if _, err := NewExtractor(f.Audio, cfg); err == nil {
		t.Error("extractor accepted band entirely above Nyquist")
	}
}

// TestFeaturesDeterministicAcrossCalls guards the pooled-scratch rewrite:
// repeated extraction of the same window must be bitwise stable even after
// buffers cycle through the arena.
func TestFeaturesDeterministicAcrossCalls(t *testing.T) {
	f := getFixture(t).train[0]
	cfg := testSignatureConfig()
	ex, err := NewExtractor(f.Audio, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := ex.Features(1.0, cfg.WindowSeconds)
	if first == nil {
		t.Fatal("no features")
	}
	for trial := 0; trial < 5; trial++ {
		again := ex.Features(1.0, cfg.WindowSeconds)
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("trial %d feature %d: %v != %v", trial, i, again[i], first[i])
			}
		}
	}
	for _, v := range first {
		if math.IsNaN(v) {
			t.Fatal("NaN feature")
		}
	}
}
