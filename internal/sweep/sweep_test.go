package sweep

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	soundboost "soundboost/internal/core"
	"soundboost/internal/dataset"
	"soundboost/internal/kalman"
	"soundboost/internal/mathx"
	"soundboost/internal/sim"
)

var (
	fixOnce     sync.Once
	fixAnalyzer *soundboost.Analyzer
	fixErr      error
)

// getAnalyzer trains the fixture analyzer once per test binary, with
// the same corpus and model size the server tests use — strong enough
// that benign flights keep the IMU stage quiet, which the margin
// plumb-through assertion depends on (a falsely-flagged IMU makes
// stage 2 fall back to the audio-only variant the sweep didn't
// rescale).
func getAnalyzer(t *testing.T) *soundboost.Analyzer {
	t.Helper()
	fixOnce.Do(func() {
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
		var train, calib []*dataset.Flight
		seed := int64(700)
		for rep := 0; rep < 2; rep++ {
			for _, m := range missions {
				f, err := dataset.Generate(dataset.FastGenConfig(m, seed))
				if err != nil {
					fixErr = err
					return
				}
				train = append(train, f)
				seed += 7
			}
		}
		for _, m := range missions {
			f, err := dataset.Generate(dataset.FastGenConfig(m, seed))
			if err != nil {
				fixErr = err
				return
			}
			calib = append(calib, f)
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
		fixAnalyzer, fixErr = soundboost.NewAnalyzer(model, calib)
	})
	if fixErr != nil {
		t.Fatalf("fixture: %v", fixErr)
	}
	return fixAnalyzer
}

// TestSweepSeedByteIdentical is the determinism contract: the same
// Config (same seed) run twice — flight synthesis, in-process servers,
// concurrent trials over real HTTP, rollup — must produce byte-for-byte
// identical JSONL, CSV, and rollup. This is what lets a sweep pin a
// confusion matrix in CI.
func TestSweepSeedByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep end-to-end is too slow for -short")
	}
	cfg := Config{
		Analyzer:    getAnalyzer(t),
		Margins:     []float64{1.0, 1.3},
		Attacks:     []string{"benign", "gps-drift"},
		Seconds:     14,
		Seed:        42,
		Concurrency: 3,
	}
	run := func() (*Result, []byte, []byte) {
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		var jsonl, csv bytes.Buffer
		if err := WriteJSONL(&jsonl, res.Records); err != nil {
			t.Fatal(err)
		}
		if err := WriteCSV(&csv, res.Records); err != nil {
			t.Fatal(err)
		}
		return res, jsonl.Bytes(), csv.Bytes()
	}

	res1, jsonl1, csv1 := run()
	res2, jsonl2, _ := run()

	if !bytes.Equal(jsonl1, jsonl2) {
		t.Errorf("same-seed sweeps produced different JSONL:\nrun1:\n%srun2:\n%s", jsonl1, jsonl2)
	}
	if res1.Rollup != res2.Rollup {
		t.Errorf("same-seed rollups differ:\nrun1: %+v\nrun2: %+v", res1.Rollup, res2.Rollup)
	}

	// Shape: 2 margins x 2 attacks = 4 trials over 2 distinct flights,
	// enumerated margin-major.
	if len(res1.Records) != 4 {
		t.Fatalf("got %d records, want 4", len(res1.Records))
	}
	wantParams := []struct {
		margin float64
		attack string
	}{{1.0, "benign"}, {1.0, "gps-drift"}, {1.3, "benign"}, {1.3, "gps-drift"}}
	for i, r := range res1.Records {
		if r.Trial != i {
			t.Errorf("record %d: trial index %d", i, r.Trial)
		}
		if r.SchemaVersion != SchemaVersion {
			t.Errorf("record %d: schema %q", i, r.SchemaVersion)
		}
		if r.Params.Margin != wantParams[i].margin || r.Params.Attack != wantParams[i].attack {
			t.Errorf("record %d: params (%g, %s), want (%g, %s)", i,
				r.Params.Margin, r.Params.Attack, wantParams[i].margin, wantParams[i].attack)
		}
		if r.Params.KF != string(kalman.ModeAudioIMU) {
			t.Errorf("record %d: kf %q, want default %q", i, r.Params.KF, kalman.ModeAudioIMU)
		}
		if r.Shed != 0 {
			t.Errorf("record %d: %d messages shed — determinism is void", i, r.Shed)
		}
		if r.Retries != 0 {
			t.Errorf("record %d: %d data-path retries against a healthy in-process server", i, r.Retries)
		}
		if r.PhaseSeconds != nil {
			t.Errorf("record %d: phase timings recorded without Timings", i)
		}
		if r.Chunks == 0 {
			t.Errorf("record %d: no chunks pushed", i)
		}
	}
	// The two margin cells share flights: same flight name, and the
	// benign/attack ground truth rides along.
	if res1.Records[0].Flight != res1.Records[2].Flight {
		t.Errorf("margin cells did not share the benign flight: %q vs %q",
			res1.Records[0].Flight, res1.Records[2].Flight)
	}
	if res1.Records[1].Truth.Kind != "gps-drift" || !res1.Records[1].Truth.Attack {
		t.Errorf("gps-drift trial truth = %+v", res1.Records[1].Truth)
	}
	if res1.Records[0].Truth.Attack {
		t.Errorf("benign trial marked as attack")
	}
	// A lower margin means a lower threshold, exactly rescaled. The
	// check requires stage 2 to have run the swept (audio+imu) variant
	// — i.e. the IMU stage stayed quiet on these IMU-clean flights.
	for _, i := range []int{1, 3} {
		if got := res1.Records[i].Verdict.GPSMode; got != string(kalman.ModeAudioIMU) {
			t.Errorf("record %d: gps_mode %q — IMU stage falsely flagged, margin cell unexercised", i, got)
		}
	}
	lo, hi := res1.Records[1].Verdict.Threshold, res1.Records[3].Verdict.Threshold
	if !(lo < hi) {
		t.Errorf("margin 1.0 threshold %g not below margin 1.3 threshold %g", lo, hi)
	}
	if got := res1.Rollup; got.Trials != 4 || got.Flights != 2 {
		t.Errorf("rollup trials/flights = %d/%d, want 4/2", got.Trials, got.Flights)
	}
	pooledN := res1.Rollup.Pooled.TP + res1.Rollup.Pooled.FP + res1.Rollup.Pooled.TN + res1.Rollup.Pooled.FN
	disjointN := res1.Rollup.SessionDisjoint.TP + res1.Rollup.SessionDisjoint.FP +
		res1.Rollup.SessionDisjoint.TN + res1.Rollup.SessionDisjoint.FN
	if pooledN != 4 || disjointN != 2 {
		t.Errorf("pooled/disjoint totals = %d/%d, want 4/2", pooledN, disjointN)
	}
	if !bytes.HasPrefix(csv1, []byte("trial,flight,kf,margin")) {
		t.Errorf("csv header missing: %q", bytes.SplitN(csv1, []byte("\n"), 2)[0])
	}
}

// TestRollupSessionDisjoint pins the leakage guard on synthetic
// records: pooled counts every (flight, cell) trial, while the
// session-disjoint matrix scores each distinct flight once — its first
// trial in grid order — so correlated re-trials of one flight cannot
// inflate the reported rates.
func TestRollupSessionDisjoint(t *testing.T) {
	mk := func(trial int, flight, kind, cause string, peak float64) Record {
		r := Record{
			SchemaVersion: SchemaVersion,
			Trial:         trial,
			Flight:        flight,
			Truth:         Truth{Attack: kind != "benign", Kind: kind},
			Verdict:       Verdict{Cause: cause, PeakError: peak},
		}
		r.Correct = cause == truthFamily(kind)
		return r
	}
	records := []Record{
		// Cell A: both flights scored correctly.
		mk(0, "benign-i1-r0", "benign", "none", 0.2),
		mk(1, "gps-drift-i1-r0", "gps-drift", "gps", 0.9),
		// Cell B re-runs the same flights and gets both wrong.
		mk(2, "benign-i1-r0", "benign", "gps", 0.2),
		mk(3, "gps-drift-i1-r0", "gps-drift", "none", 0.9),
	}
	roll := BuildRollup(records)
	if roll.Trials != 4 || roll.Flights != 2 {
		t.Fatalf("trials/flights = %d/%d, want 4/2", roll.Trials, roll.Flights)
	}
	// Pooled sees 4 correlated outcomes: 1 TP, 1 FN, 1 TN, 1 FP.
	if want := (Confusion{TP: 1, FP: 1, TN: 1, FN: 1, TPR: 0.5, FPR: 0.5}); roll.Pooled != want {
		t.Errorf("pooled = %+v, want %+v", roll.Pooled, want)
	}
	// Session-disjoint keeps only each flight's first trial: perfect.
	if want := (Confusion{TP: 1, TN: 1, TPR: 1, FPR: 0}); roll.SessionDisjoint != want {
		t.Errorf("session_disjoint = %+v, want %+v", roll.SessionDisjoint, want)
	}
	if roll.Attribution.Correct != 2 || roll.Attribution.Accuracy != 0.5 {
		t.Errorf("attribution = %+v, want 2/4", roll.Attribution)
	}
	// Benign peak 0.2 vs gps peak 0.9 separate perfectly.
	if roll.GPSAUC != 1 {
		t.Errorf("gps_auc = %g, want 1", roll.GPSAUC)
	}
}

func TestGridParsing(t *testing.T) {
	got, err := ParseFloats("margins", " 1.0, 1.3 ,2,")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1.0 || got[1] != 1.3 || got[2] != 2 {
		t.Errorf("ParseFloats = %v", got)
	}
	if _, err := ParseFloats("margins", "1.0,abc"); err == nil ||
		!strings.Contains(err.Error(), "margins") {
		t.Errorf("bad token error = %v, want axis name in it", err)
	}
	if s := ParseStrings(" benign , gps-drift ,,"); len(s) != 2 || s[0] != "benign" || s[1] != "gps-drift" {
		t.Errorf("ParseStrings = %v", s)
	}
}

func TestConfigValidation(t *testing.T) {
	base := Config{Addr: "http://127.0.0.1:1"}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"margins with external server", func(c *Config) { c.Margins = []float64{1.0, 1.2} }, "external server"},
		{"kf with external server", func(c *Config) { c.KFModes = []kalman.Mode{kalman.ModeAudioOnly} }, "external server"},
		{"unknown attack", func(c *Config) { c.Attacks = []string{"gps-teleport"} }, "unknown attack family"},
		{"short flight", func(c *Config) { c.Seconds = 5 }, "at least 12"},
		{"bad chunk", func(c *Config) { c.ChunkSeconds = []float64{0} }, "chunk seconds"},
		{"bad intensity", func(c *Config) { c.Intensities = []float64{-1} }, "intensity"},
		{"bad preset", func(c *Config) { c.Preset = "slow" }, "preset"},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if _, err := cfg.normalized(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
	// No analyzer and no addr is unusable.
	if _, err := (Config{}).normalized(); err == nil {
		t.Error("empty config: want error")
	}
	// A valid external config defaults the sentinel axes lazily (Run
	// substitutes KFServer); normalized itself must accept it.
	if _, err := base.normalized(); err != nil {
		t.Errorf("external config rejected: %v", err)
	}
	// Self-hosted invalid KF variant.
	bad := Config{Analyzer: &soundboost.Analyzer{}, KFModes: []kalman.Mode{kalman.ModeIMUOnly}}
	if _, err := bad.normalized(); err == nil || !strings.Contains(err.Error(), "KF variant") {
		t.Errorf("imu-only variant: err = %v", err)
	}
}
