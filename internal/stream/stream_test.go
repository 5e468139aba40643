package stream

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"soundboost/internal/attack"
	soundboost "soundboost/internal/core"
	"soundboost/internal/dataset"
	"soundboost/internal/mathx"
	"soundboost/internal/mavbus"
	"soundboost/internal/sim"
)

// testGenConfig mirrors the reduced-rate configuration the core tests
// use, so the fixture stays fast while keeping the sample arithmetic
// representative (4 kHz audio, 0.25 s hops → exact sample counts).
func testGenConfig(mission sim.Mission, seed int64) dataset.GenConfig {
	cfg := dataset.DefaultGenConfig(mission, seed)
	cfg.World.PhysicsRate = 250
	cfg.World.ControlRate = 125
	cfg.World.IMU.SampleRate = 125
	cfg.Synth.SampleRate = 4000
	cfg.Synth.MechFreq = 900
	cfg.Synth.AeroFreq = 1500
	cfg.World.Controller.MaxVel = 3.0
	return cfg
}

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
		seed := int64(400)
		for rep := 0; rep < 2; rep++ {
			for _, m := range missions {
				fl, err := dataset.Generate(testGenConfig(m, seed))
				if err != nil {
					fixErr = err
					return
				}
				train = append(train, fl)
				seed += 7
			}
		}
		for _, m := range missions {
			fl, err := dataset.Generate(testGenConfig(m, seed))
			if err != nil {
				fixErr = err
				return
			}
			f.calib = append(f.calib, fl)
			seed += 7
		}
		sig := soundboost.DefaultSignatureConfig(testGenConfig(missions[0], 0).Synth)
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

func imuAttackFlight(t *testing.T, seed int64) *dataset.Flight {
	t.Helper()
	cfg := testGenConfig(sim.HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: 14}, seed)
	cfg.Scenario = attack.Scenario{Name: "imu-dos", IMU: &attack.IMUBiaser{
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

func gpsAttackFlight(t *testing.T, seed int64) *dataset.Flight {
	t.Helper()
	cfg := testGenConfig(sim.HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: 20}, seed)
	cfg.Scenario = attack.Scenario{Name: "gps-drift", GPS: &attack.GPSSpoofer{
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

// runStream replays a flight through a bus into a fresh engine and
// returns the streaming report.
func runStream(t *testing.T, an *soundboost.Analyzer, f *dataset.Flight, rcfg ReplayConfig) (soundboost.Report, *Engine) {
	t.Helper()
	bus := mavbus.NewBus(0)
	eng, err := New(an, f.Audio.SampleRate, WithBuffer(1<<15), WithFlightName(f.Name))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Attach(bus); err != nil {
		t.Fatal(err)
	}
	replayErr := make(chan error, 1)
	go func() {
		replayErr <- Replay(context.Background(), bus, f, rcfg)
		bus.Close()
	}()
	report, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("engine run: %v", err)
	}
	if err := <-replayErr; err != nil {
		t.Fatalf("replay: %v", err)
	}
	if d := bus.Dropped(); d != 0 {
		t.Fatalf("bus shed %d messages; buffer too small for a faithful replay", d)
	}
	return report, eng
}

func closeTo(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

// TestStreamEquivalence is the engine's core contract: on a clean,
// in-order, lossless replay the streaming verdict matches batch Analyze
// — on benign flights and on attacked ones (where the live KF-variant
// switch must land on the same stage-2 verdict as the batch selection).
func TestStreamEquivalence(t *testing.T) {
	fx := getFixture(t)
	flights := []*dataset.Flight{
		fx.calib[0],
		fx.calib[1],
		imuAttackFlight(t, 4100),
		gpsAttackFlight(t, 4200),
	}
	for _, f := range flights {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			batch, err := fx.analyzer.Analyze(f)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := runStream(t, fx.analyzer, f, ReplayConfig{Speed: 0})

			if got.Cause != batch.Cause {
				t.Errorf("cause = %q, batch %q", got.Cause, batch.Cause)
			}
			if got.GPSMode != batch.GPSMode {
				t.Errorf("GPS mode = %q, batch %q", got.GPSMode, batch.GPSMode)
			}
			if got.IMU.Attacked != batch.IMU.Attacked ||
				got.IMU.WindowsTested != batch.IMU.WindowsTested ||
				got.IMU.WindowsRejected != batch.IMU.WindowsRejected {
				t.Errorf("IMU verdict = %+v, batch %+v", got.IMU, batch.IMU)
			}
			if !closeTo(got.IMU.DetectionTime, batch.IMU.DetectionTime, 1e-9) ||
				!closeTo(got.IMU.AttackStd, batch.IMU.AttackStd, 1e-9) {
				t.Errorf("IMU timing/std = (%v, %v), batch (%v, %v)",
					got.IMU.DetectionTime, got.IMU.AttackStd, batch.IMU.DetectionTime, batch.IMU.AttackStd)
			}
			if got.GPS.Attacked != batch.GPS.Attacked {
				t.Errorf("GPS attacked = %v, batch %v", got.GPS.Attacked, batch.GPS.Attacked)
			}
			if !closeTo(got.GPS.PeakError, batch.GPS.PeakError, 1e-9) {
				t.Errorf("GPS peak error = %v, batch %v", got.GPS.PeakError, batch.GPS.PeakError)
			}
			if !closeTo(got.GPS.DetectionTime, batch.GPS.DetectionTime, 1e-9) {
				t.Errorf("GPS detection time = %v, batch %v", got.GPS.DetectionTime, batch.GPS.DetectionTime)
			}
			if !closeTo(got.GPS.Threshold, batch.GPS.Threshold, 1e-12) {
				t.Errorf("GPS threshold = %v, batch %v", got.GPS.Threshold, batch.GPS.Threshold)
			}
		})
	}
}

// TestIngestMatchesRun drives the engine directly — Events ingested in
// batches of n messages, one Advance per batch, then Finish — and
// requires the report of the bus-driven Run for every batch size, from
// one message per Advance to the whole flight in one.
func TestIngestMatchesRun(t *testing.T) {
	fx := getFixture(t)
	f := gpsAttackFlight(t, 4300)
	want, _ := runStream(t, fx.analyzer, f, ReplayConfig{Speed: 0})

	rate := f.Audio.SampleRate
	frameN := FrameLen(0.05, rate)
	var audio []AudioFrame
	for o := 0; o < f.Audio.Samples(); o += frameN {
		end := min(o+frameN, f.Audio.Samples())
		samples := make([][]float64, len(f.Audio.Channels))
		for m := range samples {
			samples[m] = f.Audio.Channels[m][o:end]
		}
		audio = append(audio, AudioFrame{Start: float64(o) / rate, Rate: rate, Samples: samples})
	}
	var imu []IMUSample
	var gps []GPSSample
	for _, s := range f.Telemetry {
		imu = append(imu, IMUSample{Time: s.Time, Accel: s.IMUAccel, Gyro: s.IMUGyro, Att: s.EstAtt})
		gps = append(gps, GPSSample{Time: s.Time, Pos: s.GPSPos, Vel: s.GPSVel})
	}
	events := Events(audio, imu, gps)
	for _, n := range []int{1, 97, len(events)} {
		eng, err := New(fx.analyzer, rate, WithFlightName(f.Name))
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range events {
			if err := eng.Ingest(m); err != nil {
				t.Fatal(err)
			}
			if (i+1)%n == 0 {
				eng.Advance()
			}
		}
		got, err := eng.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("batches of %d: report\n got %+v\nwant %+v", n, got, want)
		}
	}
}

// TestStreamTelemetryDropRobustness injects a 5% telemetry message drop:
// the engine must neither crash nor raise a false alarm on a benign
// flight.
func TestStreamTelemetryDropRobustness(t *testing.T) {
	fx := getFixture(t)
	report, _ := runStream(t, fx.analyzer, fx.calib[0], ReplayConfig{Speed: 0, DropRate: 0.05, Seed: 99})
	if report.Cause != soundboost.CauseNone {
		t.Errorf("benign flight with 5%% telemetry drop attributed cause %q (IMU %+v, GPS %+v)",
			report.Cause, report.IMU, report.GPS)
	}
	if report.IMU.WindowsTested == 0 {
		t.Error("engine processed no periods despite mostly-intact telemetry")
	}
}

// TestStreamAudioDropoutSkipsWindows drops whole audio frames: affected
// windows must be skipped (not synthesized from silence) and the verdict
// must stay benign.
func TestStreamAudioDropoutSkipsWindows(t *testing.T) {
	fx := getFixture(t)
	report, eng := runStream(t, fx.analyzer, fx.calib[0], ReplayConfig{Speed: 0, AudioDropRate: 0.05, Seed: 7})
	if report.Cause != soundboost.CauseNone {
		t.Errorf("benign flight with audio dropouts attributed cause %q", report.Cause)
	}
	st := eng.Status()
	if st.Skipped == 0 {
		t.Error("no windows skipped despite injected audio dropouts")
	}
	if st.Windows == 0 {
		t.Error("no windows processed at all")
	}
}

// TestStreamDegradedTelemetry hand-publishes malformed traffic — NaN
// rows, out-of-order audio and telemetry, wrong payload types — and
// expects a clean shutdown with a benign report.
func TestStreamDegradedTelemetry(t *testing.T) {
	fx := getFixture(t)
	bus := mavbus.NewBus(0)
	eng, err := New(fx.analyzer, 4000, WithBuffer(64))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Attach(bus); err != nil {
		t.Fatal(err)
	}
	go func() {
		mk := func(n int) [][]float64 {
			chans := make([][]float64, 4)
			for m := range chans {
				chans[m] = make([]float64, n)
			}
			return chans
		}
		// Frame at t=0.05 first (creates a gap), then the t=0 frame late
		// (dropped as out-of-order), then one with NaN samples.
		f2 := mk(200)
		bus.Publish(mavbus.Message{Topic: TopicAudio, Payload: AudioFrame{Start: 0.05, Rate: 4000, Samples: f2}})
		bus.Publish(mavbus.Message{Topic: TopicAudio, Payload: AudioFrame{Start: 0, Rate: 4000, Samples: mk(200)}})
		f3 := mk(200)
		f3[1][10] = math.NaN()
		bus.Publish(mavbus.Message{Topic: TopicAudio, Payload: AudioFrame{Start: 0.1, Rate: 4000, Samples: f3}})
		// Malformed frames: wrong rate, wrong channel count, bogus start.
		bus.Publish(mavbus.Message{Topic: TopicAudio, Payload: AudioFrame{Start: 0.2, Rate: 8000, Samples: mk(200)}})
		bus.Publish(mavbus.Message{Topic: TopicAudio, Payload: AudioFrame{Start: 0.2, Rate: 4000, Samples: mk(200)[:2]}})
		bus.Publish(mavbus.Message{Topic: TopicAudio, Payload: AudioFrame{Start: math.NaN(), Rate: 4000, Samples: mk(200)}})
		// Telemetry: NaN row, out-of-order rows, wrong payload type.
		bus.Publish(mavbus.Message{Topic: TopicIMU, Payload: IMUSample{Time: 0.1, Accel: mathx.Vec3{Z: math.NaN()}}})
		bus.Publish(mavbus.Message{Topic: TopicIMU, Payload: IMUSample{Time: 0.2, Att: mathx.Quat{W: 1}}})
		bus.Publish(mavbus.Message{Topic: TopicIMU, Payload: IMUSample{Time: 0.1, Att: mathx.Quat{W: 1}}})
		bus.Publish(mavbus.Message{Topic: TopicIMU, Payload: "not an imu sample"})
		bus.Publish(mavbus.Message{Topic: TopicGPS, Payload: GPSSample{Time: 0.2}})
		bus.Publish(mavbus.Message{Topic: TopicGPS, Payload: GPSSample{Time: 0.1, Vel: mathx.Vec3{X: math.Inf(1)}}})
		bus.Close()
	}()
	report, err := eng.Run(context.Background())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if report.Cause != soundboost.CauseNone {
		t.Errorf("degenerate stream attributed cause %q", report.Cause)
	}
}

// TestStreamContextCancel verifies a cancelled engine returns promptly
// with the context error and a best-effort report.
func TestStreamContextCancel(t *testing.T) {
	fx := getFixture(t)
	bus := mavbus.NewBus(0)
	eng, err := New(fx.analyzer, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Attach(bus); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Run(ctx); err != context.Canceled {
		t.Errorf("Run under cancelled ctx = %v, want context.Canceled", err)
	}
	bus.Close()
}

func TestNewEngineValidation(t *testing.T) {
	fx := getFixture(t)
	if _, err := New(nil, 4000); err == nil {
		t.Error("nil analyzer accepted")
	}
	if _, err := New(fx.analyzer, 0); err == nil {
		t.Error("zero sample rate accepted")
	}
	if _, err := New(fx.analyzer, 4000); err != nil {
		t.Errorf("valid engine rejected: %v", err)
	}
	if _, err := New(fx.analyzer, 4000, WithPrecision("float16")); err == nil {
		t.Error("unknown precision accepted")
	}
	eng, _ := New(fx.analyzer, 4000)
	if _, err := eng.Run(context.Background()); err == nil {
		t.Error("Run without Attach accepted")
	}
}

// withTelemetry returns a copy of f whose telemetry log keeps only the
// rows keep accepts (audio untouched).
func withTelemetry(f *dataset.Flight, name string, keep func(s dataset.TelemetrySample) bool) *dataset.Flight {
	g := *f
	g.Name = name
	g.Telemetry = nil
	for _, s := range f.Telemetry {
		if keep(s) {
			g.Telemetry = append(g.Telemetry, s)
		}
	}
	return &g
}

// TestBatchStreamEquivalenceDegraded extends the equivalence contract to
// flights whose telemetry is degraded in the two ways the batch and
// streaming paths historically disagreed on: a telemetry hole long
// enough to leave whole windows without rows (the GPS stage restarts
// its segment there), and sparse early telemetry that leaves the first
// KS periods under MinResiduals (the attack spread must pool the right
// windows). The batch report must equal the clean-replay stream report.
func TestBatchStreamEquivalenceDegraded(t *testing.T) {
	fx := getFixture(t)
	hole := withTelemetry(gpsAttackFlight(t, 4200), "gps-drift-hole", func(s dataset.TelemetrySample) bool {
		return s.Time < 9 || s.Time >= 10.5
	})
	slot := -1
	sparse := withTelemetry(imuAttackFlight(t, 4100), "imu-dos-sparse", func(s dataset.TelemetrySample) bool {
		// One row per half second through the first 3 s: every window
		// there holds a single row, so the first periods pool < 20.
		if s.Time >= 3 {
			return true
		}
		if k := int(s.Time / 0.5); k != slot {
			slot = k
			return true
		}
		return false
	})
	for _, tc := range []struct {
		f     *dataset.Flight
		check func(t *testing.T, r soundboost.Report)
	}{
		{hole, func(t *testing.T, r soundboost.Report) {
			if !r.GPS.Attacked {
				t.Errorf("GPS drift across a telemetry hole not detected: %+v", r.GPS)
			}
		}},
		{sparse, func(t *testing.T, r soundboost.Report) {
			if !r.IMU.Attacked || r.IMU.AttackStd == 0 {
				t.Errorf("IMU DoS on sparse telemetry not detected with a spread: %+v", r.IMU)
			}
		}},
	} {
		t.Run(tc.f.Name, func(t *testing.T) {
			batch, err := fx.analyzer.Analyze(tc.f)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := runStream(t, fx.analyzer, tc.f, ReplayConfig{Speed: 0})
			if got != batch {
				t.Errorf("stream report\n  %+v\nbatch report\n  %+v", got, batch)
			}
			tc.check(t, batch)
		})
	}
}
