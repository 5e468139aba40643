package stream

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"soundboost/internal/attack"
	soundboost "soundboost/internal/core"
	"soundboost/internal/dataset"
	"soundboost/internal/leakcheck"
	"soundboost/internal/mathx"
	"soundboost/internal/mavbus"
	"soundboost/internal/sim"
	"soundboost/internal/triage"
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

func getFixture(t testing.TB) *fixture {
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

func imuAttackFlight(t testing.TB, seed int64) *dataset.Flight {
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

func gpsAttackFlight(t testing.TB, seed int64) *dataset.Flight {
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

// runStream replays a flight through a bus into a fresh engine with
// default options (as the benchmark's engine row does) plus opts, and
// returns the streaming report.
func runStream(t *testing.T, an *soundboost.Analyzer, f *dataset.Flight, rcfg ReplayConfig) (soundboost.Report, *Engine) {
	t.Helper()
	bus := mavbus.NewBus(0)
	eng, err := New(an, f.Audio.SampleRate, WithFlightName(f.Name))
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

// ingestFlight is the reference for the bus-driven path: the flight's
// Events ingested directly, one Advance per message, then Finish.
func ingestFlight(t *testing.T, an *soundboost.Analyzer, f *dataset.Flight) soundboost.Report {
	t.Helper()
	report, err := ingestBatched(t, an, f, 1)
	if err != nil {
		t.Fatal(err)
	}
	return report
}

// TestUnpacedRunLossless: an unpaced replay, its producer far ahead of
// the engine, must lose nothing through the bus; the report equals the
// directly ingested one. On the dash flight, lost telemetry flips the
// GPS verdict, so a drop shows in the cause as well.
func TestUnpacedRunLossless(t *testing.T) {
	fx := getFixture(t)
	f := fx.calib[1]
	got, _ := runStream(t, fx.analyzer, f, ReplayConfig{})
	if want := ingestFlight(t, fx.analyzer, f); !reflect.DeepEqual(got, want) {
		t.Errorf("unpaced Run report\n got %+v\nwant %+v", got, want)
	}
}

// TestRunCancelReleasesReplay cancels Run while Replay is blocked on a
// full bus. Run must close the bus, so Replay returns and no goroutine
// is left behind.
func TestRunCancelReleasesReplay(t *testing.T) {
	fx := getFixture(t)
	f := fx.calib[0]
	leakcheck.Check(t)
	bus := mavbus.NewBus(0)
	eng, err := New(fx.analyzer, f.Audio.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Attach(bus); err != nil {
		t.Fatal(err)
	}
	replayErr := make(chan error, 1)
	go func() { replayErr <- Replay(context.Background(), bus, f, ReplayConfig{}) }()
	for blocked, deadline := false, time.Now().Add(10*time.Second); !blocked; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("Replay never blocked on the full bus")
		}
		for _, g := range leakcheck.Snapshot() {
			blocked = blocked || strings.Contains(g, "sync.(*Cond).Wait") && strings.Contains(g, "stream.Replay")
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Run = %v, want context.Canceled", err)
	}
	select {
	case err := <-replayErr:
		// nil only if Run drained the whole flight before the close.
		if err != nil && !errors.Is(err, mavbus.ErrClosed) {
			t.Errorf("Replay = %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Replay still blocked after Run was cancelled")
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

// TestStreamAudioDropoutSkipsWindows drops whole audio frames: the
// affected windows must be skipped (not synthesized from silence) and
// the verdict must stay benign.
func TestStreamAudioDropoutSkipsWindows(t *testing.T) {
	fx := getFixture(t)
	rcfg := ReplayConfig{Speed: 0, AudioDropRate: 0.05, Seed: 7}
	report, eng := runStream(t, fx.analyzer, fx.calib[0], rcfg)
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
	eng, err := New(fx.analyzer, 4000)
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

// withRows returns a copy of f whose telemetry rows at or after time
// from and before time to are edited (audio untouched).
func withRows(f *dataset.Flight, name string, from, to float64, edit func(s *dataset.TelemetrySample)) *dataset.Flight {
	g := *f
	g.Name = name
	g.Telemetry = slices.Clone(f.Telemetry)
	for i := range g.Telemetry {
		if s := &g.Telemetry[i]; s.Time >= from && s.Time < to {
			edit(s)
		}
	}
	return &g
}

// withRow edits the first telemetry row at or after time at.
func withRow(f *dataset.Flight, name string, at float64, edit func(s *dataset.TelemetrySample)) *dataset.Flight {
	i := sort.Search(len(f.Telemetry), func(i int) bool { return f.Telemetry[i].Time >= at })
	return withRows(f, name, f.Telemetry[i].Time, math.Nextafter(f.Telemetry[i].Time, math.Inf(1)), edit)
}

// TestBatchStreamEquivalenceDegraded extends the equivalence contract to
// flights whose telemetry is degraded in the ways the batch and
// streaming paths historically disagreed on: a telemetry hole long
// enough to leave whole windows without rows (the GPS stage restarts
// its segment there), sparse early telemetry that leaves the first KS
// periods under MinResiduals (the attack spread must pool the right
// windows), and one non-finite row, which both paths drop (the GPS
// stage seeds from the first finite fix). A GPS velocity so large that
// the velocity error overflows must raise the alarm on both, and the
// text report must say so. A benign hover with no finite GPS velocity
// at all must read clean on both, at the calibrated threshold. The
// batch report must equal the clean-replay stream report.
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
	// 1e200 m/s across the drift: valid /v1 JSON, and an overflowing
	// velocity error, which the running mean skips.
	overflow := withRows(gpsAttackFlight(t, 4200), "gps-drift-overflow", 6, 18, func(s *dataset.TelemetrySample) {
		s.GPSVel.X = 1e200
	})
	nan := math.NaN()
	noGPS := withRows(fx.calib[0], "hover-nan-gps-all", math.Inf(-1), math.Inf(1), func(s *dataset.TelemetrySample) {
		s.GPSVel.X = nan
	})
	type testCase struct {
		f     *dataset.Flight
		check func(t *testing.T, r soundboost.Report) // nil: equality only
	}
	cases := []testCase{
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
		{overflow, func(t *testing.T, r soundboost.Report) {
			if !r.GPS.Attacked || r.GPS.DetectionTime < 6 {
				t.Errorf("overflowing GPS velocity did not alarm in the attack window: %+v", r.GPS)
			}
			if _, err := json.Marshal(r); err != nil {
				t.Errorf("report does not encode: %v", err)
			}
			want := fmt.Sprintf("velocity error not finite at t=%.1fs", r.GPS.DetectionTime)
			if text := r.String(); r.GPS.PeakError > r.GPS.Threshold || !strings.Contains(text, want) || strings.Contains(text, "peak error") {
				t.Errorf("text report does not say a non-finite error raised the alarm (want %q):\n%s", want, text)
			}
		}},
		{noGPS, func(t *testing.T, r soundboost.Report) {
			if r.Cause != soundboost.CauseNone || r.GPS.Attacked || r.GPS.Threshold != fx.analyzer.GPSAudioIMU.Threshold() {
				t.Errorf("benign hover without GPS velocity: cause %q, GPS %+v, want none and clean at threshold %v",
					r.Cause, r.GPS, fx.analyzer.GPSAudioIMU.Threshold())
			}
		}},
	}
	for _, base := range []*dataset.Flight{fx.calib[0], imuAttackFlight(t, 4100), gpsAttackFlight(t, 4200)} {
		for _, c := range []struct {
			name string
			at   float64
			edit func(s *dataset.TelemetrySample)
		}{
			{"nan-accel", 2, func(s *dataset.TelemetrySample) { s.IMUAccel.Z = nan }},
			{"nan-att", 2, func(s *dataset.TelemetrySample) { s.EstAtt.X = nan }},
			{"nan-gps-vel", 7, func(s *dataset.TelemetrySample) { s.GPSVel.Y = nan }},
			{"nan-first-fix", 0, func(s *dataset.TelemetrySample) { s.GPSVel.X = nan }},
		} {
			cases = append(cases, testCase{f: withRow(base, base.Scenario.Kind+"-"+c.name, c.at, c.edit)})
		}
	}
	for _, tc := range cases {
		t.Run(tc.f.Name, func(t *testing.T) {
			batch, err := fx.analyzer.Analyze(tc.f)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := runStream(t, fx.analyzer, tc.f, ReplayConfig{Speed: 0})
			if got != batch {
				t.Errorf("stream report\n  %#v\nbatch report\n  %#v", got, batch)
			}
			if tc.check != nil {
				tc.check(t, batch)
			}
		})
	}
}

var (
	tieredOnce sync.Once
	tiered     *soundboost.Analyzer
	tieredErr  error
)

// tieredAnalyzer returns the fixture analyzer with a triage tier,
// trained and verified on the fixture's benign flights, six more benign
// hovers, and the IMU (seed 4100) and GPS (seed 4200) attack flights.
// It is a shallow clone: the shared fixture stays triage-free.
func tieredAnalyzer(t testing.TB) *soundboost.Analyzer {
	t.Helper()
	fx := getFixture(t)
	tieredOnce.Do(func() {
		corpus := append([]*dataset.Flight{imuAttackFlight(t, 4100), gpsAttackFlight(t, 4200)}, fx.calib...)
		for seed := int64(9000); seed < 9006; seed++ {
			f, err := dataset.Generate(dataset.FastGenConfig(sim.HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: 14}, seed))
			if err != nil {
				tieredErr = err
				return
			}
			corpus = append(corpus, f)
		}
		tier, err := soundboost.TrainTriage(corpus, fx.analyzer.Model.Config().Signature, triage.Config{})
		if err != nil {
			tieredErr = err
			return
		}
		an := *fx.analyzer
		an.Triage = tier
		if _, _, err := an.VerifyTriage(corpus); err != nil {
			tieredErr = err
			return
		}
		tiered = &an
	})
	if tiered == nil {
		t.Fatalf("tiered analyzer: %v", tieredErr)
	}
	return tiered
}

// TestFinalStatusMatchesReport pins the status an engine shows after
// Finish, which the server journals and live prints: its verdict fields
// must agree with the returned report on a fast-pathed benign flight,
// an IMU attack and a GPS attack.
func TestFinalStatusMatchesReport(t *testing.T) {
	fx := getFixture(t)
	an := tieredAnalyzer(t)
	benign := fx.calib[0]
	imu := imuAttackFlight(t, 4100)
	gps := gpsAttackFlight(t, 4200)

	for _, tc := range []struct {
		name     string
		f        *dataset.Flight
		fastpath bool
		imu, gps bool
	}{
		{"fastpath-benign", benign, true, false, false},
		{"imu-attack", imu, false, true, false},
		{"gps-attack", gps, false, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := New(an, tc.f.Audio.SampleRate, WithFlightName(tc.f.Name))
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range Events(CutFlight(tc.f, 0.05)) {
				if err := eng.Ingest(m); err != nil {
					t.Fatal(err)
				}
			}
			eng.Advance()
			r, err := eng.Finish()
			if err != nil {
				t.Fatal(err)
			}
			// The fast report is the only one with no IMU period tested.
			if fast := r.IMU.WindowsTested == 0; fast != tc.fastpath || r.IMU.Attacked != tc.imu || r.GPS.Attacked != tc.gps {
				t.Fatalf("fixture flight not as intended: fast path %v, report %+v", fast, r)
			}
			st := eng.Status()
			if st.IMUAttacked != r.IMU.Attacked || st.GPSAttacked != r.GPS.Attacked || st.ActiveMode != r.GPSMode ||
				st.PeakError != r.GPS.PeakError || st.Threshold != r.GPS.Threshold {
				t.Errorf("final status %+v disagrees with report %+v", st, r)
			}
		})
	}
}
