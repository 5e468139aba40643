package triage

import (
	"encoding/json"
	"math"
	"math/rand"
	"sync"
	"testing"

	"soundboost/internal/dsp"
	"soundboost/internal/mathx"
)

func testFeatureConfig() FeatureConfig {
	return FeatureConfig{Bands: []dsp.Band{
		{Name: "mech", Low: 80, High: 400},
		{Name: "blade", Low: 400, High: 1200},
	}}
}

// synthWindow builds a deterministic tonal window with additive noise.
func synthWindow(rng *rand.Rand, rate float64, n int, toneHz, toneAmp, noiseAmp float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		t := float64(i) / rate
		out[i] = toneAmp*math.Sin(2*math.Pi*toneHz*t) + noiseAmp*(2*rng.Float64()-1)
	}
	return out
}

func benignTelemetry(rng *rand.Rand, n int) ([]IMUPoint, []GPSPoint) {
	imu := make([]IMUPoint, n)
	gps := make([]GPSPoint, n)
	for i := range imu {
		imu[i] = IMUPoint{
			Accel: mathx.Vec3{X: 0.1 * rng.NormFloat64(), Y: 0.1 * rng.NormFloat64(), Z: -9.81 + 0.1*rng.NormFloat64()},
			Gyro:  mathx.Vec3{X: 0.02 * rng.NormFloat64(), Y: 0.02 * rng.NormFloat64(), Z: 0.02 * rng.NormFloat64()},
		}
		t := float64(i) * 0.005
		gps[i] = GPSPoint{Time: t, Pos: mathx.Vec3{X: 2 * t, Y: t}, Vel: mathx.Vec3{X: 2, Y: 1}}
	}
	return imu, gps
}

func TestFeatureVectorShapeAndSanity(t *testing.T) {
	cfg := testFeatureConfig()
	rng := rand.New(rand.NewSource(1))
	audio := synthWindow(rng, 4000, 2000, 220, 0.5, 0.01)
	imu, gps := benignTelemetry(rng, 100)

	f := cfg.Features(audio, 4000, imu, gps)
	if f == nil {
		t.Fatal("Features returned nil for a clean window")
	}
	if len(f) != cfg.Dim() {
		t.Fatalf("got %d features, want %d", len(f), cfg.Dim())
	}
	// The 220 Hz tone sits in the first band: its energy must dominate.
	if f[0] <= f[1] {
		t.Errorf("mech band energy %g not above blade band %g for a 220 Hz tone", f[0], f[1])
	}
	// Tonal signal in-band: SNR must be solidly positive.
	if snr := f[cfg.SNRIndex()]; snr < 3 {
		t.Errorf("SNR %g dB too low for a near-pure tone", snr)
	}
	// Benign straight-line motion: consistency features near zero.
	if f[cfg.Dim()-1] > 0.1 {
		t.Errorf("pos/vel gap %g for consistent motion", f[cfg.Dim()-1])
	}
	if f[cfg.Dim()-2] != 0 {
		t.Errorf("velocity jump %g for constant velocity", f[cfg.Dim()-2])
	}
}

// TestFeaturesConcurrentMatchesSerial runs the kernel concurrently over
// the shared plan, window and arena caches (run under -race) and
// requires every result to match the serial run bit for bit.
func TestFeaturesConcurrentMatchesSerial(t *testing.T) {
	cfg := testFeatureConfig()
	rng := rand.New(rand.NewSource(13))
	audio := synthWindow(rng, 4000, 2000, 220, 0.5, 0.05)
	imu, gps := benignTelemetry(rng, 100)
	want := cfg.Features(audio, 4000, imu, gps)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := cfg.Features(audio, 4000, imu, gps)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("feature %d: concurrent %g, serial %g", i, got[i], want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestFeaturesRejectUnusableWindows(t *testing.T) {
	cfg := testFeatureConfig()
	rng := rand.New(rand.NewSource(2))
	audio := synthWindow(rng, 4000, 2000, 220, 0.5, 0.01)
	imu, gps := benignTelemetry(rng, 50)

	if cfg.Features(nil, 4000, imu, gps) != nil {
		t.Error("nil audio accepted")
	}
	if cfg.Features(audio, 4000, nil, gps) != nil {
		t.Error("empty IMU window accepted")
	}
	if cfg.Features(audio[:8], 4000, imu, gps) != nil {
		t.Error("8-sample window accepted")
	}
	if cfg.Features(audio, 0, imu, gps) != nil {
		t.Error("zero sample rate accepted")
	}
	bad := append([]float64(nil), audio...)
	bad[17] = math.NaN()
	if cfg.Features(bad, 4000, imu, gps) != nil {
		t.Error("NaN audio accepted")
	}
	if cfg.Features(make([]float64, 2000), 4000, imu, gps) != nil {
		t.Error("all-zero audio accepted (zero spectral power)")
	}
}

// trainTestModel builds a model from synthetic benign windows plus a
// cluster of anomalous windows with a GPS velocity-jump signature.
func trainTestModel(t *testing.T, withAnom bool) (*Model, []Sample, []Sample) {
	t.Helper()
	cfg := testFeatureConfig()
	rng := rand.New(rand.NewSource(7))
	var benign, anom []Sample
	for i := 0; i < 120; i++ {
		audio := synthWindow(rng, 4000, 2000, 200+20*rng.Float64(), 0.4+0.2*rng.Float64(), 0.02)
		imu, gps := benignTelemetry(rng, 100)
		f := cfg.Features(audio, 4000, imu, gps)
		if f == nil {
			t.Fatal("benign feature extraction failed")
		}
		benign = append(benign, Sample{Features: f})
	}
	for i := 0; i < 30; i++ {
		audio := synthWindow(rng, 4000, 2000, 200+20*rng.Float64(), 0.4+0.2*rng.Float64(), 0.02)
		imu, gps := benignTelemetry(rng, 100)
		// Spoof onset: discontinuous velocity step mid-window.
		for j := 50; j < len(gps); j++ {
			gps[j].Vel = gps[j].Vel.Add(mathx.Vec3{X: 4.5})
			gps[j].Pos = gps[j].Pos.Add(mathx.Vec3{X: 4.5 * (gps[j].Time - gps[50].Time)})
		}
		f := cfg.Features(audio, 4000, imu, gps)
		if f == nil {
			t.Fatal("anomalous feature extraction failed")
		}
		anom = append(anom, Sample{Features: f, Anomalous: true})
	}
	samples := append([]Sample{}, benign...)
	if withAnom {
		samples = append(samples, anom...)
	}
	m, err := Train(samples, Config{Features: cfg, MaxPrototypes: 64})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return m, benign, anom
}

func TestTrainAndClassify(t *testing.T) {
	m, benign, anom := trainTestModel(t, true)
	if m.K() < 3 {
		t.Fatalf("adaptive K=%d below minimum", m.K())
	}
	if m.Prototypes() > 64 {
		t.Fatalf("%d prototypes exceed cap", m.Prototypes())
	}

	screened := 0
	for _, s := range benign {
		if m.Classify(s.Features).Benign {
			screened++
		}
	}
	if frac := float64(screened) / float64(len(benign)); frac < 0.8 {
		t.Errorf("only %.0f%% of benign training windows screen benign", 100*frac)
	}
	// Safety direction: no anomalous window may screen benign.
	for i, s := range anom {
		if d := m.Classify(s.Features); d.Benign {
			t.Errorf("anomalous window %d screened benign (dist=%g votes=%d)", i, d.Distance, d.AnomVotes)
		}
	}
}

func TestOneClassTraining(t *testing.T) {
	m, benign, anom := trainTestModel(t, false)
	ok := 0
	for _, s := range benign {
		if m.Classify(s.Features).Benign {
			ok++
		}
	}
	if ok == 0 {
		t.Error("one-class model screens nothing benign")
	}
	// Even without anomalous exemplars, the velocity-jump feature pushes
	// spoofed windows off the benign manifold.
	for i, s := range anom {
		if m.Classify(s.Features).Benign {
			t.Errorf("one-class model screened anomalous window %d benign", i)
		}
	}
}

func TestClassifyEscalatesOnDoubt(t *testing.T) {
	m, benign, _ := trainTestModel(t, true)
	if d := m.Classify(nil); d.Benign {
		t.Error("nil features screened benign")
	}
	if d := m.Classify(make([]float64, 3)); d.Benign {
		t.Error("wrong-length features screened benign")
	}
	low := append([]float64(nil), benign[0].Features...)
	low[m.cfg.Features.SNRIndex()] = m.snrFloorDB - 1
	if d := m.Classify(low); d.Benign {
		t.Error("below-floor SNR screened benign")
	}
}

func TestTightenIsOneDirectional(t *testing.T) {
	m, benign, _ := trainTestModel(t, true)
	r0 := m.BenignRadius()
	m.Tighten(r0 * 2)
	if m.BenignRadius() != r0 {
		t.Fatal("Tighten widened the radius")
	}
	m.Tighten(0)
	if m.BenignRadius() != 0 {
		t.Fatal("Tighten did not lower the radius")
	}
	for _, s := range benign {
		if m.Classify(s.Features).Benign {
			t.Fatal("zero radius still screens windows benign")
		}
	}
}

func TestTrainErrors(t *testing.T) {
	cfg := testFeatureConfig()
	if _, err := Train(nil, Config{Features: cfg}); err == nil {
		t.Error("Train accepted empty corpus")
	}
	if _, err := Train([]Sample{{Features: []float64{1}, Anomalous: false}}, Config{Features: cfg}); err == nil {
		t.Error("Train accepted wrong-dimension sample")
	}
	if _, err := Train([]Sample{{Features: make([]float64, cfg.Dim()), Anomalous: true}}, Config{Features: cfg}); err == nil {
		t.Error("Train accepted corpus with no benign windows")
	}
}

func TestModelRoundTrip(t *testing.T) {
	m, benign, anom := trainTestModel(t, true)
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Model
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.K() != m.K() || back.Prototypes() != m.Prototypes() || back.BenignRadius() != m.BenignRadius() {
		t.Fatal("round trip changed model parameters")
	}
	// Decisions must be identical before and after the round trip.
	for _, s := range append(append([]Sample{}, benign...), anom...) {
		a, b := m.Classify(s.Features), back.Classify(s.Features)
		if a.Benign != b.Benign {
			t.Fatalf("round trip flipped a decision (%v vs %v)", a, b)
		}
	}
}

func TestModelDecodeStrict(t *testing.T) {
	m, _, _ := trainTestModel(t, true)
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var raw map[string]any
	if err := json.Unmarshal(blob, &raw); err != nil {
		t.Fatal(err)
	}

	cases := map[string]func(map[string]any){
		"unknown field":  func(r map[string]any) { r["surprise"] = 1 },
		"wrong version":  func(r map[string]any) { r["schema_version"] = "triage/v0" },
		"zero k":         func(r map[string]any) { r["k"] = 0 },
		"bad radius":     func(r map[string]any) { r["benign_radius"] = -1 },
		"label mismatch": func(r map[string]any) { r["labels"] = []int{} },
	}
	for name, mutate := range cases {
		var r map[string]any
		if err := json.Unmarshal(blob, &r); err != nil {
			t.Fatal(err)
		}
		mutate(r)
		doctored, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var back Model
		if err := json.Unmarshal(doctored, &back); err == nil {
			t.Errorf("%s: strict decode accepted doctored model", name)
		}
	}
}
