package soundboost

import (
	"math"
	"testing"
)

func TestParsePrecision(t *testing.T) {
	cases := []struct {
		in      string
		want    Precision
		wantErr bool
	}{
		{"", Float64, false},
		{"float64", Float64, false},
		{"float32", Float32, false},
		{"float16", "", true},
		{"FLOAT32", "", true},
		{"f32", "", true},
	}
	for _, tc := range cases {
		got, err := ParsePrecision(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("ParsePrecision(%q) err = %v, wantErr %v", tc.in, err, tc.wantErr)
			continue
		}
		if !tc.wantErr && got != tc.want {
			t.Errorf("ParsePrecision(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestPrecisionToleranceAndString(t *testing.T) {
	if got := Float64.Tolerance(); got != 0 {
		t.Errorf("Float64 tolerance = %g, want 0", got)
	}
	if got := Precision("").Tolerance(); got != 0 {
		t.Errorf("zero-value tolerance = %g, want 0", got)
	}
	if got := Float32.Tolerance(); got != Float32Tolerance {
		t.Errorf("Float32 tolerance = %g, want %g", got, Float32Tolerance)
	}
	if got := Precision("").String(); got != "float64" {
		t.Errorf("zero-value String() = %q, want float64", got)
	}
}

// TestAcousticWindowFloat32Tolerance is the per-feature half of the
// tolerance contract: over every signature window of a real generated
// flight, the float32 kernel must track the float64 kernel within
// Float32Tolerance on every normalized (log-domain) feature.
func TestAcousticWindowFloat32Tolerance(t *testing.T) {
	fx := getFixture(t)
	cfg := fx.model.Config().Signature
	cfg32 := cfg
	cfg32.Precision = Float32

	windows := 0
	var maxErr float64
	for _, f := range append(fx.calib, fx.heldout...) {
		e64, err := NewExtractor(f.Audio, cfg)
		if err != nil {
			t.Fatalf("%s: float64 extractor: %v", f.Name, err)
		}
		e32, err := NewExtractor(f.Audio, cfg32)
		if err != nil {
			t.Fatalf("%s: float32 extractor: %v", f.Name, err)
		}
		for _, t0 := range e64.WindowStarts(cfg.WindowSeconds) {
			f64 := e64.Features(t0, cfg.WindowSeconds)
			f32 := e32.Features(t0, cfg.WindowSeconds)
			if (f64 == nil) != (f32 == nil) {
				t.Fatalf("%s t0=%g: window validity disagrees across precisions", f.Name, t0)
			}
			if f64 == nil {
				continue
			}
			if len(f32) != len(f64) {
				t.Fatalf("%s t0=%g: dim %d vs %d", f.Name, t0, len(f32), len(f64))
			}
			windows++
			for i := range f64 {
				d := math.Abs(f32[i] - f64[i])
				if d > maxErr {
					maxErr = d
				}
				if d > Float32Tolerance {
					t.Errorf("%s t0=%g feature %d: |%g - %g| = %g exceeds Float32Tolerance %g",
						f.Name, t0, i, f32[i], f64[i], d, Float32Tolerance)
				}
			}
		}
	}
	if windows == 0 {
		t.Fatal("no signature windows compared — the tolerance check is vacuous")
	}
	t.Logf("compared %d windows, max per-feature error %.3g (bound %g)", windows, maxErr, Float32Tolerance)
}

// TestAnalyzerWithPrecision pins the threshold-preserving clone
// semantics: re-precisioning an analyzer must keep every calibrated
// threshold bit-identical (only the hot-path arithmetic switches),
// Float64 must be a no-op returning the receiver, and the clone must
// not mutate the original.
func TestAnalyzerWithPrecision(t *testing.T) {
	fx := getFixture(t)
	an, err := NewAnalyzer(fx.model, fx.calib)
	if err != nil {
		t.Fatal(err)
	}
	if got := an.Precision(); got != Float64 {
		t.Fatalf("fresh analyzer precision = %q, want %q", got, Float64)
	}
	if same, err := an.WithPrecision(Float64); err != nil || same != an {
		t.Errorf("WithPrecision(Float64) = (%p, %v), want the receiver %p", same, err, an)
	}
	if _, err := an.WithPrecision("float16"); err == nil {
		t.Error("unknown precision accepted")
	}

	an32, err := an.WithPrecision(Float32)
	if err != nil {
		t.Fatal(err)
	}
	if an32 == an {
		t.Fatal("WithPrecision(Float32) returned the receiver")
	}
	if got := an32.Precision(); got != Float32 {
		t.Errorf("clone precision = %q, want %q", got, Float32)
	}
	if got := an.Precision(); got != Float64 {
		t.Errorf("original mutated: precision now %q", got)
	}
	if an32.IMU.StatThreshold() != an.IMU.StatThreshold() ||
		an32.IMU.StdThreshold() != an.IMU.StdThreshold() {
		t.Errorf("IMU thresholds changed: (%g, %g) vs (%g, %g)",
			an32.IMU.StatThreshold(), an32.IMU.StdThreshold(),
			an.IMU.StatThreshold(), an.IMU.StdThreshold())
	}
	if an32.GPSAudioOnly.Threshold() != an.GPSAudioOnly.Threshold() ||
		an32.GPSAudioIMU.Threshold() != an.GPSAudioIMU.Threshold() {
		t.Error("GPS thresholds changed across re-precisioning")
	}

	// Calibrating on a float32 model fits thresholds under float32
	// features (self-consistent) and must stamp reports the same way.
	m32, err := fx.model.WithPrecision(Float32)
	if err != nil {
		t.Fatal(err)
	}
	anOpt, err := NewAnalyzer(m32, fx.calib)
	if err != nil {
		t.Fatal(err)
	}
	if got := anOpt.Precision(); got != Float32 {
		t.Errorf("float32-calibrated analyzer precision = %q, want %q", got, Float32)
	}

	r64, err := an.Analyze(fx.heldout[0])
	if err != nil {
		t.Fatal(err)
	}
	r32, err := an32.Analyze(fx.heldout[0])
	if err != nil {
		t.Fatal(err)
	}
	if r64.Precision != Float64 || r32.Precision != Float32 {
		t.Errorf("report precisions = (%q, %q), want (float64, float32)", r64.Precision, r32.Precision)
	}
	if r64.Cause != r32.Cause {
		t.Errorf("verdict flipped across precisions: %q vs %q", r64.Cause, r32.Cause)
	}
}
