package soundboost

import (
	"bytes"
	"strings"
	"testing"

	"soundboost/internal/attack"
	"soundboost/internal/dataset"
)

// TestAnalyzerWithPrecision pins the compatibility shim: every accepted
// precision returns the receiver itself, and an unknown one is an
// error.
func TestAnalyzerWithPrecision(t *testing.T) {
	fx := getFixture(t)
	an, err := NewAnalyzer(fx.model, fx.calib)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Precision{"", Float64, Float32} {
		if same, err := an.WithPrecision(p); err != nil || same != an {
			t.Errorf("WithPrecision(%q) = (%p, %v), want the receiver %p", p, same, err, an)
		}
	}
	for _, p := range []Precision{"float16", "FLOAT32", "f32"} {
		if _, err := an.WithPrecision(p); err == nil {
			t.Errorf("WithPrecision(%q) accepted", p)
		}
	}
}

// TestLoadAnalyzerIgnoresFloat32Precision pins how analyzer files
// written with "Precision":"float32" in their signature config load:
// the field is ignored, the file runs float64 with its thresholds as
// saved, and its reports equal the float64 analyzer's. A float64 file
// still re-serializes byte-identically.
func TestLoadAnalyzerIgnoresFloat32Precision(t *testing.T) {
	an, _ := trainedScreenedAnalyzer(t)
	var saved bytes.Buffer
	if err := an.Save(&saved); err != nil {
		t.Fatal(err)
	}
	reloaded, err := LoadAnalyzer(bytes.NewReader(saved.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var resaved bytes.Buffer
	if err := reloaded.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), saved.Bytes()) {
		t.Fatal("a float64 analyzer does not re-serialize byte-identically")
	}

	const field = `"AttitudeFeatures":true`
	if n := strings.Count(saved.String(), field); n != 1 {
		t.Fatalf("saved analyzer holds %d copies of %s, want 1", n, field)
	}
	old := strings.Replace(saved.String(), field, field+`,"Precision":"float32"`, 1)
	loaded, err := LoadAnalyzer(strings.NewReader(old))
	if err != nil {
		t.Fatalf("load analyzer saved with float32 precision: %v", err)
	}
	if loaded.IMU.StatThreshold() != an.IMU.StatThreshold() ||
		loaded.GPSAudioIMU.Threshold() != an.GPSAudioIMU.Threshold() {
		t.Error("thresholds changed on load")
	}
	fx := getFixture(t)
	flights := append([]*dataset.Flight(nil), fx.heldout...)
	flights = append(flights, imuAttackFlight(t, attack.IMUAccelDoS, 2100), gpsAttackFlight(t, 2200))
	for _, f := range flights {
		want, err := an.Analyze(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Analyze(f)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: loaded report %+v, want %+v", f.Name, got, want)
		}
	}
}
