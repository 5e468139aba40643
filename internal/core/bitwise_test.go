package soundboost

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"soundboost/internal/attack"
	"soundboost/internal/dataset"
)

var updateBitwise = flag.Bool("update", false, "rewrite testdata/bitwise.golden from the current kernels")

const bitwiseGolden = "testdata/bitwise.golden"

// bitwiseWindows is how many leading signature windows per flight the
// golden file pins.
const bitwiseWindows = 5

// TestBitwiseGolden pins the exact output of the RCA pipeline — every
// Report field, the leading signature vectors, the triage distances and
// the calibrated thresholds — for a benign, an IMU-attacked and a
// GPS-attacked flight. Floats print with %v, the shortest text that
// round-trips, so any change to a kernel's arithmetic, however small,
// changes the file. Kernel rewrites must
// leave it unchanged; regenerate it (go test -run TestBitwiseGolden
// -update) only for an intended change of results.
func TestBitwiseGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden floats are pinned on amd64; %s may fuse multiply-adds and round differently", runtime.GOARCH)
	}
	an, _ := trainedScreenedAnalyzer(t)
	fx := getFixture(t)
	flights := []struct {
		label string
		f     *dataset.Flight
	}{
		{"benign", fx.heldout[0]},
		{"imu-attack", imuAttackFlight(t, attack.IMUAccelDoS, 2100)},
		{"gps-attack", gpsAttackFlight(t, 2200)},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "triage k=%v prototypes=%v radius=%v votes=%v\n",
		an.Triage.K(), an.Triage.Prototypes(), an.Triage.BenignRadius(), an.Triage.VoteLimit())
	fmt.Fprintf(&b, "float64 imu stat=%v std=%v gps audio-only=%v audio+imu=%v\n",
		an.IMU.StatThreshold(), an.IMU.StdThreshold(),
		an.GPSAudioOnly.Threshold(), an.GPSAudioIMU.Threshold())
	sig := an.Model.Config().Signature
	for _, fl := range flights {
		prefix := fl.label + " float64"
		for _, tri := range []struct {
			label string
			an    *Analyzer
		}{{"triage", an}, {"full", an.WithoutTriage()}} {
			rep, err := tri.an.Analyze(fl.f)
			if err != nil {
				t.Fatalf("%s %s: %v", prefix, tri.label, err)
			}
			// plainReport drops Report's String method, so %+v prints
			// every field at full precision.
			type plainReport Report
			fmt.Fprintf(&b, "%s %s report %+v\n", prefix, tri.label, plainReport(rep))
		}
		ex, err := NewExtractor(fl.f.Audio, sig)
		if err != nil {
			t.Fatal(err)
		}
		for i, t0 := range ex.WindowStarts(sig.WindowSeconds)[:bitwiseWindows] {
			fmt.Fprintf(&b, "%s window %d signature %v\n", prefix, i, ex.Features(t0, sig.WindowSeconds))
		}
		var dists []float64
		err = forEachTriageWindow(fl.f, splitFlight(fl.f), sig, func(w triageWindow) bool {
			dists = append(dists, an.ScreenWindow(w.audio, fl.f.Audio.SampleRate, w.imu, w.gps).Distance)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s triage distances %v\n", prefix, dists)
	}

	got := []byte(b.String())
	if *updateBitwise {
		if err := os.MkdirAll(filepath.Dir(bitwiseGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(bitwiseGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(bitwiseGolden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("output differs from %s at line %d:\n got: %.400s\nwant: %.400s", bitwiseGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output differs from %s in length: %d lines, want %d", bitwiseGolden, len(gl), len(wl))
	}
}
