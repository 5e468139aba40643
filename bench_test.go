// Package bench is the benchmark harness of the SoundBoost reproduction:
// one benchmark per paper table/figure (regenerating its data at the quick
// experiment scale) plus micro-benchmarks for the pipeline's hot paths.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The full paper-scale tables are produced by cmd/benchtab instead, where
// wall-clock is expected to be minutes:
//
//	go run ./cmd/benchtab -scale paper -run all
package bench

import (
	"runtime"
	"sync"
	"testing"

	soundboost "soundboost/internal/core"
	"soundboost/internal/dataset"
	"soundboost/internal/experiments"
	"soundboost/internal/mathx"
	"soundboost/internal/parallel"
	"soundboost/internal/sim"
)

var (
	labOnce sync.Once
	lab     *experiments.Lab
	labErr  error
)

// benchLab builds the shared quick-scale lab once.
func benchLab(b *testing.B) *experiments.Lab {
	b.Helper()
	labOnce.Do(func() {
		lab, labErr = experiments.NewLab(experiments.QuickScale())
	})
	if labErr != nil {
		b.Fatalf("lab: %v", labErr)
	}
	return lab
}

// BenchmarkFig2SpectrumGroups regenerates the Fig. 2 spectrum and
// amplitude-vs-acceleration correlation data.
func BenchmarkFig2SpectrumGroups(b *testing.B) {
	scale := experiments.QuickScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig2(scale)
		if err != nil {
			b.Fatal(err)
		}
		if r.GroupPeaks["aero"] <= r.GroupPeaks["gap"] {
			b.Fatal("aero group not dominant")
		}
	}
}

// BenchmarkFig3Augmentation regenerates the time-shift augmentation demo.
func BenchmarkFig3Augmentation(b *testing.B) {
	scale := experiments.QuickScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig3(scale); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Augmentation runs the full Tab. I augmentation sweep.
func BenchmarkTable1Augmentation(b *testing.B) {
	scale := experiments.QuickScale()
	scale.Epochs = 25
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable1(scale, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) != 6 {
			b.Fatal("incomplete sweep")
		}
	}
}

// BenchmarkFreqImportance runs the §IV-A counterfactual band-removal
// analysis.
func BenchmarkFreqImportance(b *testing.B) {
	l := benchLab(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.RunFrequencyImportance(l)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("incomplete analysis")
		}
	}
}

// BenchmarkIMUAttackDetection runs the §IV-B IMU biasing experiment.
func BenchmarkIMUAttackDetection(b *testing.B) {
	l := benchLab(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunIMUExperiment(l, nil)
		if err != nil {
			b.Fatal(err)
		}
		if r.AttackFlights == 0 {
			b.Fatal("no attack flights")
		}
	}
}

// BenchmarkFig6Residuals regenerates the residual-distribution comparison.
func BenchmarkFig6Residuals(b *testing.B) {
	l := benchLab(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig6(l); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2GPSDetection runs the Tab. II detector comparison.
func BenchmarkTable2GPSDetection(b *testing.B) {
	l := benchLab(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable2(l, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) != 7 {
			b.Fatal("incomplete table")
		}
	}
}

// BenchmarkFig7Trace regenerates the Fig. 7 estimation trace.
func BenchmarkFig7Trace(b *testing.B) {
	l := benchLab(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig7(l); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Adversarial runs the Tab. III phase-synchronised sound
// attack grid.
func BenchmarkTable3Adversarial(b *testing.B) {
	l := benchLab(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable3(l, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Cells) != 32 {
			b.Fatal("incomplete grid")
		}
	}
}

// BenchmarkEndToEndRCA runs the full two-stage pipeline over a mixed set.
func BenchmarkEndToEndRCA(b *testing.B) {
	l := benchLab(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunEndToEndRCA(l, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks for the pipeline's hot paths.

func quickFlight(b *testing.B) *dataset.Flight {
	b.Helper()
	f, err := dataset.Generate(dataset.FastGenConfig(sim.HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: 10}, 7))
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkFlightSimulation measures full flight generation (dynamics +
// sensors + acoustics) per 10-second flight.
func BenchmarkFlightSimulation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		quickFlight(b)
	}
}

// BenchmarkSignatureExtraction measures per-flight signature generation.
func BenchmarkSignatureExtraction(b *testing.B) {
	l := benchLab(b)
	f := quickFlight(b)
	sig := l.Model.Config().Signature
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex, err := soundboost.NewExtractor(f.Audio, sig)
		if err != nil {
			b.Fatal(err)
		}
		for _, t0 := range ex.WindowStarts(sig.WindowSeconds) {
			ex.Features(t0, sig.WindowSeconds)
		}
	}
}

// benchBuildWindows measures the per-flight window-building fan-out under
// a fixed worker count (1 = the serial reference path).
func benchBuildWindows(b *testing.B, workers int) {
	l := benchLab(b)
	f := quickFlight(b)
	sig := l.Model.Config().Signature
	prev := parallel.DefaultWorkers()
	parallel.SetDefaultWorkers(workers)
	defer parallel.SetDefaultWorkers(prev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		windows, err := soundboost.BuildWindows(f, sig, 0, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(windows) == 0 {
			b.Fatal("no windows")
		}
	}
}

// BenchmarkBuildWindowsSerial is the workers=1 reference.
func BenchmarkBuildWindowsSerial(b *testing.B) { benchBuildWindows(b, 1) }

// BenchmarkBuildWindowsParallel fans windows out over all cores; on a
// multi-core host the speedup over the serial variant tracks the core
// count (window extraction dominates the pipeline).
func BenchmarkBuildWindowsParallel(b *testing.B) { benchBuildWindows(b, runtime.GOMAXPROCS(0)) }

// BenchmarkModelPredict measures one signature -> acceleration inference.
func BenchmarkModelPredict(b *testing.B) {
	l := benchLab(b)
	f := quickFlight(b)
	windows, err := soundboost.BuildWindows(f, l.Model.Config().Signature, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	if len(windows) == 0 {
		b.Fatal("no windows")
	}
	feat := windows[0].Features
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Model.Predict(feat)
	}
}

// BenchmarkIMUDetectFlight measures the stage-1 RCA cost per flight.
func BenchmarkIMUDetectFlight(b *testing.B) {
	l := benchLab(b)
	f := quickFlight(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.IMUDetector.Detect(f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGPSDetectFlight measures the stage-2 RCA cost per flight.
func BenchmarkGPSDetectFlight(b *testing.B) {
	l := benchLab(b)
	f := quickFlight(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.GPSAudioIMU.Detect(f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKFAblation compares the GPS-stage design-choice variants
// (alignment, bias tracking, adaptive trust) called out in DESIGN.md.
func BenchmarkKFAblation(b *testing.B) {
	l := benchLab(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunKFAblation(l, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) != 5 {
			b.Fatal("incomplete ablation")
		}
	}
}
