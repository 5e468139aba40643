package experiments

import (
	"fmt"
	"sort"
	"time"

	"soundboost/internal/attack"
	soundboost "soundboost/internal/core"
	"soundboost/internal/dataset"
	"soundboost/internal/triage"
)

// ThroughputResult reports batch RCA throughput over a clean-majority
// corpus, with and without the triage screening tier — the headline
// number behind the committed BENCH_*.json baselines and the CI
// bench-gate.
type ThroughputResult struct {
	// Flights is the corpus size; CleanFraction the benign share of it.
	Flights       int
	CleanFraction float64
	// BaselineFPS is flights/sec through the full two-stage pipeline.
	BaselineFPS float64
	// TriageFPS is flights/sec with the screening tier attached
	// (0 when the triage measurement was skipped).
	TriageFPS float64
	// Speedup is TriageFPS / BaselineFPS (0 when skipped).
	Speedup float64
	// FastpathRatio is the fraction of flights the tier short-circuited.
	FastpathRatio float64
	// BaselineP99FlightSeconds / P99FlightSeconds are the per-flight
	// p99 latencies of the two paths.
	BaselineP99FlightSeconds float64
	P99FlightSeconds         float64
	// Float32BaselineFPS / Float32TriageFPS repeat the two measurements
	// under the float32 fast path (threshold-preserving
	// Analyzer.WithPrecision clone, so verdicts are comparable).
	Float32BaselineFPS float64
	Float32TriageFPS   float64
	// Float32Speedup is Float32BaselineFPS / BaselineFPS — the precision
	// win on the full pipeline, independent of triage screening
	// (reported, not gated: the bench gate compares each precision's
	// flights/sec with the committed baseline's).
	Float32Speedup float64
	// Float32BaselineP99FlightSeconds / Float32P99FlightSeconds are the
	// per-flight p99 latencies of the float32 paths.
	Float32BaselineP99FlightSeconds float64
	Float32P99FlightSeconds         float64
}

// TriageAnalyzer trains the KNN screening tier on the lab's calibration
// flights plus one attack flight per family, attaches it to the lab
// analyzer, and verifies the zero verdict-flip guarantee over that
// corpus. The attack flights ride along in the returned corpus so
// callers can reuse them.
func TriageAnalyzer(lab *Lab) (*soundboost.Analyzer, []*dataset.Flight, error) {
	corpus := append([]*dataset.Flight(nil), lab.Calib...)
	attacks, err := labAttackFlights(lab)
	if err != nil {
		return nil, nil, err
	}
	corpus = append(corpus, attacks...)

	sigCfg := lab.Model.Config().Signature
	tier, err := soundboost.TrainTriage(corpus, sigCfg, triage.Config{})
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: train triage: %w", err)
	}
	an := lab.Analyzer()
	an.Triage = tier
	if _, _, err := an.VerifyTriage(corpus); err != nil {
		return nil, nil, fmt.Errorf("experiments: verify triage: %w", err)
	}
	return an, corpus, nil
}

// labAttackFlights generates one representative attack flight per
// family (IMU side-swing, IMU accel-DoS, GPS drift) at the lab's scale.
func labAttackFlights(lab *Lab) ([]*dataset.Flight, error) {
	var out []*dataset.Flight
	seen := map[attack.IMUBiasMode]bool{}
	for _, spec := range lab.Scale.IMUFlights() {
		if !spec.Attack || seen[spec.Mode] {
			continue
		}
		seen[spec.Mode] = true
		f, err := lab.Scale.GenerateIMUFlight(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	for _, spec := range lab.Scale.GPSPeriods() {
		if !spec.Attack {
			continue
		}
		f, err := lab.Scale.GeneratePeriod(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
		break
	}
	return out, nil
}

// RunThroughput measures flights/sec over a clean-majority corpus —
// the lab's benign calibration flights plus one attack flight, the
// traffic mix a fleet-monitoring deployment sees — first through the
// full pipeline, then with the triage tier screening. withTriage=false
// skips the second measurement (the -no-triage baseline run).
func RunThroughput(lab *Lab, withTriage bool, logf func(string, ...any)) (ThroughputResult, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	an, corpus, err := TriageAnalyzer(lab)
	if err != nil {
		return ThroughputResult{}, err
	}
	// Clean-majority traffic: every benign calibration flight plus the
	// first attack flight from the triage corpus.
	var flights []*dataset.Flight
	flights = append(flights, lab.Calib...)
	for _, f := range corpus[len(lab.Calib):] {
		flights = append(flights, f)
		break
	}
	res := ThroughputResult{Flights: len(flights)}
	res.CleanFraction = float64(len(lab.Calib)) / float64(len(flights))

	measure := func(a *soundboost.Analyzer) (fps, p99 float64, fast int, err error) {
		perFlight := make([]float64, 0, len(flights))
		start := time.Now()
		for _, f := range flights {
			t0 := time.Now()
			rep, err := a.Analyze(f)
			if err != nil {
				return 0, 0, 0, fmt.Errorf("experiments: throughput %s: %w", f.Name, err)
			}
			perFlight = append(perFlight, time.Since(t0).Seconds())
			if rep == soundboost.FastBenignReport(f.Name, a) {
				fast++
			}
		}
		total := time.Since(start).Seconds()
		sort.Float64s(perFlight)
		return float64(len(flights)) / total, perFlight[(len(perFlight)-1)*99/100], fast, nil
	}

	base := an.WithoutTriage()
	res.BaselineFPS, res.BaselineP99FlightSeconds, _, err = measure(base)
	if err != nil {
		return res, err
	}
	logf("baseline: %.2f flights/sec (p99 %.3fs/flight)", res.BaselineFPS, res.BaselineP99FlightSeconds)
	if withTriage {
		var fast int
		res.TriageFPS, res.P99FlightSeconds, fast, err = measure(an)
		if err != nil {
			return res, err
		}
		res.Speedup = res.TriageFPS / res.BaselineFPS
		res.FastpathRatio = float64(fast) / float64(len(flights))
		logf("triage: %.2f flights/sec (p99 %.3fs/flight, %.0f%% fast-path, %.2fx)",
			res.TriageFPS, res.P99FlightSeconds, 100*res.FastpathRatio, res.Speedup)
	}

	// Float32 fast path over the same corpus: a threshold-preserving
	// precision clone, so any verdict divergence would surface as an
	// Analyze error or a different fast-path count, not silent skew.
	an32, err := an.WithPrecision(soundboost.Float32)
	if err != nil {
		return res, err
	}
	res.Float32BaselineFPS, res.Float32BaselineP99FlightSeconds, _, err = measure(an32.WithoutTriage())
	if err != nil {
		return res, err
	}
	res.Float32Speedup = res.Float32BaselineFPS / res.BaselineFPS
	logf("float32 baseline: %.2f flights/sec (p99 %.3fs/flight, %.2fx vs float64)",
		res.Float32BaselineFPS, res.Float32BaselineP99FlightSeconds, res.Float32Speedup)
	if withTriage {
		res.Float32TriageFPS, res.Float32P99FlightSeconds, _, err = measure(an32)
		if err != nil {
			return res, err
		}
		logf("float32 triage: %.2f flights/sec (p99 %.3fs/flight)",
			res.Float32TriageFPS, res.Float32P99FlightSeconds)
	}
	return res, nil
}
