package main

import (
	"fmt"
	"math/rand"
	"time"

	soundboost "soundboost/internal/core"
	"soundboost/internal/dataset"
	"soundboost/internal/obs"
	"soundboost/internal/parallel"
)

// Offline workloads: one goroutine, one worker, closed loop over the
// paper's evaluation corpus in seed-shuffled passes. Passes always run
// to the end, so every pass analyses the same flights and the sample
// mix never depends on how fast a commit is.

// analyzeOutcome is one timed Analyze call.
type analyzeOutcome struct {
	flight    int
	ms        float64
	escalated bool
}

func runOffline(rc *runConfig, precision soundboost.Precision) (*measurement, error) {
	m := newMeasurement()
	var an64 *soundboost.Analyzer
	err := m.timeSetups(func() (func(), error) {
		a, err := buildAnalyzer(rc.corpus)
		an64 = a
		return func() {}, err
	})
	if err != nil {
		return nil, err
	}
	rc.corpus.releaseSetup()
	flights, err := rc.corpus.loadEval()
	if err != nil {
		return nil, err
	}
	parallel.SetDefaultWorkers(1)
	an := an64
	if precision == soundboost.Float32 {
		if an, err = an64.WithPrecision(soundboost.Float32); err != nil {
			return nil, err
		}
	}

	// The float64 reference doubles as the float64 warm-up pass.
	ref := make([]soundboost.Report, len(flights))
	for i, f := range flights {
		if ref[i], err = an64.Analyze(f); err != nil {
			return nil, fmt.Errorf("bench: reference %s: %w", f.Name, err)
		}
	}
	check := func(i int, rep soundboost.Report, err error) {
		m.attempted++
		if err != nil || !sameVerdict(rep, ref[i], precision) {
			m.failed++
			m.notef("verdict mismatch on %s: got %+v (err %v), want %+v", flights[i].Name, rep, err, ref[i])
		}
	}
	if precision == soundboost.Float32 {
		for i, f := range flights {
			rep, err := an.Analyze(f)
			check(i, rep, err)
		}
	}
	rc.fingerprintf("offline %s %d flights", precision, len(flights))

	rng := rand.New(rand.NewSource(rc.seed))
	// run measures whole passes in seed-shuffled order until d has
	// elapsed and minOuts calls were timed, recording an outside span
	// around each Analyze when traced.
	run := func(d time.Duration, minOuts int, traced bool) (outs []analyzeOutcome, flightSecs, rate float64) {
		start := time.Now()
		for time.Since(start) < d || len(outs) < minOuts {
			for _, i := range rng.Perm(len(flights)) {
				f := flights[i]
				t := time.Now()
				rep, err := an.Analyze(f)
				end := time.Now()
				if traced {
					rc.rec.add(span{Name: "core.Analyze", Session: f.Name, Start: rc.rec.us(t), End: rc.rec.us(end)})
				}
				check(i, rep, err)
				outs = append(outs, analyzeOutcome{flight: i, ms: ms(end.Sub(t)), escalated: rep != soundboost.FastBenignReport(f.Name, an)})
			}
			flightSecs += corpusSeconds(flights)
		}
		return outs, flightSecs, flightSecs / time.Since(start).Seconds()
	}

	// latency_p80_ms needs minBeyond samples beyond it.
	headline, minOuts := rc.seconds, 5*minBeyond
	if rc.trace {
		headline, minOuts = rc.seconds/2, 0
	}
	obs.Disable()
	mem := startMemSampler()
	outs, flightSecs, rate := run(headline, minOuts, false)
	mem.stop(m, flightSecs)
	var all []float64
	for _, o := range outs {
		all = append(all, o.ms)
	}

	if !rc.trace {
		m.e2e("flight_s_per_s", rate, "flight-s/s")
		m.quantile("latency_p80_ms", all, 0.8)
		return m, nil
	}
	m.layer("latency_p50_ms", quantileOr0(all, 0.5), "ms")

	sig := an.Model.Config().Signature
	starts := make([]int, len(flights))
	for i, f := range flights {
		if starts[i], err = windowStarts(f, sig); err != nil {
			return nil, err
		}
	}
	rc.rec.t0 = time.Now()
	before := obs.Default.Snapshot()
	obs.Enable()
	outs, flightSecs, tracedRate := run(rc.seconds-headline, 0, true)
	obs.Disable()
	after := obs.Default.Snapshot()
	var escStarts float64
	var esc []float64
	for _, o := range outs {
		if o.escalated {
			escStarts += float64(starts[o.flight])
			esc = append(esc, o.ms)
		}
	}
	m.layer("verdict_p50_ms", median(esc), "ms")
	m.spans = rc.rec.snapshot()
	offlineLayers(m, m.spans, escStarts, flightSecs, rate, tracedRate, before, after)
	return m, nil
}

// sameVerdict is the run's correctness check. Float64 must reproduce
// the reference report exactly; float32 is held to the zero-flip
// contract — same cause, same per-sensor verdicts, same KF variant.
func sameVerdict(got, want soundboost.Report, precision soundboost.Precision) bool {
	if precision != soundboost.Float32 {
		return got == want
	}
	return got.Cause == want.Cause && got.IMU.Attacked == want.IMU.Attacked &&
		got.GPS.Attacked == want.GPS.Attacked && got.GPSMode == want.GPSMode
}

func corpusSeconds(flights []*dataset.Flight) float64 {
	var s float64
	for _, f := range flights {
		s += f.Duration()
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
