package soundboost

import (
	"sort"

	"soundboost/internal/dataset"
	"soundboost/internal/mathx"
	"soundboost/internal/parallel"
)

// windowObs is one signature window of a recorded flight as the RCA
// stages consume it: its index on the WindowStarts grid, its start time,
// the acoustic specific-force prediction (body frame) and the telemetry
// rows with Time in [t0, t0+window).
type windowObs struct {
	idx  int
	t0   float64
	pred mathx.Vec3
	tel  []dataset.TelemetrySample
}

// observeFlight is the one window pass over a recorded flight: a single
// Extractor (one low-pass filtering of the four channels), then one
// signature and one prediction per window, fanned out over the worker
// pool and returned in window order. Windows without features are left
// out; the gap in idx they leave is a hole to the GPS monitor, exactly as
// a skipped window is on the stream. Every detector stage, calibration
// and diagnostic reads a flight through this pass.
func observeFlight(model *AcousticModel, f *dataset.Flight) ([]windowObs, error) {
	ex, err := NewExtractor(f.Audio, model.cfg.Signature)
	if err != nil {
		return nil, err
	}
	win := model.cfg.Signature.WindowSeconds
	rows := telemetryRows(f)
	starts := ex.WindowStarts(win)
	perWindow := parallel.Map(0, len(starts), func(i int) *windowObs {
		t0 := starts[i]
		tel := rows(t0, t0+win)
		feat := windowFeatures(ex, tel, t0, win)
		if feat == nil {
			return nil
		}
		return &windowObs{idx: i, t0: t0, pred: model.Predict(feat), tel: tel}
	})
	out := make([]windowObs, 0, len(perWindow))
	for _, o := range perWindow {
		if o != nil {
			out = append(out, *o)
		}
	}
	return out, nil
}

// observeFlights runs observeFlight over each flight on the process's
// default worker pool.
func observeFlights(model *AcousticModel, flights []*dataset.Flight) ([][]windowObs, error) {
	return parallel.MapErr(0, len(flights), func(i int) ([]windowObs, error) {
		return observeFlight(model, flights[i])
	})
}

// telemetryRows returns a selector of f's telemetry rows with Time in
// [t0, t1): Flight.TelemetryBetween, served as a zero-copy subslice when
// the log is time-sorted, as recorded logs are.
func telemetryRows(f *dataset.Flight) func(t0, t1 float64) []dataset.TelemetrySample {
	tel := f.Telemetry
	for i := 1; i < len(tel); i++ {
		if !(tel[i-1].Time <= tel[i].Time) {
			return f.TelemetryBetween
		}
	}
	return func(t0, t1 float64) []dataset.TelemetrySample {
		lo := sort.Search(len(tel), func(i int) bool { return tel[i].Time >= t0 })
		hi := sort.Search(len(tel), func(i int) bool { return tel[i].Time >= t1 })
		return tel[lo:hi:hi]
	}
}
