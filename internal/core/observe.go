package soundboost

import (
	"cmp"
	"slices"
	"sort"

	"soundboost/internal/dataset"
	"soundboost/internal/mathx"
	"soundboost/internal/parallel"
	"soundboost/internal/triage"
)

// flightRows is a recorded flight's telemetry split once into
// time-ordered IMU rows and GPS fixes admitted by AdmitIMU and
// AdmitGPS, as the stream engine buffers them. aux holds each IMU row's
// redundant-unit readings (nil when the flight logs none). A log out of
// time order is stably sorted first.
type flightRows struct {
	imu []triage.IMUPoint
	gps []triage.GPSPoint
	aux [][]mathx.Vec3
}

func splitFlight(f *dataset.Flight) *flightRows {
	tel := f.Telemetry
	for i := 1; i < len(tel); i++ {
		if !(tel[i-1].Time <= tel[i].Time) {
			tel = slices.Clone(tel)
			slices.SortStableFunc(tel, func(a, b dataset.TelemetrySample) int { return cmp.Compare(a.Time, b.Time) })
			break
		}
	}
	r := &flightRows{
		imu: make([]triage.IMUPoint, 0, len(tel)),
		gps: make([]triage.GPSPoint, 0, len(tel)),
	}
	for i := range tel {
		s := &tel[i]
		if AdmitIMU(s.Time, s.IMUAccel, s.EstAtt) {
			if r.aux == nil && len(s.AuxIMUAccel) > 0 {
				r.aux = make([][]mathx.Vec3, len(r.imu), cap(r.imu))
			}
			r.imu = append(r.imu, triage.IMUPoint{Time: s.Time, Accel: s.IMUAccel, Gyro: s.IMUGyro, Att: s.EstAtt})
			if r.aux != nil {
				r.aux = append(r.aux, s.AuxIMUAccel)
			}
		}
		if AdmitGPS(s.Time, s.GPSPos, s.GPSVel) {
			r.gps = append(r.gps, triage.GPSPoint{Time: s.Time, Pos: s.GPSPos, Vel: s.GPSVel})
		}
	}
	return r
}

// between returns the rows with time in [t0, t1), as the engine's
// buffers select them, as views into the split.
func (r *flightRows) between(t0, t1 float64) (imu []triage.IMUPoint, gps []triage.GPSPoint, aux [][]mathx.Vec3) {
	lo, hi := timeRange(len(r.imu), t0, t1, func(i int) float64 { return r.imu[i].Time })
	glo, ghi := timeRange(len(r.gps), t0, t1, func(i int) float64 { return r.gps[i].Time })
	if r.aux != nil {
		aux = r.aux[lo:hi:hi]
	}
	return r.imu[lo:hi:hi], r.gps[glo:ghi:ghi], aux
}

// timeRange returns the index range of the n time-sorted rows with
// time in [t0, t1).
func timeRange(n int, t0, t1 float64, at func(i int) float64) (lo, hi int) {
	lo = sort.Search(n, func(i int) bool { return at(i) >= t0 })
	hi = lo + sort.Search(n-lo, func(i int) bool { return at(lo+i) >= t1 })
	return lo, hi
}

// window is one signature window reduced to what both RCA stages read:
// its grid index and start time, the acoustic prediction (body frame),
// stage 1's z-axis residuals against the primary IMU (one per row),
// stage 2's observation when the window has GPS fixes and a finite
// NED acceleration, and (batch only) the rows' redundant IMU readings.
type window struct {
	idx    int
	t0     float64
	pred   mathx.Vec3
	resid  []float64
	nav    gpsObs
	hasGPS bool
	aux    [][]mathx.Vec3
}

// observeWindow is the one window function of the RCA: batch Analyze
// (through observeFlight) and the stream engine (through Run.Add) both
// reduce every window here, from its grid index, start time, acoustic
// signature and admitted rows. A window without a signature or IMU rows
// is unusable (false).
func (m *AcousticModel) observeWindow(idx int, t0 float64, sig []float64, imu []triage.IMUPoint, gps []triage.GPSPoint) (window, bool) {
	if sig == nil || len(imu) == 0 {
		return window{}, false
	}
	cfg := m.cfg.Signature
	w := window{idx: idx, t0: t0, pred: m.Predict(cfg.withAttitude(sig, imu))}
	// z-axis (downward) residuals only: the thrust axis is the one the
	// acoustic channel predicts in every flight regime, and it is the
	// axis the paper's IMU attacks tamper with (Fig. 6). Horizontal
	// residuals shift with airspeed-dependent drag and would alias
	// aggressive-but-benign maneuvers into attacks.
	w.resid = make([]float64, len(imu))
	for i, s := range imu {
		w.resid[i] = w.pred.Z - s.Accel.Z
	}
	if len(gps) > 0 {
		var gpsSum mathx.Vec3
		for _, s := range gps {
			gpsSum = gpsSum.Add(s.Vel)
		}
		w.nav = newGPSObs(idx, t0+cfg.WindowSeconds, imu[len(imu)/2].Att, w.pred,
			meanAccel(imu), gpsSum.Scale(1/float64(len(gps))))
		// A huge but finite attitude or acceleration can overflow the NED
		// rotation; such a window is a hole in the GPS stage, like any
		// other unusable window, not a KF input.
		w.hasGPS = w.nav.audioNED.IsFinite() && w.nav.imuNED.IsFinite()
	}
	return w, true
}

// withAttitude appends the non-empty rows' mean roll and pitch to a
// window's acoustic signature when the config asks for them.
func (c SignatureConfig) withAttitude(sig []float64, imu []triage.IMUPoint) []float64 {
	if !c.AttitudeFeatures {
		return sig
	}
	var roll, pitch float64
	for _, s := range imu {
		r, p, _ := s.Att.Euler()
		roll += r
		pitch += p
	}
	n := float64(len(imu))
	return append(sig, roll/n, pitch/n)
}

// meanAccel is the mean specific force of non-empty IMU rows.
func meanAccel(imu []triage.IMUPoint) mathx.Vec3 {
	var sum mathx.Vec3
	for _, s := range imu {
		sum = sum.Add(s.Accel)
	}
	return sum.Scale(1 / float64(len(imu)))
}

// residuals returns the window's z-axis residuals against IMU unit
// stream: 0 is the primary, k > 0 redundant unit k-1, whose rows
// without that unit are left out.
func (w *window) residuals(stream int) []float64 {
	if stream == 0 {
		return w.resid
	}
	vals := make([]float64, 0, len(w.aux))
	for _, a := range w.aux {
		if stream-1 < len(a) {
			vals = append(vals, w.pred.Z-a[stream-1].Z)
		}
	}
	return vals
}

// flightObs is a recorded flight's split and its usable windows.
type flightObs struct {
	rows    *flightRows
	windows []*window
}

// observeFlight is the one window pass over a recorded flight: a single
// Extractor (one low-pass filtering of the four channels), then one
// signature and one observeWindow per window, fanned out over the worker
// pool and returned in window order. rows is the flight's split, or nil
// to split it here. Unusable windows are left out; the gap in idx they
// leave is a hole to the GPS monitor, exactly as on the stream.
func observeFlight(model *AcousticModel, f *dataset.Flight, rows *flightRows) (*flightObs, error) {
	ex, err := NewExtractor(f.Audio, model.cfg.Signature)
	if err != nil {
		return nil, err
	}
	if rows == nil {
		rows = splitFlight(f)
	}
	win := model.cfg.Signature.WindowSeconds
	starts := ex.WindowStarts(win)
	perWindow := parallel.Map(0, len(starts), func(i int) *window {
		t0 := starts[i]
		imu, gps, aux := rows.between(t0, t0+win)
		w, ok := model.observeWindow(i, t0, ex.Features(t0, win), imu, gps)
		if !ok {
			return nil
		}
		w.aux = aux
		return &w
	})
	return &flightObs{rows, slices.DeleteFunc(perWindow, func(w *window) bool { return w == nil })}, nil
}

// observeFlights runs observeFlight over each flight on the process's
// default worker pool.
func observeFlights(model *AcousticModel, flights []*dataset.Flight) ([]*flightObs, error) {
	return parallel.MapErr(0, len(flights), func(i int) (*flightObs, error) {
		return observeFlight(model, flights[i], nil)
	})
}
