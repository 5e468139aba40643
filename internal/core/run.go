package soundboost

import (
	"soundboost/internal/mathx"
	"soundboost/internal/triage"
)

// Run is one flight's two-stage RCA (paper §III-C): the stage-1 IMU KS
// monitor and both stage-2 GPS KF variants. The stream engine feeds it
// through Add, both variants side by side so the verdict can switch
// variant the moment stage 1 alarms; Analyze feeds the same windows
// stage by stage. Both build their Report from it.
type Run struct {
	an    *Analyzer
	imu   *imuMonitor
	gpsAO *gpsMonitor // audio-only KF, trusted once the IMU is flagged
	gpsAI *gpsMonitor // audio+IMU KF, trusted otherwise
}

// NewRun starts a fresh RCA at the analyzer's calibrated thresholds.
func (a *Analyzer) NewRun() *Run {
	return &Run{
		an:    a,
		imu:   a.IMU.newMonitor(),
		gpsAO: a.GPSAudioOnly.newMonitor(),
		gpsAI: a.GPSAudioIMU.newMonitor(),
	}
}

// SeedGPS starts both KF variants from the first GPS velocity fix;
// later calls are no-ops, and windows added before it are dropped.
func (r *Run) SeedGPS(v0 mathx.Vec3) error {
	err := r.gpsAO.Seed(v0)
	if errAI := r.gpsAI.Seed(v0); err == nil {
		err = errAI
	}
	return err
}

// Add reduces one window — its index on the WindowStarts grid (a gap
// is a hole), start time, acoustic signature and admitted rows — as
// batch Analyze does, and feeds it to stage 1 and both KF variants, in
// window order. It reports whether the window was usable.
func (r *Run) Add(winIdx int, t0 float64, sig []float64, imu []triage.IMUPoint, gps []triage.GPSPoint) bool {
	w, ok := r.an.Model.observeWindow(winIdx, t0, sig, imu, gps)
	if ok {
		r.imu.addWindow(&w)
		r.gpsAO.addWindow(&w)
		r.gpsAI.addWindow(&w)
	}
	return ok
}

// trusted returns the KF variant stage 2 trusts (paper §III-C2):
// audio-only once the IMU is flagged, audio+IMU otherwise.
func (r *Run) trusted(imuAttacked bool) *gpsMonitor {
	if imuAttacked {
		return r.gpsAO
	}
	return r.gpsAI
}

// Live returns the report over the windows fed so far, without closing
// a pending GPS alignment phase or estimating the IMU attack spread,
// and the trusted variant's current running-mean error.
func (r *Run) Live() (Report, float64) {
	gps, running := r.trusted(r.imu.verdict.Attacked).Current()
	return r.assemble("", r.imu.verdict, gps), running
}

// Report closes the run and assembles the flight's report: stage 1's
// verdict picks the KF variant, the two verdicts give the cause. The
// error is the trusted variant's KF error; the report is complete
// either way.
func (r *Run) Report(flight string) (Report, error) {
	return r.report(flight, r.imu.Verdict())
}

func (r *Run) report(flight string, imu IMUVerdict) (Report, error) {
	gps, err := r.trusted(imu.Attacked).Verdict()
	return r.assemble(flight, imu, gps), err
}

func (r *Run) assemble(flight string, imu IMUVerdict, gps GPSVerdict) Report {
	return Report{
		Flight:  flight,
		Cause:   causeOf(imu.Attacked, gps.Attacked),
		IMU:     imu,
		GPS:     gps,
		GPSMode: r.trusted(imu.Attacked).cfg.Mode,
	}
}

func causeOf(imu, gps bool) RootCause {
	switch {
	case imu && gps:
		return CauseIMUAndGPS
	case imu:
		return CauseIMU
	case gps:
		return CauseGPS
	}
	return CauseNone
}

// ScreenWindow is the triage tier's decision on one window, from the
// primary mic's low-passed audio and the admitted IMU and GPS rows; the
// batch screen and the stream engine both decide here. A window without
// IMU rows escalates as unusable. The analyzer must carry a tier.
func (a *Analyzer) ScreenWindow(audio []float64, rate float64, imu []triage.IMUPoint, gps []triage.GPSPoint) triage.Decision {
	var feat []float64
	if len(imu) > 0 {
		feat = a.Triage.Config().Features.Features(audio, rate, imu, gps)
	}
	return a.Triage.Classify(feat)
}
