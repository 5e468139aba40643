package soundboost

import "soundboost/internal/obs"

// Stage metrics for the RCA pipeline, resolved once at init and gated
// by obs.Enable. Timer semantics the tests rely on:
//
//   - core.extract.filter fires once per NewExtractor (per-recording
//     low-pass filtering).
//   - core.signature.window fires exactly once per Features call, i.e.
//     once per extracted signature window (including augmented and
//     rejected windows).
//   - core.predict fires once per AcousticModel prediction.
//   - core.rca.imu.detect / core.rca.gps.detect fire once per flight
//     per stage; core.rca.analyze wraps the full two-stage RCA.
//     The one window pass a flight gets (filtering, signatures,
//     predictions) runs inside core.rca.imu.detect, since stage 1
//     consumes it first; within Analyze, core.rca.gps.detect covers only
//     stage 2: the trusted KF variant stepped over the windows, and the
//     report.
//     The stream engine's Run fires neither, nor core.rca.reports_*.
//   - core.rca.gps.segments counts GPS analysis segments restarted at a
//     hole in the window sequence, on the batch and streaming paths.
//   - core.calibrate.* time the one-off detector calibrations.
var (
	extractFilterTimer = obs.Default.Timer("core.extract.filter")
	windowTimer        = obs.Default.Timer("core.signature.window")
	windowsRejected    = obs.Default.Counter("core.signature.windows_rejected")
	predictTimer       = obs.Default.Timer("core.predict")
	imuDetectTimer     = obs.Default.Timer("core.rca.imu.detect")
	gpsDetectTimer     = obs.Default.Timer("core.rca.gps.detect")
	analyzeTimer       = obs.Default.Timer("core.rca.analyze")
	gpsSegments        = obs.Default.Counter("core.rca.gps.segments")
	imuCalibTimer      = obs.Default.Timer("core.calibrate.imu")
	gpsCalibTimer      = obs.Default.Timer("core.calibrate.gps")
	analyzerCalibTimer = obs.Default.Timer("core.calibrate.analyzer")
	reportsIMU         = obs.Default.Counter("core.rca.reports_imu")
	reportsGPS         = obs.Default.Counter("core.rca.reports_gps")
	// core.triage.* cover the screening tier's batch adapter: train fires
	// once per TrainTriage, screen once per screened flight, and fastpath
	// counts flights that short-circuited with the cheap benign verdict.
	triageTrainTimer  = obs.Default.Timer("core.triage.train")
	triageScreenTimer = obs.Default.Timer("core.triage.screen")
	reportsFastpath   = obs.Default.Counter("core.rca.reports_fastpath")
)
