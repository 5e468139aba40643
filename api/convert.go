package api

import (
	soundboost "soundboost/internal/core"
	"soundboost/internal/kalman"
	"soundboost/internal/mathx"
	"soundboost/internal/stream"
)

// Conversion between internal structs and wire DTOs lives here and only
// here. Every conversion pair is round-trip tested (api_test.go), so
// internal refactors that would silently change the wire format fail in
// this package instead of in a client.

// ReportFromCore converts an internal RCA report to its wire form.
func ReportFromCore(r soundboost.Report) Report {
	return Report{
		SchemaVersion: Version,
		Flight:        r.Flight,
		Cause:         string(r.Cause),
		IMU: IMUVerdict{
			Attacked:         r.IMU.Attacked,
			DetectionSeconds: r.IMU.DetectionTime,
			WindowsTested:    r.IMU.WindowsTested,
			WindowsRejected:  r.IMU.WindowsRejected,
			AttackStd:        r.IMU.AttackStd,
		},
		GPS: GPSVerdict{
			Attacked:         r.GPS.Attacked,
			DetectionSeconds: r.GPS.DetectionTime,
			PeakError:        r.GPS.PeakError,
			Threshold:        r.GPS.Threshold,
		},
		GPSMode:   string(r.GPSMode),
		Precision: string(r.Precision),
		Tolerance: r.Precision.Tolerance(),
	}
}

// ToCore converts a wire report back to the internal struct.
func (r Report) ToCore() soundboost.Report {
	return soundboost.Report{
		Flight: r.Flight,
		Cause:  soundboost.RootCause(r.Cause),
		IMU: soundboost.IMUVerdict{
			Attacked:        r.IMU.Attacked,
			DetectionTime:   r.IMU.DetectionSeconds,
			WindowsTested:   r.IMU.WindowsTested,
			WindowsRejected: r.IMU.WindowsRejected,
			AttackStd:       r.IMU.AttackStd,
		},
		GPS: soundboost.GPSVerdict{
			Attacked:      r.GPS.Attacked,
			DetectionTime: r.GPS.DetectionSeconds,
			PeakError:     r.GPS.PeakError,
			Threshold:     r.GPS.Threshold,
		},
		GPSMode: kalman.Mode(r.GPSMode),
		// Tolerance is derived from Precision, never stored separately.
		Precision: soundboost.Precision(r.Precision),
	}
}

// EngineStatusFromStream converts a live engine snapshot to its wire
// form.
func EngineStatusFromStream(s stream.Status) EngineStatus {
	return EngineStatus{
		LastWindowEndSeconds: s.LastWindowEnd,
		Windows:              s.Windows,
		Skipped:              s.Skipped,
		IMUAttacked:          s.IMUAttacked,
		GPSAttacked:          s.GPSAttacked,
		ActiveKFMode:         string(s.ActiveMode),
		RunningError:         s.RunningError,
		PeakError:            s.PeakError,
		Threshold:            s.Threshold,
	}
}

// ToStream converts a wire engine status back to the internal struct.
func (s EngineStatus) ToStream() stream.Status {
	return stream.Status{
		LastWindowEnd: s.LastWindowEndSeconds,
		Windows:       s.Windows,
		Skipped:       s.Skipped,
		IMUAttacked:   s.IMUAttacked,
		GPSAttacked:   s.GPSAttacked,
		ActiveMode:    kalman.Mode(s.ActiveKFMode),
		RunningError:  s.RunningError,
		PeakError:     s.PeakError,
		Threshold:     s.Threshold,
	}
}

// vec3FromMathx / toMathx map the 3-vector wire form.
func vec3FromMathx(v mathx.Vec3) Vec3 { return Vec3{X: v.X, Y: v.Y, Z: v.Z} }

// ToMathx converts a wire vector to the internal type.
func (v Vec3) ToMathx() mathx.Vec3 { return mathx.Vec3{X: v.X, Y: v.Y, Z: v.Z} }

func quatFromMathx(q mathx.Quat) Quat { return Quat{W: q.W, X: q.X, Y: q.Y, Z: q.Z} }

// ToMathx converts a wire quaternion to the internal type.
func (q Quat) ToMathx() mathx.Quat { return mathx.Quat{W: q.W, X: q.X, Y: q.Y, Z: q.Z} }

// AudioFrameFromStream converts a stream audio frame to its wire form.
func AudioFrameFromStream(f stream.AudioFrame) AudioFrame {
	return AudioFrame{StartSeconds: f.Start, RateHz: f.Rate, Samples: f.Samples}
}

// ToStream converts a wire audio frame to the engine's input type.
func (f AudioFrame) ToStream() stream.AudioFrame {
	return stream.AudioFrame{Start: f.StartSeconds, Rate: f.RateHz, Samples: f.Samples}
}

// IMUSampleFromStream converts a stream IMU row to its wire form.
func IMUSampleFromStream(s stream.IMUSample) IMUSample {
	return IMUSample{
		TimeSeconds: s.Time,
		Accel:       vec3FromMathx(s.Accel),
		Gyro:        vec3FromMathx(s.Gyro),
		Att:         quatFromMathx(s.Att),
	}
}

// ToStream converts a wire IMU row to the engine's input type.
func (s IMUSample) ToStream() stream.IMUSample {
	return stream.IMUSample{
		Time:  s.TimeSeconds,
		Accel: s.Accel.ToMathx(),
		Gyro:  s.Gyro.ToMathx(),
		Att:   s.Att.ToMathx(),
	}
}

// GPSSampleFromStream converts a stream GPS fix to its wire form.
func GPSSampleFromStream(s stream.GPSSample) GPSSample {
	return GPSSample{TimeSeconds: s.Time, Pos: vec3FromMathx(s.Pos), Vel: vec3FromMathx(s.Vel)}
}

// ToStream converts a wire GPS fix to the engine's input type.
func (s GPSSample) ToStream() stream.GPSSample {
	return stream.GPSSample{Time: s.TimeSeconds, Pos: s.Pos.ToMathx(), Vel: s.Vel.ToMathx()}
}

// ToStream converts a chunk's three streams to the engine's input types,
// in the argument order of stream.Events.
func (r FramesRequest) ToStream() ([]stream.AudioFrame, []stream.IMUSample, []stream.GPSSample) {
	audio := make([]stream.AudioFrame, len(r.Audio))
	for i, f := range r.Audio {
		audio[i] = f.ToStream()
	}
	imu := make([]stream.IMUSample, len(r.IMU))
	for i, s := range r.IMU {
		imu[i] = s.ToStream()
	}
	gps := make([]stream.GPSSample, len(r.GPS))
	for i, s := range r.GPS {
		gps[i] = s.ToStream()
	}
	return audio, imu, gps
}
