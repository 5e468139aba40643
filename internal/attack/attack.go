// Package attack implements the sensor attacks SoundBoost is evaluated
// against (paper §IV-B, §IV-C): GPS spoofing via a counterfeit-signal
// receiver takeover (the GPS-SDR-SIM + HackRF setup), and IMU biasing via
// firmware-level injection of gyroscope side-swing bias and accelerometer
// DoS noise (the Tu et al. acoustic-injection attack family). Attacks
// install as sensor interceptors, corrupting exactly what the autopilot
// and flight logs see — never the physical truth, and never the
// microphone channel.
package attack

import (
	"fmt"
	"math"
	"math/rand"

	"soundboost/internal/mathx"
	"soundboost/internal/sensors"
)

// Window is a half-open activation interval [Start, End) in flight seconds.
type Window struct {
	Start float64
	End   float64
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t float64) bool { return t >= w.Start && t < w.End }

// Duration returns the window length.
func (w Window) Duration() float64 { return w.End - w.Start }

// Validate reports malformed windows.
func (w Window) Validate() error {
	if w.End <= w.Start {
		return fmt.Errorf("attack: window end %g not after start %g", w.End, w.Start)
	}
	return nil
}

// GPSSpoofMode selects the spoofed-trajectory profile.
type GPSSpoofMode string

const (
	// GPSSpoofStatic reports a fixed counterfeit location for the whole
	// attack (the paper's experiments: a static spoof point 10 m away or
	// on the mission path).
	GPSSpoofStatic GPSSpoofMode = "static"
	// GPSSpoofDrift ramps a position offset at a constant rate — the
	// stealthy pull-away profile of takeover attacks.
	GPSSpoofDrift GPSSpoofMode = "drift"
)

// GPSSpoofer intercepts GPS fixes during its window.
type GPSSpoofer struct {
	// Window bounds the attack.
	Window Window
	// Mode selects the profile.
	Mode GPSSpoofMode
	// SpoofOffset: for static mode, the counterfeit location is the fix
	// position at onset plus this offset; for drift mode, the offset ramps
	// from zero to this value over the window.
	SpoofOffset mathx.Vec3
	// ReportZeroVel, when true, reports near-zero velocity during static
	// spoofing (a static counterfeit constellation implies no motion).
	ReportZeroVel bool

	onsetPos mathx.Vec3
	hasOnset bool
}

// Verify interface compliance.
var _ sensors.GPSInterceptor = (*GPSSpoofer)(nil)

// InterceptGPS implements sensors.GPSInterceptor.
func (g *GPSSpoofer) InterceptGPS(f sensors.GPSFix) sensors.GPSFix {
	if !g.Window.Contains(f.Time) {
		g.hasOnset = false
		return f
	}
	if !g.hasOnset {
		g.onsetPos = f.Pos
		g.hasOnset = true
	}
	switch g.Mode {
	case GPSSpoofDrift:
		frac := (f.Time - g.Window.Start) / g.Window.Duration()
		f.Pos = f.Pos.Add(g.SpoofOffset.Scale(frac))
		f.Vel = f.Vel.Add(g.SpoofOffset.Scale(1 / g.Window.Duration()))
	default: // static
		f.Pos = g.onsetPos.Add(g.SpoofOffset)
		if g.ReportZeroVel {
			f.Vel = mathx.Vec3{}
		}
	}
	return f
}

// Active reports whether the spoof is live at time t.
func (g *GPSSpoofer) Active(t float64) bool { return g.Window.Contains(t) }

// IMUBiasMode selects the IMU injection profile.
type IMUBiasMode string

const (
	// IMUSideSwing injects an incrementally growing bias into the
	// gyroscope along a target axis — the controllable Side-Swing attack.
	IMUSideSwing IMUBiasMode = "side-swing"
	// IMUAccelDoS injects zero-mean oscillatory noise into the
	// accelerometer — the uncontrollable DoS attack.
	IMUAccelDoS IMUBiasMode = "accel-dos"
)

// IMUBiaser intercepts IMU measurements during its window.
type IMUBiaser struct {
	// Window bounds the attack.
	Window Window
	// Mode selects side-swing or DoS.
	Mode IMUBiasMode
	// Axis is the attacked body axis (unit vector); Side-Swing uses it for
	// the gyro bias direction, DoS for the dominant noise axis.
	Axis mathx.Vec3
	// Magnitude is the peak gyro bias (rad/s) for side-swing, or the noise
	// standard deviation (m/s^2) for DoS.
	Magnitude float64
	// RampSeconds is the time the side-swing bias takes to reach peak.
	RampSeconds float64
	// OscillateHz modulates the side-swing bias with a positive-biased
	// swing (0.5 + 0.5*sin) at this rate, reproducing the rocking motion
	// of real resonant gyroscope injection; 0 holds the bias constant.
	OscillateHz float64
	// Rng drives DoS noise; required for IMUAccelDoS.
	Rng *rand.Rand
}

// Verify interface compliance.
var _ sensors.IMUInterceptor = (*IMUBiaser)(nil)

// InterceptIMU implements sensors.IMUInterceptor.
func (b *IMUBiaser) InterceptIMU(m sensors.IMUMeasurement) sensors.IMUMeasurement {
	if !b.Window.Contains(m.Time) {
		return m
	}
	axis := b.Axis.Normalized()
	switch b.Mode {
	case IMUSideSwing:
		frac := 1.0
		if b.RampSeconds > 0 {
			frac = mathx.Clamp((m.Time-b.Window.Start)/b.RampSeconds, 0, 1)
		}
		if b.OscillateHz > 0 {
			frac *= 0.5 + 0.5*math.Sin(2*math.Pi*b.OscillateHz*(m.Time-b.Window.Start))
		}
		m.Gyro = m.Gyro.Add(axis.Scale(b.Magnitude * frac))
	case IMUAccelDoS:
		if b.Rng != nil {
			// Oscillatory, roughly zero-mean: contributes "almost
			// equivalently to both directions" (paper §IV-B).
			n := b.Rng.NormFloat64() * b.Magnitude
			cross := mathx.Vec3{
				X: b.Rng.NormFloat64(),
				Y: b.Rng.NormFloat64(),
				Z: b.Rng.NormFloat64(),
			}.Scale(b.Magnitude * 0.3)
			m.Accel = m.Accel.Add(axis.Scale(n)).Add(cross)
		}
	}
	return m
}

// Active reports whether the bias is live at time t.
func (b *IMUBiaser) Active(t float64) bool { return b.Window.Contains(t) }

// Validate reports configuration errors.
func (b *IMUBiaser) Validate() error {
	if err := b.Window.Validate(); err != nil {
		return err
	}
	if b.Axis.Norm() == 0 {
		return fmt.Errorf("attack: IMU bias axis is zero")
	}
	if b.Magnitude <= 0 {
		return fmt.Errorf("attack: IMU bias magnitude %g must be positive", b.Magnitude)
	}
	if b.Mode == IMUAccelDoS && b.Rng == nil {
		return fmt.Errorf("attack: accel DoS requires an Rng")
	}
	switch b.Mode {
	case IMUSideSwing, IMUAccelDoS:
		return nil
	default:
		return fmt.Errorf("attack: unknown IMU bias mode %q", b.Mode)
	}
}

// Scenario describes one flight's attack configuration for dataset
// generation and experiment bookkeeping. The zero Scenario is a clean
// flight; NewFamily builds the evaluated attacks by name.
type Scenario struct {
	// GPS, when non-nil, spoofs the GPS during its window.
	GPS *GPSSpoofer
	// IMU, when non-nil, biases the IMU during its window.
	IMU *IMUBiaser
	// Actuator, when non-nil, injects the PWM block-waveform DoS.
	Actuator *ActuatorDoS
}

// HasAttack reports whether any attack is configured.
func (s Scenario) HasAttack() bool { return s.GPS != nil || s.IMU != nil || s.Actuator != nil }

// AttackWindow returns the earliest attack window, or a zero Window when
// benign.
func (s Scenario) AttackWindow() Window {
	earliest := Window{}
	consider := func(w Window) {
		if earliest == (Window{}) || w.Start < earliest.Start {
			earliest = w
		}
	}
	if s.GPS != nil {
		consider(s.GPS.Window)
	}
	if s.IMU != nil {
		consider(s.IMU.Window)
	}
	if s.Actuator != nil {
		consider(s.Actuator.Window)
	}
	return earliest
}
