package attack

import (
	"fmt"
	"math/rand"

	"soundboost/internal/mathx"
)

// The attack families of the paper's evaluation (§IV-B, §IV-C), by the
// names flightgen, the sweep grid, the experiments and the examples
// build them under.
const (
	FamilyGPSStatic    = "gps-static"
	FamilyGPSDrift     = "gps-drift"
	FamilyIMUSideSwing = "imu-side-swing"
	FamilyIMUDoS       = "imu-dos"
)

// Families lists every family name, in catalogue order.
var Families = []string{FamilyGPSStatic, FamilyGPSDrift, FamilyIMUSideSwing, FamilyIMUDoS}

// NewFamily builds the named family's attack over w at intensity times
// its canonical size:
//
//   - gps-static: a counterfeit fix 12 m north of the onset position,
//     reporting zero velocity;
//   - gps-drift: a pull that ramps to 24 m north over the window;
//   - imu-side-swing: a 1.2 rad/s gyroscope bias about X, reached over
//     a 1 s ramp and rocking at 0.9 Hz;
//   - imu-dos: 3 m/s² accelerometer noise on Z, drawn from an RNG
//     seeded seed+1.
//
// Callers that size an attack themselves overwrite SpoofOffset or
// Magnitude on the result.
func NewFamily(name string, w Window, seed int64, intensity float64) (Scenario, error) {
	switch name {
	case FamilyGPSStatic:
		return Scenario{GPS: &GPSSpoofer{
			Window: w, Mode: GPSSpoofStatic,
			SpoofOffset: mathx.Vec3{X: 12 * intensity}, ReportZeroVel: true,
		}}, nil
	case FamilyGPSDrift:
		return Scenario{GPS: &GPSSpoofer{
			Window: w, Mode: GPSSpoofDrift,
			SpoofOffset: mathx.Vec3{X: 24 * intensity},
		}}, nil
	case FamilyIMUSideSwing:
		return Scenario{IMU: &IMUBiaser{
			Window: w, Mode: IMUSideSwing, Axis: mathx.Vec3{X: 1},
			Magnitude: 1.2 * intensity, RampSeconds: 1, OscillateHz: 0.9,
		}}, nil
	case FamilyIMUDoS:
		return Scenario{IMU: &IMUBiaser{
			Window: w, Mode: IMUAccelDoS, Axis: mathx.Vec3{Z: 1},
			Magnitude: 3 * intensity, Rng: rand.New(rand.NewSource(seed + 1)),
		}}, nil
	default:
		return Scenario{}, fmt.Errorf("attack: unknown family %q (want one of %v)", name, Families)
	}
}
