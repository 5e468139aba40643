package sim

import (
	"fmt"
	"math"
	"math/rand"

	"soundboost/internal/mathx"
)

// WindConfig parameterises the gust model.
type WindConfig struct {
	// Mean is the steady wind vector in NED (m/s).
	Mean mathx.Vec3
	// GustStd is the standard deviation of the gust process (m/s).
	GustStd float64
	// GustTau is the gust correlation time (s); larger values give slower,
	// rolling gusts, smaller values choppier air.
	GustTau float64
}

// CalmWind returns still air.
func CalmWind() WindConfig { return WindConfig{} }

// BreezyWind returns a light-breeze condition (~2 m/s mean, mild gusts).
func BreezyWind() WindConfig {
	return WindConfig{Mean: mathx.Vec3{X: 1.5, Y: 1.0}, GustStd: 0.8, GustTau: 3}
}

// GustyWind returns the windy outdoor condition used for robustness
// experiments (~4 m/s mean with strong gusts).
func GustyWind() WindConfig {
	return WindConfig{Mean: mathx.Vec3{X: 3.0, Y: 2.0}, GustStd: 2.0, GustTau: 2}
}

// winds names the outdoor conditions, in rotation order.
var winds = []struct {
	name string
	cfg  func() WindConfig
}{{"calm", CalmWind}, {"breezy", BreezyWind}, {"gusty", GustyWind}}

// WindByName returns a wind condition by name (calm, breezy or gusty),
// for CLI tools.
func WindByName(name string) (WindConfig, error) {
	for _, w := range winds {
		if w.name == name {
			return w.cfg(), nil
		}
	}
	return WindConfig{}, fmt.Errorf("sim: unknown wind condition %q", name)
}

// WindCycle returns the i-th condition of the calm, breezy, gusty
// rotation generators use to vary benign disturbance across a corpus.
func WindCycle(i int) WindConfig { return winds[i%len(winds)].cfg() }

// Wind generates a temporally-correlated wind velocity via an
// Ornstein-Uhlenbeck process around the mean (a light-weight stand-in for
// the Dryden turbulence spectrum).
type Wind struct {
	cfg  WindConfig
	rng  *rand.Rand
	gust mathx.Vec3
}

// NewWind builds a wind process; rng must be non-nil.
func NewWind(cfg WindConfig, rng *rand.Rand) *Wind {
	return &Wind{cfg: cfg, rng: rng}
}

// Step advances the gust process by dt and returns the total wind vector.
func (w *Wind) Step(dt float64) mathx.Vec3 {
	if w.cfg.GustStd > 0 && w.cfg.GustTau > 0 {
		decay := math.Exp(-dt / w.cfg.GustTau)
		drive := w.cfg.GustStd * math.Sqrt(1-decay*decay)
		w.gust = w.gust.Scale(decay).Add(mathx.Vec3{
			X: w.rng.NormFloat64() * drive,
			Y: w.rng.NormFloat64() * drive,
			Z: w.rng.NormFloat64() * drive * 0.3, // vertical gusts are weaker
		})
	}
	return w.cfg.Mean.Add(w.gust)
}

// Current returns the wind vector without advancing the process.
func (w *Wind) Current() mathx.Vec3 { return w.cfg.Mean.Add(w.gust) }
