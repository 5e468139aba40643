package sweep

import (
	"fmt"

	"soundboost/internal/attack"
	"soundboost/internal/dataset"
	"soundboost/internal/mathx"
	"soundboost/internal/sim"
)

// benign is the attack axis value for a clean flight; every other value
// names an attack.Families entry.
const benign = "benign"

// Flight synthesis presets. PresetFast is dataset.FastGenConfig, the
// reduced-rate layout every smoke and test corpus uses; PresetPaper
// keeps the full-rate defaults. The preset must match the analyzer's training corpus — the
// server rejects sessions whose sample rate does not fit the model.
const (
	PresetFast  = "fast"
	PresetPaper = "paper"
)

// flightKey identifies one distinct synthesized flight. Grid cells that
// differ only in detector or transport axes (kf, margin, chunk, frame)
// share the flight — the whole point of the session-disjoint rollup.
type flightKey struct {
	attack    string
	intensity float64
	rep       int
}

// buildFlight synthesizes the flight for one key. idx is the key's
// position in the stable key enumeration; together with the master
// seed it pins the whole generation, so the same Config reproduces the
// same corpus byte for byte.
func (c *Config) buildFlight(key flightKey, idx int) (*dataset.Flight, error) {
	// Distinct flights must not share simulation seeds: stride past the
	// handful of derived seeds DefaultGenConfig and the attack builders
	// consume per flight.
	seed := c.Seed + int64(idx)*101
	mission := sim.HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: c.Seconds}
	gen := dataset.DefaultGenConfig
	if c.Preset == PresetFast {
		gen = dataset.FastGenConfig
	}
	cfg := gen(mission, seed)
	// Wind cycles per rep so repeated flights of the same attack cell
	// see different benign disturbance, not just a different seed.
	cfg.World.Wind = sim.WindCycle(key.rep)

	// Attacks start after the GPS detector's alignment phase (the threat
	// model: attacks begin after take-off) and end before the flight
	// does, so detection latency is measurable.
	window := attack.Window{Start: 6, End: c.Seconds - 2}
	scenario, err := buildScenario(key.attack, key.intensity, window, seed)
	if err != nil {
		return nil, err
	}
	cfg.Scenario = scenario
	cfg.Name = fmt.Sprintf("%s-i%s-r%d", key.attack, trimFloat(key.intensity), key.rep)
	f, err := dataset.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("sweep: synthesize %s: %w", cfg.Name, err)
	}
	return f, nil
}

// buildScenario constructs the attack for a family at an intensity
// scale. Intensity multiplies the family's canonical size (GPS spoof
// offset in metres, IMU bias magnitude); benign ignores it.
func buildScenario(family string, intensity float64, window attack.Window, seed int64) (attack.Scenario, error) {
	if family == benign {
		return attack.Scenario{}, nil
	}
	return attack.NewFamily(family, window, seed, intensity)
}

// trimFloat renders an intensity compactly for flight names (1 -> "1",
// 0.5 -> "0.5").
func trimFloat(v float64) string {
	return fmt.Sprintf("%g", v)
}
