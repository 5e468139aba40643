// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV) from the simulated substrate: Tab. I (augmentation
// sweep), the frequency-importance analysis, the IMU biasing experiment,
// Tab. II (GPS spoofing detection vs baselines), Tab. III (adversarial
// phase-synchronised sound attacks), and Figs. 2, 3, 6 and 7.
//
// Every experiment is parameterised by a Scale: PaperScale reproduces the
// paper's corpus sizes (36 training flights, 30 benign + 19 attack GPS
// periods, 20 IMU flights); BenchScale is a reduced but representative
// configuration for the benchmark harness; QuickScale is a minimal smoke
// configuration for tests.
package experiments

import (
	"fmt"
	"math/rand"

	"soundboost/internal/acoustics"
	"soundboost/internal/attack"
	"soundboost/internal/dataset"
	"soundboost/internal/mathx"
	"soundboost/internal/sim"
)

// Scale sets the corpus sizes, signal rates, and model budget of an
// experiment run.
type Scale struct {
	// Name labels the scale in output.
	Name string

	// TrainFlights is the training corpus size (paper: 36).
	TrainFlights int
	// ValFlights is the validation corpus size.
	ValFlights int
	// CalibFlights is the benign detector-calibration corpus size.
	CalibFlights int

	// GPSBenign and GPSAttack are the Tab. II period counts (paper: 30/19).
	GPSBenign int
	GPSAttack int
	// GPSPeriodMin/Max bound the per-period duration (paper: 60-90 s).
	GPSPeriodMin float64
	GPSPeriodMax float64

	// IMUBenign and IMUAttack are the §IV-B flight counts (paper: 10/10).
	IMUBenign int
	IMUAttack int
	// IMUFlightSeconds is the hover length of each IMU-experiment flight.
	IMUFlightSeconds float64
	// IMUAttackSeconds is the spoofing-event length (paper: 10 s).
	IMUAttackSeconds float64

	// Tab3Benign / Tab3Attack subsample the period counts for the
	// adversarial grid (the grid multiplies runs by amplitude x channels).
	Tab3Benign int
	Tab3Attack int

	// AudioRate, MechFreq, AeroFreq set the acoustic layout.
	AudioRate float64
	MechFreq  float64
	AeroFreq  float64
	// PhysicsRate, ControlRate, IMURate set the simulation rates.
	PhysicsRate float64
	ControlRate float64
	IMURate     float64
	// MaxVel caps the autopilot's velocity envelope (m/s).
	MaxVel float64

	// Hidden and Epochs set the acoustic model budget.
	Hidden int
	Epochs int

	// Seed drives all randomness of the run.
	Seed int64
}

// PaperScale mirrors the paper's corpus sizes at full signal rates.
func PaperScale() Scale {
	return Scale{
		Name:             "paper",
		TrainFlights:     36,
		ValFlights:       6,
		CalibFlights:     10,
		GPSBenign:        30,
		GPSAttack:        19,
		GPSPeriodMin:     60,
		GPSPeriodMax:     90,
		IMUBenign:        10,
		IMUAttack:        10,
		IMUFlightSeconds: 30,
		IMUAttackSeconds: 10,
		Tab3Benign:       10,
		Tab3Attack:       10,
		AudioRate:        16000,
		MechFreq:         2500,
		AeroFreq:         5500,
		PhysicsRate:      500,
		ControlRate:      250,
		IMURate:          250,
		MaxVel:           3,
		Hidden:           64,
		Epochs:           60,
		Seed:             1,
	}
}

// BenchScale is a reduced configuration sized for the benchmark harness on
// a single-core host. The frequency layout stays at the paper's values so
// spectra remain faithful.
func BenchScale() Scale {
	s := PaperScale()
	s.Name = "bench"
	s.TrainFlights = 18
	s.ValFlights = 3
	s.CalibFlights = 8
	s.GPSBenign = 8
	s.GPSAttack = 6
	s.GPSPeriodMin = 30
	s.GPSPeriodMax = 40
	s.IMUBenign = 4
	s.IMUAttack = 4
	s.IMUFlightSeconds = 18
	s.IMUAttackSeconds = 8
	s.Tab3Benign = 4
	s.Tab3Attack = 4
	s.AudioRate = 16000
	s.Epochs = 40
	return s
}

// QuickScale is the minimal smoke configuration for tests, at the
// reduced rates and shifted (but proportionate) frequency layout of
// dataset.FastGenConfig.
func QuickScale() Scale {
	s := BenchScale()
	s.Name = "quick"
	s.TrainFlights = 9
	s.ValFlights = 1
	s.CalibFlights = 4
	s.GPSBenign = 3
	s.GPSAttack = 2
	s.GPSPeriodMin = 28
	s.GPSPeriodMax = 34
	s.IMUBenign = 2
	s.IMUAttack = 2
	s.IMUFlightSeconds = 14
	s.IMUAttackSeconds = 6
	s.Tab3Benign = 2
	s.Tab3Attack = 2
	fast := dataset.FastGenConfig(sim.HoverMission{}, 0)
	s.AudioRate = fast.Synth.SampleRate
	s.MechFreq = fast.Synth.MechFreq
	s.AeroFreq = fast.Synth.AeroFreq
	s.PhysicsRate = fast.World.PhysicsRate
	s.ControlRate = fast.World.ControlRate
	s.IMURate = fast.World.IMU.SampleRate
	s.MaxVel = fast.World.Controller.MaxVel
	s.Hidden = 48
	s.Epochs = 60
	return s
}

// Validate reports scale configuration errors.
func (s Scale) Validate() error {
	switch {
	case s.TrainFlights < 1:
		return fmt.Errorf("experiments: need at least 1 training flight")
	case s.CalibFlights < 1:
		return fmt.Errorf("experiments: need at least 1 calibration flight")
	case s.AeroFreq >= s.AudioRate/2:
		return fmt.Errorf("experiments: aero band %g above Nyquist %g", s.AeroFreq, s.AudioRate/2)
	case s.GPSPeriodMax < s.GPSPeriodMin:
		return fmt.Errorf("experiments: GPS period bounds inverted")
	default:
		return nil
	}
}

// genConfig builds the dataset generation config for one flight.
func (s Scale) genConfig(mission sim.Mission, seed int64, wind sim.WindConfig) dataset.GenConfig {
	cfg := dataset.DefaultGenConfig(mission, seed)
	cfg.World.PhysicsRate = s.PhysicsRate
	cfg.World.ControlRate = s.ControlRate
	cfg.World.IMU.SampleRate = s.IMURate
	cfg.World.Controller.MaxVel = s.MaxVel
	cfg.World.Wind = wind
	cfg.Synth.SampleRate = s.AudioRate
	cfg.Synth.MechFreq = s.MechFreq
	cfg.Synth.AeroFreq = s.AeroFreq
	return cfg
}

// trainingMissions builds the 6-family mission rotation (paper §IV-A: six
// extended navigation scenarios), bounded by the scale's envelope.
func trainingMissions(s Scale, variant int) []sim.Mission {
	alt := -8.0 - float64(variant%3)*2
	leg := 6.0 + float64(variant%3)*2
	v := mathx.Clamp(1.5+float64(variant%3), 1, s.MaxVel)
	hover := sim.HoverMission{Point: mathx.Vec3{Z: alt}, Seconds: 22}
	column := sim.NewWaypointMission("column", mathx.Vec3{Z: alt}, []sim.Waypoint{
		{Pos: mathx.Vec3{Z: alt - 5}, Speed: v, HoldSeconds: 2},
		{Pos: mathx.Vec3{Z: alt}, Speed: v, HoldSeconds: 2},
	})
	dash := sim.NewWaypointMission("dash", mathx.Vec3{Z: alt}, []sim.Waypoint{
		{Pos: mathx.Vec3{X: leg * 1.5, Z: alt}, Speed: v, HoldSeconds: 2},
		{Pos: mathx.Vec3{Z: alt}, Speed: v, HoldSeconds: 2},
	})
	square := sim.NewWaypointMission("square", mathx.Vec3{Z: alt}, []sim.Waypoint{
		{Pos: mathx.Vec3{X: leg, Z: alt}, Speed: v, HoldSeconds: 1},
		{Pos: mathx.Vec3{X: leg, Y: leg, Z: alt}, Speed: v, HoldSeconds: 1},
		{Pos: mathx.Vec3{Y: leg, Z: alt}, Speed: v, HoldSeconds: 1},
		{Pos: mathx.Vec3{Z: alt}, Speed: v, HoldSeconds: 1},
	})
	sweep := sim.NewWaypointMission("sweep", mathx.Vec3{Z: alt}, []sim.Waypoint{
		{Pos: mathx.Vec3{X: leg, Z: alt}, Speed: v},
		{Pos: mathx.Vec3{X: leg, Y: leg / 2, Z: alt}, Speed: v / 2},
		{Pos: mathx.Vec3{Y: leg / 2, Z: alt}, Speed: v},
		{Pos: mathx.Vec3{Z: alt}, Speed: v / 2, HoldSeconds: 2},
	})
	circuit := sim.NewWaypointMission("circuit", mathx.Vec3{Z: alt}, []sim.Waypoint{
		{Pos: mathx.Vec3{X: leg, Y: -leg / 2, Z: alt - 2}, Speed: v},
		{Pos: mathx.Vec3{X: leg / 2, Y: leg, Z: alt}, Speed: v},
		{Pos: mathx.Vec3{Z: alt}, Speed: v, HoldSeconds: 2},
	})
	return []sim.Mission{hover, column, dash, square, sweep, circuit}
}

// PeriodSpec describes one Tab. II flight period.
type PeriodSpec struct {
	// Index numbers the period within its class.
	Index int
	// Attack marks GPS-spoofed periods.
	Attack bool
	// Seed drives the period's generation.
	Seed int64
	// Duration is the period length (s).
	Duration float64
	// Window is the spoofing window (attack periods).
	Window attack.Window
	// Offset is the spoof drift offset (attack periods).
	Offset mathx.Vec3
	// Mission names the flight plan family ("hover" or "square").
	Mission string
}

// GPSPeriods enumerates the Tab. II periods for the scale,
// deterministically from the scale seed.
func (s Scale) GPSPeriods() []PeriodSpec {
	rng := rand.New(rand.NewSource(s.Seed + 5000))
	var specs []PeriodSpec
	for i := 0; i < s.GPSBenign; i++ {
		dur := s.GPSPeriodMin + rng.Float64()*(s.GPSPeriodMax-s.GPSPeriodMin)
		mission := "hover"
		if i%2 == 1 {
			mission = "square"
		}
		specs = append(specs, PeriodSpec{
			Index:    i,
			Seed:     s.Seed + 6000 + int64(i)*13,
			Duration: dur,
			Mission:  mission,
		})
	}
	for i := 0; i < s.GPSAttack; i++ {
		dur := s.GPSPeriodMin + rng.Float64()*(s.GPSPeriodMax-s.GPSPeriodMin)
		start := dur * (0.12 + rng.Float64()*0.1)
		end := dur * 0.95
		// Drift takeover: 3-6 m/s pull in a random direction — the
		// velocity scale of real takeovers (the paper's Fig. 7 shows
		// multi-m/s velocity errors; hijacks displace drones by hundreds
		// of meters). The weakest pulls sit near the benign noise floor,
		// which is what produces the paper's sub-1.0 TPR. A vertical
		// component lands on every third period (the Fig. 7 z scenario).
		rate := 3.0 + rng.Float64()*3.0
		dir := mathx.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64()}
		if i%3 == 2 {
			dir = mathx.Vec3{Z: 1}
		}
		dir = dir.Normalized()
		mission := "hover"
		if i%2 == 1 {
			mission = "square"
		}
		specs = append(specs, PeriodSpec{
			Index:    i,
			Attack:   true,
			Seed:     s.Seed + 7000 + int64(i)*17,
			Duration: dur,
			Window:   attack.Window{Start: start, End: end},
			Offset:   dir.Scale(rate * (end - start)),
			Mission:  mission,
		})
	}
	return specs
}

// GeneratePeriod simulates one Tab. II period.
func (s Scale) GeneratePeriod(spec PeriodSpec) (*dataset.Flight, error) {
	alt := -10.0
	var mission sim.Mission
	switch spec.Mission {
	case "square":
		leg := 8.0
		v := mathx.Clamp(2, 1, s.MaxVel)
		var wps []sim.Waypoint
		// Repeat the square until the period duration is covered.
		base := []mathx.Vec3{
			{X: leg, Z: alt}, {X: leg, Y: leg, Z: alt}, {Y: leg, Z: alt}, {Z: alt},
		}
		lapTime := 4 * (leg/v + 1)
		laps := int(spec.Duration/lapTime) + 1
		for l := 0; l < laps; l++ {
			for _, p := range base {
				wps = append(wps, sim.Waypoint{Pos: p, Speed: v, HoldSeconds: 1})
			}
		}
		mission = sim.NewWaypointMission("square", mathx.Vec3{Z: alt}, wps)
	default:
		mission = sim.HoverMission{Point: mathx.Vec3{Z: alt}, Seconds: spec.Duration}
	}
	cfg := s.genConfig(mission, spec.Seed, sim.WindCycle(spec.Index))
	cfg.Name = fmt.Sprintf("gps-%v-%d", spec.Attack, spec.Index)
	if spec.Attack {
		sc, err := attack.NewFamily(attack.FamilyGPSDrift, spec.Window, spec.Seed, 1)
		if err != nil {
			return nil, err
		}
		sc.GPS.SpoofOffset = spec.Offset
		cfg.Scenario = sc
	}
	return dataset.Generate(cfg)
}

// IMUSpec describes one §IV-B flight.
type IMUSpec struct {
	// Index numbers the flight within its class.
	Index int
	// Attack marks IMU-biased flights.
	Attack bool
	// Mode is the bias profile for attack flights.
	Mode attack.IMUBiasMode
	// Seed drives generation.
	Seed int64
	// Window is the spoofing event window.
	Window attack.Window
	// LowBattery marks the benign flight flown on a critically low pack —
	// the unstable-hover condition behind the paper's one false positive.
	LowBattery bool
}

// IMUFlights enumerates the §IV-B experiment flights.
func (s Scale) IMUFlights() []IMUSpec {
	var specs []IMUSpec
	for i := 0; i < s.IMUBenign; i++ {
		specs = append(specs, IMUSpec{
			Index: i,
			Seed:  s.Seed + 8000 + int64(i)*19,
			// The last benign flight launches on a critically low pack,
			// reproducing the paper's battery-induced false positive.
			LowBattery: i == s.IMUBenign-1,
		})
	}
	for i := 0; i < s.IMUAttack; i++ {
		mode := attack.IMUSideSwing
		if i%2 == 1 {
			mode = attack.IMUAccelDoS
		}
		start := s.IMUFlightSeconds * 0.3
		specs = append(specs, IMUSpec{
			Index:  i,
			Attack: true,
			Mode:   mode,
			Seed:   s.Seed + 9000 + int64(i)*23,
			Window: attack.Window{Start: start, End: start + s.IMUAttackSeconds},
		})
	}
	return specs
}

// imuFamily names the attack family each §IV-B bias mode is built as.
var imuFamily = map[attack.IMUBiasMode]string{
	attack.IMUSideSwing: attack.FamilyIMUSideSwing,
	attack.IMUAccelDoS:  attack.FamilyIMUDoS,
}

// GenerateIMUFlight simulates one §IV-B hover flight.
func (s Scale) GenerateIMUFlight(spec IMUSpec) (*dataset.Flight, error) {
	mission := sim.HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: s.IMUFlightSeconds}
	cfg := s.genConfig(mission, spec.Seed, sim.WindCycle(spec.Index))
	cfg.Name = fmt.Sprintf("imu-%v-%d", spec.Attack, spec.Index)
	if spec.LowBattery {
		batt := sim.DefaultBatteryConfig()
		batt.InitialSoC = 0.07
		cfg.World.Battery = &batt
		cfg.Name += "-lowbatt"
	}
	if spec.Attack {
		sc, err := attack.NewFamily(imuFamily[spec.Mode], spec.Window, spec.Seed, 1)
		if err != nil {
			return nil, err
		}
		cfg.Scenario = sc
	}
	return dataset.Generate(cfg)
}

// SignatureConfig derives the analysis layout for the scale.
func (s Scale) SignatureConfig() (cfg acoustics.SynthConfig) {
	cfg = acoustics.DefaultSynthConfig()
	cfg.SampleRate = s.AudioRate
	cfg.MechFreq = s.MechFreq
	cfg.AeroFreq = s.AeroFreq
	world := sim.DefaultWorldConfig()
	cfg.Blades = world.Vehicle.Blades
	cfg.HoverSpeed = world.Vehicle.HoverMotorSpeed()
	return cfg
}
