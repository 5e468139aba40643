// Package dataset generates, stores, and windows the flight corpora used
// throughout the reproduction: it glues the flight simulator, the sensor
// attack models, and the acoustic synthesiser into complete "flights"
// (telemetry log + 4-channel recording), and provides the window-alignment
// and train/val/test-split utilities the learning pipeline consumes.
package dataset

import (
	"fmt"
	"math/rand"

	"soundboost/internal/acoustics"
	"soundboost/internal/attack"
	"soundboost/internal/mathx"
	"soundboost/internal/sim"
)

// TelemetrySample is one logged telemetry row at the IMU rate — what the
// companion computer records from MAVLink during a real flight.
type TelemetrySample struct {
	// Time is the flight timestamp (s).
	Time float64
	// IMUAccel is the logged accelerometer specific force (body frame,
	// possibly attacked).
	IMUAccel mathx.Vec3
	// IMUGyro is the logged gyroscope rate (body frame, possibly attacked).
	IMUGyro mathx.Vec3
	// AuxIMUAccel holds the redundant IMUs' specific-force readings (body
	// frame); empty for single-IMU vehicles. Redundant units are not
	// reachable by a primary-tuned resonant injection (paper §V-B).
	AuxIMUAccel []mathx.Vec3 `json:"aux_imu_accel,omitempty"`
	// GPSPos and GPSVel are the latest GPS fix (NED, possibly spoofed).
	GPSPos mathx.Vec3
	GPSVel mathx.Vec3
	// EstAtt is the autopilot's attitude estimate, used for NED transforms
	// (the paper's pipeline has the same dependency).
	EstAtt mathx.Quat
	// Motor is the ESC RPM feedback (rad/s) — actuator telemetry real
	// autopilots log; the LTI control-invariant baseline consumes it.
	Motor [sim.NumMotors]float64
	// TruePos / TrueVel / TrueAccel are simulation ground truth, kept for
	// evaluation only — detectors never read them.
	TruePos   mathx.Vec3
	TrueVel   mathx.Vec3
	TrueAccel mathx.Vec3
}

// Flight is one complete simulated flight.
type Flight struct {
	// Name labels the flight.
	Name string
	// Mission is the mission name flown.
	Mission string
	// Scenario records the attack configuration metadata.
	Scenario ScenarioMeta
	// Telemetry holds the logged sensor rows at IMU rate.
	Telemetry []TelemetrySample
	// Audio is the microphone-array recording.
	Audio *acoustics.Recording
}

// ScenarioMeta is the serializable description of a flight's attack.
type ScenarioMeta struct {
	// Kind names the attack by its mode, as Generate records it:
	// "benign", "gps-static", "gps-drift", "imu-side-swing",
	// "imu-accel-dos" or "actuator-dos". That is the attack.Families
	// name of every family but imu-dos, whose kind is "imu-accel-dos".
	Kind string
	// Window bounds the attack (zero for benign).
	Window attack.Window
}

// IsAttack reports whether the flight contains an attack.
func (m ScenarioMeta) IsAttack() bool { return m.Kind != "" && m.Kind != "benign" }

// Duration returns the flight length in seconds.
func (f *Flight) Duration() float64 {
	if len(f.Telemetry) == 0 {
		return 0
	}
	return f.Telemetry[len(f.Telemetry)-1].Time - f.Telemetry[0].Time
}

// GenConfig assembles one flight generation.
type GenConfig struct {
	// World configures the simulator.
	World sim.WorldConfig
	// Synth configures the acoustic source model.
	Synth acoustics.SynthConfig
	// Array configures the microphone geometry.
	Array acoustics.ArrayConfig
	// Mission is the flight plan.
	Mission sim.Mission
	// Scenario installs attacks (the zero Scenario for clean flights).
	Scenario attack.Scenario
	// Interference optionally post-processes the recording (sound attacks).
	Interference []acoustics.Interference
	// Name labels the produced flight.
	Name string
}

// DefaultGenConfig returns a ready-to-run configuration for the default
// airframe, wiring the synthesiser's hover speed and blade count to the
// vehicle so acoustic lines land where the physics puts them.
func DefaultGenConfig(mission sim.Mission, seed int64) GenConfig {
	world := sim.DefaultWorldConfig()
	world.Seed = seed
	synth := acoustics.DefaultSynthConfig()
	synth.Seed = seed + 1
	synth.Blades = world.Vehicle.Blades
	synth.HoverSpeed = world.Vehicle.HoverMotorSpeed()
	return GenConfig{
		World:   world,
		Synth:   synth,
		Array:   acoustics.DefaultArrayConfig(world.Vehicle.ArmLength),
		Mission: mission,
		Name:    mission.Name(),
	}
}

// FastGenConfig is DefaultGenConfig at the reduced rates every smoke,
// example and test corpus uses: 250 Hz physics, 125 Hz control and
// IMU, and 4 kHz audio with the acoustic plan scaled under its 2 kHz
// Nyquist limit, so training, calibration, RCA and live streaming work
// unchanged at a fraction of the cost. The velocity envelope is capped
// at the missions' 3 m/s cruise speed (standard PX4 practice), so
// attack-induced chases stay inside the trained regime.
func FastGenConfig(mission sim.Mission, seed int64) GenConfig {
	cfg := DefaultGenConfig(mission, seed)
	cfg.World.PhysicsRate = 250
	cfg.World.ControlRate = 125
	cfg.World.IMU.SampleRate = 125
	cfg.World.Controller.MaxVel = 3
	cfg.Synth.SampleRate = 4000
	cfg.Synth.MechFreq = 900
	cfg.Synth.AeroFreq = 1500
	return cfg
}

// Generate runs the simulation and acoustic synthesis for one flight.
func Generate(cfg GenConfig) (*Flight, error) {
	if cfg.Mission == nil {
		return nil, fmt.Errorf("dataset: nil mission")
	}
	world, err := sim.NewWorld(cfg.World)
	if err != nil {
		return nil, fmt.Errorf("dataset: world: %w", err)
	}
	if cfg.Scenario.GPS != nil {
		world.GPSSensor().SetInterceptor(cfg.Scenario.GPS)
	}
	if cfg.Scenario.IMU != nil {
		if err := cfg.Scenario.IMU.Validate(); err != nil {
			return nil, fmt.Errorf("dataset: imu attack: %w", err)
		}
		world.IMUSensor().SetInterceptor(cfg.Scenario.IMU)
	}
	if cfg.Scenario.Actuator != nil {
		if err := cfg.Scenario.Actuator.Validate(); err != nil {
			return nil, fmt.Errorf("dataset: actuator attack: %w", err)
		}
		world.SetActuatorInterceptor(cfg.Scenario.Actuator)
	}

	records := world.Run(cfg.Mission)
	if len(records) == 0 {
		return nil, fmt.Errorf("dataset: mission %q produced no records", cfg.Mission.Name())
	}

	// Telemetry at IMU sample boundaries (deduplicated on IMU timestamps).
	var telemetry []TelemetrySample
	lastIMUTime := -1.0
	for _, r := range records {
		if r.IMU.Time == lastIMUTime {
			continue
		}
		lastIMUTime = r.IMU.Time
		var aux []mathx.Vec3
		for _, a := range r.AuxIMU {
			aux = append(aux, a.Accel)
		}
		telemetry = append(telemetry, TelemetrySample{
			Time:        r.IMU.Time,
			IMUAccel:    r.IMU.Accel,
			IMUGyro:     r.IMU.Gyro,
			AuxIMUAccel: aux,
			GPSPos:      r.GPS.Pos,
			GPSVel:      r.GPS.Vel,
			EstAtt:      r.TrueAtt, // attitude estimation is benign in the threat model
			Motor:       r.MotorSpeed,
			TruePos:     r.TruePos,
			TrueVel:     r.TrueVel,
			TrueAccel:   r.TrueAccel,
		})
	}

	// Rotor frames for the synthesiser: physics-rate motor speeds.
	frames := make([]acoustics.RotorFrame, len(records))
	for i, r := range records {
		frames[i] = acoustics.RotorFrame{
			Time:      r.Time,
			Speed:     r.MotorSpeed,
			WindSpeed: r.Wind.Sub(r.TrueVel).Norm(),
		}
	}
	audio, err := acoustics.RenderFlight(frames, cfg.Synth, cfg.Array, cfg.Interference...)
	if err != nil {
		return nil, fmt.Errorf("dataset: render audio: %w", err)
	}

	meta := ScenarioMeta{Kind: "benign"}
	switch {
	case cfg.Scenario.GPS != nil:
		meta.Kind = "gps-" + string(cfg.Scenario.GPS.Mode)
		meta.Window = cfg.Scenario.GPS.Window
	case cfg.Scenario.IMU != nil:
		meta.Kind = "imu-" + string(cfg.Scenario.IMU.Mode)
		meta.Window = cfg.Scenario.IMU.Window
	case cfg.Scenario.Actuator != nil:
		meta.Kind = "actuator-dos"
		meta.Window = cfg.Scenario.Actuator.Window
	}
	name := cfg.Name
	if name == "" {
		name = cfg.Mission.Name()
	}
	return &Flight{
		Name:      name,
		Mission:   cfg.Mission.Name(),
		Scenario:  meta,
		Telemetry: telemetry,
		Audio:     audio,
	}, nil
}

// SplitIndices partitions n items into train/val/test index sets with the
// given validation and test fractions, shuffled by seed.
func SplitIndices(n int, valFrac, testFrac float64, seed int64) (train, val, test []int) {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	nVal := int(float64(n) * valFrac)
	nTest := int(float64(n) * testFrac)
	val = idx[:nVal]
	test = idx[nVal : nVal+nTest]
	train = idx[nVal+nTest:]
	return train, val, test
}

// TelemetryBetween returns the telemetry samples with Time in [t0, t1).
func (f *Flight) TelemetryBetween(t0, t1 float64) []TelemetrySample {
	var out []TelemetrySample
	for _, s := range f.Telemetry {
		if s.Time >= t0 && s.Time < t1 {
			out = append(out, s)
		}
	}
	return out
}

// IMUSampleRate estimates the telemetry rate from timestamps.
func (f *Flight) IMUSampleRate() float64 {
	if len(f.Telemetry) < 2 {
		return 0
	}
	dt := (f.Telemetry[len(f.Telemetry)-1].Time - f.Telemetry[0].Time) / float64(len(f.Telemetry)-1)
	if dt <= 0 {
		return 0
	}
	return 1 / dt
}
