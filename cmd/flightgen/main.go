// Command flightgen simulates UAV flights — benign or under GPS/IMU
// attacks — and writes them to disk in the SoundBoost flight format
// (JSON telemetry header + single-precision audio payload).
//
// Usage:
//
//	flightgen -out flights/ -mission hover -seconds 30 -seed 1
//	flightgen -out flights/ -mission square -attack gps-drift -attack-start 20 -attack-end 60 -offset-x 30
//	flightgen -out flights/ -mission hover -attack imu-dos -attack-start 10 -attack-end 20
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"soundboost/internal/attack"
	"soundboost/internal/dataset"
	"soundboost/internal/mathx"
	"soundboost/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "flightgen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		out         = flag.String("out", "flights", "output directory")
		name        = flag.String("name", "", "flight name (default: derived)")
		mission     = flag.String("mission", "hover", "mission: hover|column|dash|square|sweep|circuit")
		seconds     = flag.Float64("seconds", 30, "hover duration (hover mission only)")
		variant     = flag.Int("variant", 0, "mission geometry variant")
		seed        = flag.Int64("seed", 1, "simulation seed")
		wind        = flag.String("wind", "calm", "wind condition: calm|breezy|gusty")
		attackKind  = flag.String("attack", "", "attack: gps-static|gps-drift|imu-side-swing|imu-dos (empty = benign)")
		attackStart = flag.Float64("attack-start", 10, "attack window start (s)")
		attackEnd   = flag.Float64("attack-end", 20, "attack window end (s)")
		offsetX     = flag.Float64("offset-x", 10, "GPS spoof offset north (m)")
		offsetY     = flag.Float64("offset-y", 0, "GPS spoof offset east (m)")
		offsetZ     = flag.Float64("offset-z", 0, "GPS spoof offset down (m)")
		magnitude   = flag.Float64("magnitude", 0, "IMU bias magnitude (0 = mode default)")
		fast        = flag.Bool("fast", false, "reduced-rate preset (4 kHz audio, 250 Hz physics) for quick smoke runs")
	)
	flag.Parse()

	var m sim.Mission
	if *mission == "hover" {
		m = sim.HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: *seconds}
	} else {
		var err error
		m, err = sim.MissionByName(*mission, *variant)
		if err != nil {
			return err
		}
	}

	cfg := dataset.DefaultGenConfig(m, *seed)
	if *fast {
		// Same reduced-rate layout the examples use: the acoustic plan is
		// scaled into the 4 kHz Nyquist range so everything downstream
		// (training, calibration, RCA, live streaming) works unchanged.
		cfg.World.PhysicsRate = 250
		cfg.World.ControlRate = 125
		cfg.World.IMU.SampleRate = 125
		cfg.World.Controller.MaxVel = 3
		cfg.Synth.SampleRate = 4000
		cfg.Synth.MechFreq = 900
		cfg.Synth.AeroFreq = 1500
	}
	switch *wind {
	case "calm":
		cfg.World.Wind = sim.CalmWind()
	case "breezy":
		cfg.World.Wind = sim.BreezyWind()
	case "gusty":
		cfg.World.Wind = sim.GustyWind()
	default:
		return fmt.Errorf("unknown wind condition %q", *wind)
	}

	window := attack.Window{Start: *attackStart, End: *attackEnd}
	offset := mathx.Vec3{X: *offsetX, Y: *offsetY, Z: *offsetZ}
	switch *attackKind {
	case "":
		// benign
	case "gps-static":
		cfg.Scenario = attack.Scenario{Name: *attackKind, GPS: &attack.GPSSpoofer{
			Window: window, Mode: attack.GPSSpoofStatic, SpoofOffset: offset, ReportZeroVel: true,
		}}
	case "gps-drift":
		cfg.Scenario = attack.Scenario{Name: *attackKind, GPS: &attack.GPSSpoofer{
			Window: window, Mode: attack.GPSSpoofDrift, SpoofOffset: offset,
		}}
	case "imu-side-swing":
		mag := *magnitude
		if mag == 0 {
			mag = 1.2
		}
		cfg.Scenario = attack.Scenario{Name: *attackKind, IMU: &attack.IMUBiaser{
			Window: window, Mode: attack.IMUSideSwing, Axis: mathx.Vec3{X: 1},
			Magnitude: mag, RampSeconds: 1, OscillateHz: 0.9,
		}}
	case "imu-dos":
		mag := *magnitude
		if mag == 0 {
			mag = 3
		}
		cfg.Scenario = attack.Scenario{Name: *attackKind, IMU: &attack.IMUBiaser{
			Window: window, Mode: attack.IMUAccelDoS, Axis: mathx.Vec3{Z: 1},
			Magnitude: mag, Rng: rand.New(rand.NewSource(*seed + 1)),
		}}
	default:
		return fmt.Errorf("unknown attack %q", *attackKind)
	}

	if *name != "" {
		cfg.Name = *name
	} else if *attackKind != "" {
		cfg.Name = fmt.Sprintf("%s-%s-%d", *mission, *attackKind, *seed)
	} else {
		cfg.Name = fmt.Sprintf("%s-benign-%d", *mission, *seed)
	}

	f, err := dataset.Generate(cfg)
	if err != nil {
		return err
	}
	path := filepath.Join(*out, cfg.Name+".sbf")
	if err := f.SaveFile(path); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %.1fs flight, %d telemetry rows, %.1fs audio @ %g Hz\n",
		path, f.Duration(), len(f.Telemetry), f.Audio.Duration(), f.Audio.SampleRate)
	return nil
}
