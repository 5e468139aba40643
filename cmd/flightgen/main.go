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
	"os"
	"path/filepath"
	"strings"

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
		attackKind  = flag.String("attack", "", "attack: "+strings.Join(attack.Families, "|")+" (empty = benign)")
		attackStart = flag.Float64("attack-start", 10, "attack window start (s)")
		attackEnd   = flag.Float64("attack-end", 20, "attack window end (s)")
		offsetX     = flag.Float64("offset-x", 10, "GPS spoof offset north (m)")
		offsetY     = flag.Float64("offset-y", 0, "GPS spoof offset east (m)")
		offsetZ     = flag.Float64("offset-z", 0, "GPS spoof offset down (m)")
		magnitude   = flag.Float64("magnitude", 0, "IMU bias magnitude (0 = family default)")
		fast        = flag.Bool("fast", false, "reduced-rate preset (4 kHz audio, 250 Hz physics) for quick smoke runs")
	)
	flag.Parse()

	var (
		m   sim.Mission
		err error
	)
	if *mission == "hover" {
		m = sim.HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: *seconds}
	} else if m, err = sim.MissionByName(*mission, *variant); err != nil {
		return err
	}

	gen := dataset.DefaultGenConfig
	if *fast {
		gen = dataset.FastGenConfig
	}
	cfg := gen(m, *seed)
	if cfg.World.Wind, err = sim.WindByName(*wind); err != nil {
		return err
	}
	if *attackKind != "" {
		window := attack.Window{Start: *attackStart, End: *attackEnd}
		if cfg.Scenario, err = attack.NewFamily(*attackKind, window, *seed, 1); err != nil {
			return err
		}
		if g := cfg.Scenario.GPS; g != nil {
			g.SpoofOffset = mathx.Vec3{X: *offsetX, Y: *offsetY, Z: *offsetZ}
		}
		if b := cfg.Scenario.IMU; b != nil && *magnitude != 0 {
			b.Magnitude = *magnitude
		}
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
