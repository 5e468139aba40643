// IMU attack RCA: reproduce the paper's §IV-B scenario — a hovering UAV
// whose IMU is spoofed mid-flight (gyroscope Side-Swing and accelerometer
// DoS) — and show SoundBoost attributing the failure to the IMU from the
// acoustic side-channel.
//
//	go run ./examples/imu-attack-rca
package main

import (
	"fmt"
	"log"

	"soundboost/internal/attack"
	soundboost "soundboost/internal/core"
	"soundboost/internal/dataset"
	"soundboost/internal/mathx"
	"soundboost/internal/sim"
)

func main() {
	// Train + calibrate on benign hovers and gentle maneuvers.
	fmt.Println("preparing model and detector (benign corpus)...")
	var benign []*dataset.Flight
	missions := []sim.Mission{
		sim.HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: 14},
		sim.NewWaypointMission("dash", mathx.Vec3{Z: -10}, []sim.Waypoint{
			{Pos: mathx.Vec3{X: 8, Z: -10}, Speed: 2, HoldSeconds: 2},
			{Pos: mathx.Vec3{Z: -10}, Speed: 2, HoldSeconds: 2},
		}),
	}
	seed := int64(11)
	for rep := 0; rep < 3; rep++ {
		for _, m := range missions {
			f, err := dataset.Generate(dataset.FastGenConfig(m, seed))
			if err != nil {
				log.Fatal(err)
			}
			benign = append(benign, f)
			seed += 5
		}
	}
	sigCfg := soundboost.DefaultSignatureConfig(dataset.FastGenConfig(missions[0], 0).Synth)
	mapCfg := soundboost.DefaultMappingConfig(sigCfg)
	mapCfg.Hidden = 48
	mapCfg.Train.Epochs = 60
	model, _, err := soundboost.TrainModel(benign, nil, mapCfg)
	if err != nil {
		log.Fatal(err)
	}
	detector, err := soundboost.NewIMUDetector(model, benign, soundboost.DefaultIMUDetectorConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("benign residuals: N(%.3f, %.3f)\n\n", detector.BenignDistribution().Mu, detector.BenignDistribution().Sigma)

	// Two synthesized IMU biasing attacks during a 14 s hover, spoofing
	// event in [5, 11) (paper: 10 s events while hovering).
	attacks := []struct{ name, family string }{
		{"gyroscope side-swing (rocking)", attack.FamilyIMUSideSwing},
		{"accelerometer DoS (random injection)", attack.FamilyIMUDoS},
	}
	for _, a := range attacks {
		seed := 500 + int64(len(a.name))
		cfg := dataset.FastGenConfig(sim.HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: 14}, seed)
		if cfg.Scenario, err = attack.NewFamily(a.family, attack.Window{Start: 5, End: 11}, seed, 1); err != nil {
			log.Fatal(err)
		}
		f, err := dataset.Generate(cfg)
		if err != nil {
			log.Fatal(err)
		}
		verdict, err := detector.Detect(f)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("attack: %s\n", a.name)
		if verdict.Attacked {
			fmt.Printf("  DETECTED at t=%.1fs (onset t=5.0s, delay %.1fs)\n", verdict.DetectionTime, verdict.DetectionTime-5)
			fmt.Printf("  residual sigma during attack: %.2f (benign %.2f)\n",
				verdict.AttackStd, detector.BenignDistribution().Sigma)
		} else {
			fmt.Println("  missed!")
		}
		// Fig. 6 style histogram summary.
		hist, err := detector.ResidualHistogram(f, -6, 6, 24)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("  z-residual histogram (Fig. 6):")
		maxD := 0.0
		for i := range hist.Counts {
			if d := hist.Density(i); d > maxD {
				maxD = d
			}
		}
		for i := range hist.Counts {
			bar := int(40 * hist.Density(i) / maxD)
			fmt.Printf("  %6.1f %s\n", hist.BinCenter(i), repeat('#', bar))
		}
		fmt.Println()
	}
}

func repeat(c byte, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = c
	}
	return string(b)
}
