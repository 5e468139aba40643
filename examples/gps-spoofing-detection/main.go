// GPS spoofing detection: reproduce the paper's §IV-C scenario — a drift
// (takeover) GPS spoof against a hovering UAV — and compare the three
// Kalman-filter configurations of Tab. II: audio-only, the customized
// audio+IMU fusion, and the IMU-only failsafe.
//
//	go run ./examples/gps-spoofing-detection
package main

import (
	"fmt"
	"log"

	"soundboost/internal/attack"
	"soundboost/internal/baselines"
	soundboost "soundboost/internal/core"
	"soundboost/internal/dataset"
	"soundboost/internal/kalman"
	"soundboost/internal/mathx"
	"soundboost/internal/sim"
)

func main() {
	fmt.Println("preparing model and detectors (benign corpus)...")
	var benign []*dataset.Flight
	missions := []sim.Mission{
		sim.HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: 20},
		sim.NewWaypointMission("dash", mathx.Vec3{Z: -10}, []sim.Waypoint{
			{Pos: mathx.Vec3{X: 8, Z: -10}, Speed: 2, HoldSeconds: 2},
			{Pos: mathx.Vec3{Z: -10}, Speed: 2, HoldSeconds: 2},
		}),
		sim.NewWaypointMission("column", mathx.Vec3{Z: -10}, []sim.Waypoint{
			{Pos: mathx.Vec3{Z: -14}, Speed: 1.5, HoldSeconds: 2},
			{Pos: mathx.Vec3{Z: -10}, Speed: 1.5, HoldSeconds: 2},
		}),
	}
	seed := int64(31)
	for rep := 0; rep < 2; rep++ {
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
	audioOnly, err := soundboost.NewGPSDetector(model, benign, soundboost.DefaultGPSDetectorConfig(kalman.ModeAudioOnly))
	if err != nil {
		log.Fatal(err)
	}
	audioIMU, err := soundboost.NewGPSDetector(model, benign, soundboost.DefaultGPSDetectorConfig(kalman.ModeAudioIMU))
	if err != nil {
		log.Fatal(err)
	}
	failsafe, err := baselines.NewFailsafe(benign, baselines.DefaultFailsafeConfig())
	if err != nil {
		log.Fatal(err)
	}

	// A 2 m/s drift takeover during [8, 28) of a 32 s hover: the spoofer
	// drags the reported position away; the autopilot chases the lie.
	fmt.Println("launching drift-takeover GPS spoof (2 m/s pull)...")
	cfg := dataset.FastGenConfig(sim.HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: 32}, 999)
	cfg.Scenario, err = attack.NewFamily(attack.FamilyGPSDrift, attack.Window{Start: 8, End: 28}, 999, 1)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Scenario.GPS.SpoofOffset = mathx.Vec3{X: 40}
	spoofed, err := dataset.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// Show how far the vehicle was physically dragged.
	last := spoofed.Telemetry[len(spoofed.Telemetry)-1]
	fmt.Printf("physical displacement at landing: %.1f m from the hover point\n\n",
		last.TruePos.Sub(mathx.Vec3{Z: -10}).Norm())

	fmt.Println("detector                      verdict    detection time   peak error / threshold")
	report := func(name string, attacked bool, at, peak, thr float64) {
		verdict := "clean"
		tstr := "-"
		if attacked {
			verdict = "SPOOFED"
			tstr = fmt.Sprintf("t=%.1fs", at)
		}
		fmt.Printf("%-28s  %-8s  %-14s  %.2f / %.2f\n", name, verdict, tstr, peak, thr)
	}
	v1, err := audioOnly.Detect(spoofed)
	if err != nil {
		log.Fatal(err)
	}
	report("soundboost audio-only KF", v1.Attacked, v1.DetectionTime, v1.PeakError, v1.Threshold)
	v2, err := audioIMU.Detect(spoofed)
	if err != nil {
		log.Fatal(err)
	}
	report("soundboost audio+IMU KF", v2.Attacked, v2.DetectionTime, v2.PeakError, v2.Threshold)
	v3, err := failsafe.Detect(spoofed)
	if err != nil {
		log.Fatal(err)
	}
	report("failsafe IMU-only KF", v3.Attacked, v3.DetectionTime, v3.PeakStat, v3.Threshold)

	// Fig. 7 style trace from the audio+IMU detector.
	trace, err := audioIMU.Trace(spoofed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nvelocity estimation trace (Fig. 7):")
	fmt.Printf("%8s %12s %12s %12s\n", "t", "fused |v|", "gps |v|", "run err")
	stride := len(trace.Time) / 16
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < len(trace.Time); i += stride {
		marker := ""
		if trace.Time[i] >= 8 && trace.Time[i] < 28 {
			marker = "  << spoof active"
		}
		fmt.Printf("%8.1f %12.2f %12.2f %12.2f%s\n",
			trace.Time[i], trace.FusedVel[i].Norm(), trace.GPSVel[i].Norm(), trace.RunningError[i], marker)
	}
}
