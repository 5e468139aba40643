// Quickstart: simulate a benign training corpus, train the acoustic
// model, then run SoundBoost's two-stage RCA over a fresh flight.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	soundboost "soundboost/internal/core"
	"soundboost/internal/dataset"
	"soundboost/internal/mathx"
	"soundboost/internal/sim"
)

func main() {
	// 1. Fly a small benign corpus: the sound + telemetry of each flight
	//    is what a companion computer would record via MAVLink.
	fmt.Println("1. simulating benign training flights...")
	missions := []sim.Mission{
		sim.HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: 14},
		sim.NewWaypointMission("dash", mathx.Vec3{Z: -10}, []sim.Waypoint{
			{Pos: mathx.Vec3{X: 8, Z: -10}, Speed: 2, HoldSeconds: 2},
			{Pos: mathx.Vec3{Z: -10}, Speed: 2, HoldSeconds: 2},
		}),
		sim.NewWaypointMission("column", mathx.Vec3{Z: -10}, []sim.Waypoint{
			{Pos: mathx.Vec3{Z: -14}, Speed: 1.5, HoldSeconds: 2},
			{Pos: mathx.Vec3{Z: -10}, Speed: 1.5, HoldSeconds: 2},
		}),
	}
	var flights []*dataset.Flight
	seed := int64(1)
	for rep := 0; rep < 2; rep++ {
		for _, m := range missions {
			f, err := dataset.Generate(dataset.FastGenConfig(m, seed))
			if err != nil {
				log.Fatal(err)
			}
			flights = append(flights, f)
			seed += 7
		}
	}
	fmt.Printf("   %d flights, %.0f s of audio\n", len(flights), float64(len(flights))*flights[0].Audio.Duration())

	// 2. Train the acoustic signature -> acceleration model (paper §III-B)
	//    with 5x time-shift augmentation.
	fmt.Println("2. training the acoustic model...")
	sigCfg := soundboost.DefaultSignatureConfig(dataset.FastGenConfig(missions[0], 0).Synth)
	mapCfg := soundboost.DefaultMappingConfig(sigCfg)
	mapCfg.Hidden = 48
	mapCfg.Train.Epochs = 60
	model, _, err := soundboost.TrainModel(flights, nil, mapCfg)
	if err != nil {
		log.Fatal(err)
	}
	mse, err := soundboost.EvaluateMSE(model, flights[:2])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   model MSE on benign flights: %.4f\n", mse)

	// 3. Calibrate the two-stage analyzer on benign flights.
	fmt.Println("3. calibrating detectors...")
	analyzer, err := soundboost.NewAnalyzer(model, flights)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Analyse a fresh (benign) flight: the report attributes the root
	//    cause of any anomaly — here there is none.
	fmt.Println("4. analysing a fresh flight...")
	fresh, err := dataset.Generate(dataset.FastGenConfig(sim.HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: 14}, 999))
	if err != nil {
		log.Fatal(err)
	}
	report, err := analyzer.Analyze(fresh)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(report.String())
}
