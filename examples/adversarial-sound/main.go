// Adversarial sound: reproduce the paper's §IV-D robustness experiments —
// real-world interference (a second UAV, a record-and-replay speaker) and
// the idealised phase-synchronised band attacker — and measure their
// effect on acoustic acceleration predictions.
//
//	go run ./examples/adversarial-sound
package main

import (
	"fmt"
	"log"

	"soundboost/internal/acoustics"
	soundboost "soundboost/internal/core"
	"soundboost/internal/dataset"
	"soundboost/internal/mathx"
	"soundboost/internal/sim"
)

func main() {
	fmt.Println("training acoustic model on benign flights...")
	var benign []*dataset.Flight
	seed := int64(21)
	for i := 0; i < 6; i++ {
		f, err := dataset.Generate(dataset.FastGenConfig(sim.HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: 14}, seed))
		if err != nil {
			log.Fatal(err)
		}
		benign = append(benign, f)
		seed += 5
	}
	synth := dataset.FastGenConfig(sim.HoverMission{Seconds: 1}, 0).Synth
	sigCfg := soundboost.DefaultSignatureConfig(synth)
	mapCfg := soundboost.DefaultMappingConfig(sigCfg)
	mapCfg.Hidden = 48
	mapCfg.Train.Epochs = 60
	model, _, err := soundboost.TrainModel(benign[:5], nil, mapCfg)
	if err != nil {
		log.Fatal(err)
	}
	target := benign[5]
	base, err := soundboost.EvaluateMSE(model, []*dataset.Flight{target})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clean prediction MSE: %.4f\n\n", base)

	withInterference := func(name string, itf acoustics.Interference) {
		clone := &dataset.Flight{
			Name: target.Name, Mission: target.Mission, Scenario: target.Scenario,
			Telemetry: target.Telemetry, Audio: target.Audio.Clone(),
		}
		itf.Apply(clone.Audio)
		mse, err := soundboost.EvaluateMSE(model, []*dataset.Flight{clone})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-42s MSE %.4f (%+.1f%%)\n", name, mse, 100*(mse-base)/base)
	}

	// --- Real-world interference: not phase-synchronised, attenuated by
	// distance and diffusion (the paper measured 46% intensity at 0.5 m).
	fmt.Println("real-world interference (paper finds no measurable effect):")
	uavSig, err := acoustics.SecondUAVSignal(synth, synth.HoverSpeed, target.Audio.Samples(), 1234)
	if err != nil {
		log.Fatal(err)
	}
	for _, dist := range []float64{2.0, 1.0, 0.5} {
		withInterference(
			fmt.Sprintf("  second UAV at %.1f m", dist),
			acoustics.ExternalSourceInterference{
				Signal: uavSig, Distance: dist, RefDistance: 0.25, IntensityLossFactor: 0.46,
			})
	}
	replay := acoustics.ReplaySignal{Recording: target.Audio.Channels[0], VolumeGain: 0.5}
	withInterference("  record-and-replay speaker at 0.5 m",
		acoustics.ExternalSourceInterference{
			Signal: replay.Signal(), Distance: 0.5, RefDistance: 0.25, IntensityLossFactor: 0.46,
		})

	// --- Idealised phase-synchronised attacker (Tab. III): exact scaling
	// of the aerodynamic band on chosen channels.
	fmt.Println("\nidealised phase-synchronised band attacks (Tab. III worst case):")
	for _, amp := range []float64{0, 0.5, 1.5, 2.0} {
		for _, nch := range []int{1, 4} {
			channels := make([]int, nch)
			for i := range channels {
				channels[i] = i
			}
			withInterference(
				fmt.Sprintf("  aero band x%.0f%% on %d channel(s)", amp*100, nch),
				acoustics.PhaseSyncedBandAttack{
					Channels: channels, Amplitude: amp,
					BandCenter: synth.AeroFreq, BandQ: 3,
				})
		}
	}
	fmt.Println("\nreal-world attacks barely move predictions; only the physically")
	fmt.Println("unrealisable phase-synchronised attacker degrades them materially.")
}
