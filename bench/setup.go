package main

import (
	"fmt"

	soundboost "soundboost/internal/core"
	"soundboost/internal/kalman"
	"soundboost/internal/parallel"
	"soundboost/internal/triage"
)

// buildAnalyzer is the set-up every workload times: training-window
// extraction, model training, calibration of the IMU and both GPS
// detectors, and triage training plus its zero-flip verification — the
// steps of experiments.NewLab and experiments.TriageAnalyzer that turn
// recorded flights into a calibrated analyzer, without the baselines
// and the validation score.
// The flights are already in memory; simulating them is not set-up.
func buildAnalyzer(c *corpus) (*soundboost.Analyzer, error) {
	sigCfg := soundboost.DefaultSignatureConfig(c.scale.SignatureConfig())
	mapCfg := soundboost.DefaultMappingConfig(sigCfg)
	mapCfg.Hidden = c.scale.Hidden
	mapCfg.Train.Epochs = c.scale.Epochs
	mapCfg.Seed = c.scale.Seed

	type pairs struct{ xs, ys [][]float64 }
	parts, err := parallel.MapErr(0, len(c.train), func(i int) (pairs, error) {
		xs, ys, err := soundboost.ExtractTrainingWindows(c.train[i], mapCfg, i)
		return pairs{xs, ys}, err
	})
	if err != nil {
		return nil, fmt.Errorf("bench: training windows: %w", err)
	}
	var xs, ys [][]float64
	for _, p := range parts {
		xs = append(xs, p.xs...)
		ys = append(ys, p.ys...)
	}
	model, _, err := soundboost.TrainModelFromSamples(xs, ys, nil, nil, mapCfg)
	if err != nil {
		return nil, fmt.Errorf("bench: train model: %w", err)
	}

	an := &soundboost.Analyzer{Model: model}
	err = parallel.Run(0,
		func() (err error) {
			an.IMU, err = soundboost.NewIMUDetector(model, c.calib, soundboost.DefaultIMUDetectorConfig())
			return err
		},
		func() (err error) {
			an.GPSAudioOnly, err = soundboost.NewGPSDetector(model, c.gpsCalib, soundboost.DefaultGPSDetectorConfig(kalman.ModeAudioOnly))
			return err
		},
		func() (err error) {
			an.GPSAudioIMU, err = soundboost.NewGPSDetector(model, c.gpsCalib, soundboost.DefaultGPSDetectorConfig(kalman.ModeAudioIMU))
			return err
		},
	)
	if err != nil {
		return nil, fmt.Errorf("bench: calibrate: %w", err)
	}

	tierCorpus := append(c.calib[:len(c.calib):len(c.calib)], c.triageAttacks...)
	an.Triage, err = soundboost.TrainTriage(tierCorpus, sigCfg, triage.Config{})
	if err != nil {
		return nil, fmt.Errorf("bench: train triage: %w", err)
	}
	if _, _, err := an.VerifyTriage(tierCorpus); err != nil {
		return nil, fmt.Errorf("bench: verify triage: %w", err)
	}
	return an, nil
}
