package experiments

import (
	"fmt"
	"time"

	"soundboost/internal/baselines"
	soundboost "soundboost/internal/core"
	"soundboost/internal/dataset"
	"soundboost/internal/kalman"
	"soundboost/internal/nn"
	"soundboost/internal/obs"
	"soundboost/internal/parallel"
	"soundboost/internal/sim"
)

// Lab-build stage timers, gated by obs.Enable: corpus generation (all
// simulated flights), model training, and detector calibration, plus
// the end-to-end build.
var (
	labBuildTimer     = obs.Default.Timer("experiments.lab.build")
	labCorpusTimer    = obs.Default.Timer("experiments.lab.corpus")
	labTrainTimer     = obs.Default.Timer("experiments.lab.train")
	labCalibrateTimer = obs.Default.Timer("experiments.lab.calibrate")
)

// Lab holds the trained model, calibrated detectors, and the benign
// corpora shared by all experiments at one scale. Building a Lab is the
// expensive one-time step (paper §IV-C: "offline training and parameter
// tuning... only need to be performed once for each UAV model").
type Lab struct {
	// Scale is the experiment scale.
	Scale Scale
	// Model is the trained acoustic model.
	Model *soundboost.AcousticModel
	// History is the model's training history.
	History nn.TrainHistory
	// TrainMSE, ValMSE, TestMSE summarise the model fit.
	TrainMSE, ValMSE, TestMSE float64

	// Calib are the benign detector-calibration flights (held in memory).
	Calib []*dataset.Flight
	// GPSCalib are benign flights with the *period* duration profile, used
	// to calibrate the velocity-error detectors: thresholds must be learned
	// on flights as long as the periods they will judge, or accumulated
	// drift makes them systematically optimistic.
	GPSCalib []*dataset.Flight
	// Val are the validation flights.
	Val []*dataset.Flight

	// Detectors calibrated once.
	IMUDetector  *soundboost.IMUDetector
	GPSAudioOnly *soundboost.GPSDetector
	GPSAudioIMU  *soundboost.GPSDetector
	Failsafe     *baselines.Failsafe
	LTIYaw       *baselines.LTI
	LTIVx        *baselines.LTI
	LTIVy        *baselines.LTI
	DNN          *baselines.DNN

	// BuildSeconds records how long the lab took to assemble.
	BuildSeconds float64

	// logf receives progress lines.
	logf func(format string, args ...any)
}

// LabOption customises lab construction.
type LabOption func(*labOptions)

type labOptions struct {
	logf func(format string, args ...any)
}

// WithLogf streams progress lines during lab construction.
func WithLogf(f func(format string, args ...any)) LabOption {
	return func(o *labOptions) { o.logf = f }
}

// NewLab generates the training corpus, trains the acoustic model, and
// calibrates every detector (SoundBoost's two stages plus all baselines).
func NewLab(scale Scale, opts ...LabOption) (*Lab, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	var o labOptions
	for _, opt := range opts {
		opt(&o)
	}
	logf := o.logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	start := time.Now()
	buildSpan := labBuildTimer.Start()
	defer buildSpan.Stop()
	corpusSpan := labCorpusTimer.Start()

	sigCfg := soundboost.DefaultSignatureConfig(scale.SignatureConfig())
	mapCfg := soundboost.DefaultMappingConfig(sigCfg)
	mapCfg.Hidden = scale.Hidden
	mapCfg.Train.Epochs = scale.Epochs
	mapCfg.Seed = scale.Seed

	lab := &Lab{Scale: scale, logf: logf}

	// --- Training corpus: flights generate and extract independently, so
	// they fan out across the worker pool; pairs concatenate in flight
	// order, keeping the dataset identical to the serial build.
	type flightPairs struct {
		mission string
		xs, ys  [][]float64
	}
	trainParts, err := parallel.MapErr(0, scale.TrainFlights, func(i int) (flightPairs, error) {
		missions := trainingMissions(scale, i)
		mission := missions[i%len(missions)]
		cfg := scale.genConfig(mission, scale.trainSeed(i), sim.WindCycle(i))
		cfg.Name = fmt.Sprintf("train-%02d-%s", i, mission.Name())
		f, err := dataset.Generate(cfg)
		if err != nil {
			return flightPairs{}, fmt.Errorf("experiments: train flight %d: %w", i, err)
		}
		fx, fy, err := soundboost.ExtractTrainingWindows(f, mapCfg, i)
		if err != nil {
			return flightPairs{}, fmt.Errorf("experiments: extract flight %d: %w", i, err)
		}
		return flightPairs{mission: mission.Name(), xs: fx, ys: fy}, nil
	})
	if err != nil {
		return nil, err
	}
	var xs, ys [][]float64
	for i, part := range trainParts {
		xs = append(xs, part.xs...)
		ys = append(ys, part.ys...)
		logf("train flight %d/%d (%s): %d windows", i+1, scale.TrainFlights, part.mission, len(part.xs))
	}

	// --- Validation corpus (kept for MSE reporting).
	lab.Val, err = parallel.MapErr(0, scale.ValFlights, func(i int) (*dataset.Flight, error) {
		missions := trainingMissions(scale, i+1)
		mission := missions[(i*2+1)%len(missions)]
		cfg := scale.genConfig(mission, scale.valSeed(i), sim.WindCycle(i+1))
		cfg.Name = fmt.Sprintf("val-%02d-%s", i, mission.Name())
		f, err := dataset.Generate(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: val flight %d: %w", i, err)
		}
		return f, nil
	})
	if err != nil {
		return nil, err
	}
	var valX, valY [][]float64
	for i, f := range lab.Val {
		windows, err := soundboost.BuildWindows(f, sigCfg, i, 1)
		if err != nil {
			return nil, err
		}
		for _, w := range windows {
			valX = append(valX, w.Features)
			valY = append(valY, w.Label.Slice())
		}
	}

	corpusSpan.Stop()

	logf("training model on %d windows (%d val)", len(xs), len(valX))
	trainSpan := labTrainTimer.Start()
	model, hist, err := soundboost.TrainModelFromSamples(xs, ys, valX, valY, mapCfg)
	trainSpan.Stop()
	if err != nil {
		return nil, fmt.Errorf("experiments: train model: %w", err)
	}
	lab.Model = model
	lab.History = hist
	if n := len(hist.TrainMSE); n > 0 {
		lab.TrainMSE = hist.TrainMSE[n-1]
	}
	if n := len(hist.ValMSE); n > 0 {
		lab.ValMSE = hist.ValMSE[n-1]
	}

	// --- Calibration corpus: mission-diverse benign flights.
	calibSpan := labCalibrateTimer.Start()
	defer calibSpan.Stop()
	lab.Calib, err = parallel.MapErr(0, scale.CalibFlights, func(i int) (*dataset.Flight, error) {
		missions := trainingMissions(scale, i+2)
		mission := missions[i%len(missions)]
		cfg := scale.genConfig(mission, scale.calibSeed(i), sim.WindCycle(i))
		cfg.Name = fmt.Sprintf("calib-%02d-%s", i, mission.Name())
		f, err := dataset.Generate(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: calib flight %d: %w", i, err)
		}
		return f, nil
	})
	if err != nil {
		return nil, err
	}
	if mse, err := soundboost.EvaluateMSE(model, lab.Calib); err == nil {
		lab.TestMSE = mse
	}

	// --- GPS calibration corpus: benign periods with the same duration
	// profile as the Tab. II periods.
	lab.GPSCalib, err = parallel.MapErr(0, scale.gpsCalibFlights(), func(i int) (*dataset.Flight, error) {
		spec := PeriodSpec{
			Index:    i,
			Seed:     scale.gpsCalibSeed(i),
			Duration: scale.GPSPeriodMin + float64(i%3)/2*(scale.GPSPeriodMax-scale.GPSPeriodMin),
			Mission:  map[bool]string{true: "square", false: "hover"}[i%2 == 1],
		}
		f, err := scale.GeneratePeriod(spec)
		if err != nil {
			return nil, fmt.Errorf("experiments: gps calib %d: %w", i, err)
		}
		f.Name = fmt.Sprintf("gps-calib-%02d", i)
		return f, nil
	})
	if err != nil {
		return nil, err
	}

	// --- Detectors: the calibrations are independent, so they run
	// concurrently on the worker pool. Each writes a distinct Lab field.
	logf("calibrating detectors on %d benign flights", len(lab.Calib))
	dnnCfg := baselines.DefaultDNNConfig()
	if scale.Name == "quick" {
		dnnCfg.Train.Epochs = 8
	}
	err = parallel.Run(0,
		func() (err error) {
			lab.IMUDetector, err = soundboost.NewIMUDetector(model, lab.Calib, soundboost.DefaultIMUDetectorConfig())
			if err != nil {
				err = fmt.Errorf("experiments: IMU detector: %w", err)
			}
			return
		},
		func() error {
			// Both KF variants calibrate from one pass over the GPS corpus.
			dets, err := soundboost.NewGPSDetectors(model, lab.GPSCalib,
				soundboost.DefaultGPSDetectorConfig(kalman.ModeAudioOnly),
				soundboost.DefaultGPSDetectorConfig(kalman.ModeAudioIMU))
			if err != nil {
				return fmt.Errorf("experiments: GPS detectors: %w", err)
			}
			lab.GPSAudioOnly, lab.GPSAudioIMU = dets[0], dets[1]
			return nil
		},
		func() (err error) {
			lab.Failsafe, err = baselines.NewFailsafe(lab.GPSCalib, baselines.DefaultFailsafeConfig())
			if err != nil {
				err = fmt.Errorf("experiments: failsafe: %w", err)
			}
			return
		},
		func() (err error) {
			lab.LTIYaw, err = baselines.NewLTI(lab.Calib, baselines.DefaultLTIConfig(baselines.LTIYaw))
			if err != nil {
				err = fmt.Errorf("experiments: LTI yaw: %w", err)
			}
			return
		},
		func() (err error) {
			lab.LTIVx, err = baselines.NewLTI(lab.Calib, baselines.DefaultLTIConfig(baselines.LTIVx))
			if err != nil {
				err = fmt.Errorf("experiments: LTI vx: %w", err)
			}
			return
		},
		func() (err error) {
			lab.LTIVy, err = baselines.NewLTI(lab.Calib, baselines.DefaultLTIConfig(baselines.LTIVy))
			if err != nil {
				err = fmt.Errorf("experiments: LTI vy: %w", err)
			}
			return
		},
		func() (err error) {
			lab.DNN, err = baselines.NewDNN(lab.Calib, dnnCfg)
			if err != nil {
				err = fmt.Errorf("experiments: DNN: %w", err)
			}
			return
		},
	)
	if err != nil {
		return nil, err
	}

	lab.BuildSeconds = time.Since(start).Seconds()
	logf("lab ready in %.1fs (train MSE %.4f, val MSE %.4f, test MSE %.4f)",
		lab.BuildSeconds, lab.TrainMSE, lab.ValMSE, lab.TestMSE)
	return lab, nil
}

// Generator seeds of flight i of each lab corpus. No two flights of a
// lab, the Tab. II periods and the §IV-B flights included, may share a
// seed (TestLabSeedsDisjoint): a shared seed would replay one session
// in two roles.
func (s Scale) trainSeed(i int) int64    { return s.Seed + 100 + int64(i)*7 }
func (s Scale) valSeed(i int) int64      { return s.Seed + 300 + int64(i)*11 }
func (s Scale) calibSeed(i int) int64    { return s.Seed + 500 + int64(i)*13 }
func (s Scale) gpsCalibSeed(i int) int64 { return s.Seed + 700 + int64(i)*29 }

// gpsCalibFlights is the size of the GPS calibration corpus: the
// calibration corpus's, and at least 8.
func (s Scale) gpsCalibFlights() int { return max(s.CalibFlights, 8) }

// Analyzer assembles the full two-stage RCA pipeline from the lab's
// detectors.
func (l *Lab) Analyzer() *soundboost.Analyzer {
	return &soundboost.Analyzer{
		Model:        l.Model,
		IMU:          l.IMUDetector,
		GPSAudioOnly: l.GPSAudioOnly,
		GPSAudioIMU:  l.GPSAudioIMU,
	}
}
