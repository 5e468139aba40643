package soundboost

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"

	"soundboost/internal/acoustics"
	"soundboost/internal/dataset"
	"soundboost/internal/mathx"
	"soundboost/internal/nn"
	"soundboost/internal/parallel"
	"soundboost/internal/stats"
)

// MappingConfig controls the sensory-mapping (training) stage (§III-B).
type MappingConfig struct {
	// Signature is the acoustic signature layout.
	Signature SignatureConfig
	// Model selects the regressor family (the paper's best: MobileNetV2,
	// stood in for by ModelMLP).
	Model nn.ModelKind
	// Hidden is the regressor width.
	Hidden int
	// AugmentFactors lists the time-shift augmentation window multipliers
	// (the paper's best configuration: 5x of the 0.5 s window). Each
	// factor > 1 adds one augmented copy of every training window.
	AugmentFactors []float64
	// Train configures the optimisation loop.
	Train nn.TrainConfig
	// Seed drives weight initialisation.
	Seed int64
}

// DefaultMappingConfig returns the paper-tuned configuration.
func DefaultMappingConfig(sig SignatureConfig) MappingConfig {
	return MappingConfig{
		Signature:      sig,
		Model:          nn.ModelMLP,
		Hidden:         64,
		AugmentFactors: []float64{5},
		Train:          nn.TrainConfig{Epochs: 60, BatchSize: 32, LR: 2e-3, Seed: 1},
		Seed:           1,
	}
}

// AcousticModel is the trained signature → acceleration regressor plus the
// normalisation needed to apply it.
type AcousticModel struct {
	cfg      MappingConfig
	net      *nn.Sequential
	featNorm stats.ZScore
	labNorm  stats.ZScore
	prog     *nn.Net // net lowered for inference
}

// newAcousticModel assembles a model and compiles its inference
// program.
func newAcousticModel(cfg MappingConfig, net *nn.Sequential, featNorm, labNorm stats.ZScore) (*AcousticModel, error) {
	prog, err := nn.Compile(net)
	if err != nil {
		return nil, fmt.Errorf("soundboost: compile model: %w", err)
	}
	return &AcousticModel{cfg: cfg, net: net, featNorm: featNorm, labNorm: labNorm, prog: prog}, nil
}

// Config returns the model's mapping configuration.
func (m *AcousticModel) Config() MappingConfig { return m.cfg }

// WindowSample is one aligned (signature, IMU label) training pair.
type WindowSample struct {
	// FlightIndex identifies the source flight.
	FlightIndex int
	// Start is the window start time in flight seconds.
	Start float64
	// Features is the acoustic signature.
	Features []float64
	// Label is the mean IMU specific force (body frame) over the window.
	Label mathx.Vec3
}

// BuildWindows extracts aligned windows from a flight. augment > 1 extracts
// the stretched-window variant instead of the base window (time-shift
// augmentation); the label stays the IMU mean over the base window, since
// the stretched window represents the same actuation seen under headwind.
func BuildWindows(f *dataset.Flight, cfg SignatureConfig, flightIndex int, augment float64) ([]WindowSample, error) {
	ex, err := NewExtractor(f.Audio, cfg)
	if err != nil {
		return nil, err
	}
	if augment <= 0 {
		augment = 1
	}
	baseWin := cfg.WindowSeconds
	exWin := baseWin * augment
	rows := splitFlight(f)
	// Windows are independent reads of the shared extractor and telemetry;
	// fan them out and keep results in start-time order so the parallel
	// path is byte-identical to the serial one.
	starts := ex.WindowStarts(exWin)
	samples := parallel.Map(0, len(starts), func(i int) *WindowSample {
		t0 := starts[i]
		// Label: mean IMU accel over the *base* window at the start of the
		// stretched window (the actuation outcome the sound leads to).
		imu, _, _ := rows.between(t0, t0+baseWin)
		feat := ex.Features(t0, exWin)
		if feat == nil || len(imu) == 0 {
			return nil
		}
		return &WindowSample{
			FlightIndex: flightIndex,
			Start:       t0,
			Features:    cfg.withAttitude(feat, imu),
			Label:       meanAccel(imu),
		}
	})
	var out []WindowSample
	for _, s := range samples {
		if s != nil {
			out = append(out, *s)
		}
	}
	return out, nil
}

// ExtractTrainingWindows extracts the (feature, label) pairs of one flight
// under the mapping config, including its augmented copies. Callers that
// cannot hold a whole corpus in memory stream flights through this and
// train with TrainModelFromSamples.
func ExtractTrainingWindows(f *dataset.Flight, cfg MappingConfig, flightIndex int) (xs, ys [][]float64, err error) {
	add := func(factor float64) error {
		windows, err := BuildWindows(f, cfg.Signature, flightIndex, factor)
		if err != nil {
			return err
		}
		for _, w := range windows {
			xs = append(xs, w.Features)
			ys = append(ys, w.Label.Slice())
		}
		return nil
	}
	if err := add(1); err != nil {
		return nil, nil, err
	}
	for _, factor := range cfg.AugmentFactors {
		// A 1x factor duplicates the base windows (the paper's "w/ 1x"
		// Tab. I row); other factors extract stretched windows.
		if err := add(factor); err != nil {
			return nil, nil, fmt.Errorf("soundboost: augment %gx: %w", factor, err)
		}
	}
	return xs, ys, nil
}

// TrainModelFromSamples fits the acoustic model on pre-extracted raw
// (feature, label) pairs. Validation pairs are optional.
func TrainModelFromSamples(xs, ys, valX, valY [][]float64, cfg MappingConfig) (*AcousticModel, nn.TrainHistory, error) {
	if err := cfg.Signature.Validate(); err != nil {
		return nil, nn.TrainHistory{}, err
	}
	if len(xs) == 0 || len(xs) != len(ys) {
		return nil, nn.TrainHistory{}, fmt.Errorf("soundboost: bad training set: %d features, %d labels", len(xs), len(ys))
	}
	featNorm := stats.FitZScore(xs)
	labNorm := stats.FitZScore(ys)
	normX := make([][]float64, len(xs))
	normY := make([][]float64, len(ys))
	for i := range xs {
		normX[i] = featNorm.Apply(xs[i])
		normY[i] = labNorm.Apply(ys[i])
	}
	trainCfg := cfg.Train
	if len(valX) > 0 {
		vx := make([][]float64, len(valX))
		vy := make([][]float64, len(valY))
		for i := range valX {
			vx[i] = featNorm.Apply(valX[i])
			vy[i] = labNorm.Apply(valY[i])
		}
		trainCfg.ValX = vx
		trainCfg.ValY = vy
	}
	hidden := cfg.Hidden
	if hidden <= 0 {
		hidden = 64
	}
	net, err := nn.NewRegressor(cfg.Model, cfg.Signature.FeatureDim(), hidden, 3, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, nn.TrainHistory{}, err
	}
	hist, err := nn.Train(net, normX, normY, trainCfg)
	if err != nil {
		return nil, nn.TrainHistory{}, err
	}
	m, err := newAcousticModel(cfg, net, featNorm, labNorm)
	return m, hist, err
}

// TrainModel fits the acoustic model on benign training flights, applying
// the configured time-shift augmentation. valFlights (optional) provide
// the validation MSE reported in the returned history.
func TrainModel(trainFlights, valFlights []*dataset.Flight, cfg MappingConfig) (*AcousticModel, nn.TrainHistory, error) {
	var xs, ys [][]float64
	for i, f := range trainFlights {
		fx, fy, err := ExtractTrainingWindows(f, cfg, i)
		if err != nil {
			return nil, nn.TrainHistory{}, fmt.Errorf("soundboost: flight %d: %w", i, err)
		}
		xs = append(xs, fx...)
		ys = append(ys, fy...)
	}
	var valX, valY [][]float64
	for i, f := range valFlights {
		windows, err := BuildWindows(f, cfg.Signature, i, 1)
		if err != nil {
			return nil, nn.TrainHistory{}, err
		}
		for _, w := range windows {
			valX = append(valX, w.Features)
			valY = append(valY, w.Label.Slice())
		}
	}
	return TrainModelFromSamples(xs, ys, valX, valY, cfg)
}

// Predict maps a raw signature to the predicted body-frame specific force.
// It runs the compiled network program — bitwise equal to the training
// network's cache-free inference path — and is safe for concurrent use.
func (m *AcousticModel) Predict(features []float64) mathx.Vec3 {
	span := predictTimer.Start()
	defer span.Stop()
	return m.predict(features, nil)
}

// PredictMasked predicts with the given feature indices zeroed (in
// normalised space) — the counterfactual band-removal analysis of §IV-A.
func (m *AcousticModel) PredictMasked(features []float64, masked []int) mathx.Vec3 {
	return m.predict(features, masked)
}

// predict normalises features as (x-mean)/std — the training-time
// normalizer — zeroes the masked indices, runs the network and
// de-normalises the output.
func (m *AcousticModel) predict(features []float64, masked []int) mathx.Vec3 {
	x := make([]float64, len(features))
	for i, v := range features {
		x[i] = (v - m.featNorm.Mean[i]) / m.featNorm.Std[i]
	}
	for _, i := range masked {
		if i >= 0 && i < len(x) {
			x[i] = 0
		}
	}
	out := m.prog.Infer(x)
	return mathx.Vec3{
		X: out[0]*m.labNorm.Std[0] + m.labNorm.Mean[0],
		Y: out[1]*m.labNorm.Std[1] + m.labNorm.Mean[1],
		Z: out[2]*m.labNorm.Std[2] + m.labNorm.Mean[2],
	}
}

// EvaluateMSEBandRemoved computes the model's MSE over a flight set after
// removing a frequency band from the audio *signal* (zero-phase band-stop
// on every channel) — the counterfactual feature-importance analysis of
// §IV-A, which removes frequency groups rather than feature columns.
func EvaluateMSEBandRemoved(m *AcousticModel, flights []*dataset.Flight, centerHz, q float64) (float64, error) {
	var total float64
	var count int
	for i, f := range flights {
		stripped := &dataset.Flight{
			Name:      f.Name,
			Mission:   f.Mission,
			Scenario:  f.Scenario,
			Telemetry: f.Telemetry,
			Audio:     f.Audio.Clone(),
		}
		cancel := acoustics.PhaseSyncedBandAttack{
			Channels:   []int{0, 1, 2, 3},
			Amplitude:  0,
			BandCenter: centerHz,
			BandQ:      q,
		}
		cancel.Apply(stripped.Audio)
		windows, err := BuildWindows(stripped, m.cfg.Signature, i, 1)
		if err != nil {
			return 0, err
		}
		for _, w := range windows {
			pred := m.Predict(w.Features)
			total += pred.Sub(w.Label).NormSq()
			count += 3
		}
	}
	if count == 0 {
		return 0, fmt.Errorf("soundboost: no evaluation windows")
	}
	return total / float64(count), nil
}

// EvaluateMSE computes the model's MSE over a flight set (per-axis mean,
// matching the paper's Tab. I metric).
func EvaluateMSE(m *AcousticModel, flights []*dataset.Flight) (float64, error) {
	var total float64
	var count int
	for i, f := range flights {
		windows, err := BuildWindows(f, m.cfg.Signature, i, 1)
		if err != nil {
			return 0, err
		}
		for _, w := range windows {
			pred := m.Predict(w.Features)
			d := pred.Sub(w.Label)
			total += d.NormSq()
			count += 3
		}
	}
	if count == 0 {
		return 0, fmt.Errorf("soundboost: no evaluation windows")
	}
	return total / float64(count), nil
}

// modelFile is the serialised AcousticModel.
type modelFile struct {
	Cfg      MappingConfig   `json:"config"`
	FeatNorm stats.ZScore    `json:"feat_norm"`
	LabNorm  stats.ZScore    `json:"label_norm"`
	Net      json.RawMessage `json:"net"`
}

// Save writes the model to w as JSON.
func (m *AcousticModel) Save(w io.Writer) error {
	var netBuf bytes.Buffer
	hidden := m.cfg.Hidden
	if hidden <= 0 {
		hidden = 64
	}
	if err := nn.SaveRegressor(&netBuf, m.net, m.cfg.Model, m.cfg.Signature.FeatureDim(), hidden, 3); err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(modelFile{
		Cfg:      m.cfg,
		FeatNorm: m.featNorm,
		LabNorm:  m.labNorm,
		Net:      json.RawMessage(netBuf.Bytes()),
	})
}

// LoadModel reads a model written by Save.
func LoadModel(r io.Reader) (*AcousticModel, error) {
	var mf modelFile
	if err := json.NewDecoder(r).Decode(&mf); err != nil {
		return nil, fmt.Errorf("soundboost: decode model: %w", err)
	}
	net, _, err := nn.LoadRegressor(bytes.NewReader(mf.Net))
	if err != nil {
		return nil, err
	}
	return newAcousticModel(mf.Cfg, net, mf.FeatNorm, mf.LabNorm)
}
