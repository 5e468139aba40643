package experiments

import (
	"fmt"
	"strings"

	soundboost "soundboost/internal/core"
	"soundboost/internal/dataset"
	"soundboost/internal/mathx"
	"soundboost/internal/nn"
	"soundboost/internal/sim"
)

// Table1Row is one augmentation configuration's result (paper Tab. I).
type Table1Row struct {
	// Label names the augmentation ("No Aug.", "w/ 5x", ...).
	Label string
	// Factors are the augmentation window multipliers applied.
	Factors []float64
	// TrainMSE, ValMSE, TestMSE are raw-space mean squared errors.
	TrainMSE float64
	ValMSE   float64
	TestMSE  float64
}

// Table1Result is the full augmentation sweep.
type Table1Result struct {
	Rows []Table1Row
	// Best is the label of the lowest-validation-MSE row.
	Best string
}

// String renders the table like the paper's Tab. I.
func (r Table1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %14s %10s\n", "Augment", "Train MSE", "Validation MSE", "Test MSE")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %10.4f %14.4f %10.4f\n", row.Label, row.TrainMSE, row.ValMSE, row.TestMSE)
	}
	fmt.Fprintf(&b, "best by validation: %s\n", r.Best)
	return b.String()
}

// RunTable1 sweeps the time-shift augmentation factors of Tab. I: for each
// configuration it retrains the acoustic model and reports train /
// validation / test MSE. The sweep reuses one generated corpus.
func RunTable1(scale Scale, logf func(string, ...any)) (Table1Result, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if err := scale.Validate(); err != nil {
		return Table1Result{}, err
	}
	sigCfg := soundboost.DefaultSignatureConfig(scale.SignatureConfig())

	// Corpus: bounded subset of the scale's training counts so the sweep's
	// repeated re-extraction stays affordable.
	nTrain := scale.TrainFlights
	if nTrain > 12 {
		nTrain = 12
	}
	nVal := scale.ValFlights
	if nVal < 1 {
		nVal = 1
	}
	nTest := nVal
	gen := func(kind string, i int, seedBase int64) (*dataset.Flight, error) {
		missions := trainingMissions(scale, i)
		mission := missions[i%len(missions)]
		cfg := scale.genConfig(mission, seedBase+int64(i)*7, sim.WindCycle(i))
		cfg.Name = fmt.Sprintf("t1-%s-%02d", kind, i)
		return dataset.Generate(cfg)
	}
	var train, val, test []*dataset.Flight
	for i := 0; i < nTrain; i++ {
		f, err := gen("train", i, scale.Seed+1100)
		if err != nil {
			return Table1Result{}, err
		}
		train = append(train, f)
	}
	for i := 0; i < nVal; i++ {
		f, err := gen("val", i, scale.Seed+1400)
		if err != nil {
			return Table1Result{}, err
		}
		val = append(val, f)
	}
	for i := 0; i < nTest; i++ {
		f, err := gen("test", i, scale.Seed+1700)
		if err != nil {
			return Table1Result{}, err
		}
		test = append(test, f)
	}

	configs := []struct {
		label   string
		factors []float64
	}{
		{"w/ 0.5x", []float64{0.5}},
		{"No Aug.", nil},
		{"w/ 1x", []float64{1}},
		{"w/ 2x", []float64{2}},
		{"w/ 3x", []float64{3}},
		{"w/ 5x", []float64{5}},
	}
	var result Table1Result
	bestVal := 0.0
	for _, c := range configs {
		mapCfg := soundboost.DefaultMappingConfig(sigCfg)
		mapCfg.Hidden = scale.Hidden
		mapCfg.Train.Epochs = scale.Epochs
		mapCfg.Seed = scale.Seed
		mapCfg.AugmentFactors = c.factors

		model, _, err := soundboost.TrainModel(train, nil, mapCfg)
		if err != nil {
			return Table1Result{}, fmt.Errorf("experiments: table1 %s: %w", c.label, err)
		}
		trainMSE, err := soundboost.EvaluateMSE(model, train)
		if err != nil {
			return Table1Result{}, err
		}
		valMSE, err := soundboost.EvaluateMSE(model, val)
		if err != nil {
			return Table1Result{}, err
		}
		testMSE, err := soundboost.EvaluateMSE(model, test)
		if err != nil {
			return Table1Result{}, err
		}
		row := Table1Row{Label: c.label, Factors: c.factors, TrainMSE: trainMSE, ValMSE: valMSE, TestMSE: testMSE}
		result.Rows = append(result.Rows, row)
		logf("table1 %-8s train %.4f val %.4f test %.4f", c.label, trainMSE, valMSE, testMSE)
		if result.Best == "" || valMSE < bestVal {
			result.Best = c.label
			bestVal = valMSE
		}
	}
	return result, nil
}

// WindowSweepRow is one window-size result (paper §IV-A text: 0.1-2 s
// sweep with the optimum at 0.5 s).
type WindowSweepRow struct {
	// WindowSeconds is the signature window size.
	WindowSeconds float64
	// ValMSE is the validation MSE at this window.
	ValMSE float64
}

// RunWindowSweep sweeps the signature window size.
func RunWindowSweep(scale Scale, windows []float64, logf func(string, ...any)) ([]WindowSweepRow, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if len(windows) == 0 {
		windows = []float64{0.1, 0.25, 0.5, 1.0, 2.0}
	}
	nTrain := scale.TrainFlights
	if nTrain > 8 {
		nTrain = 8
	}
	var train, val []*dataset.Flight
	for i := 0; i < nTrain; i++ {
		missions := trainingMissions(scale, i)
		cfg := scale.genConfig(missions[i%len(missions)], scale.Seed+2100+int64(i)*7, sim.WindCycle(i))
		f, err := dataset.Generate(cfg)
		if err != nil {
			return nil, err
		}
		train = append(train, f)
	}
	for i := 0; i < 2; i++ {
		missions := trainingMissions(scale, i+1)
		cfg := scale.genConfig(missions[(i+3)%len(missions)], scale.Seed+2400+int64(i)*7, sim.WindCycle(i))
		f, err := dataset.Generate(cfg)
		if err != nil {
			return nil, err
		}
		val = append(val, f)
	}
	// The sweep varies the *feature* window while keeping the prediction
	// target fixed (the IMU mean over the base 0.5 s window): the paper's
	// trade-off is context vs responsiveness at a fixed estimation task.
	baseCfg := soundboost.DefaultSignatureConfig(scale.SignatureConfig())
	var rows []WindowSweepRow
	for _, w := range windows {
		factor := w / baseCfg.WindowSeconds
		mapCfg := soundboost.DefaultMappingConfig(baseCfg)
		mapCfg.Hidden = scale.Hidden
		mapCfg.Train.Epochs = scale.Epochs
		mapCfg.AugmentFactors = nil
		var xs, ys, vx, vy [][]float64
		collect := func(flights []*dataset.Flight, fx, fy *[][]float64) error {
			for i, f := range flights {
				windows, err := soundboost.BuildWindows(f, baseCfg, i, factor)
				if err != nil {
					return err
				}
				for _, win := range windows {
					*fx = append(*fx, win.Features)
					*fy = append(*fy, win.Label.Slice())
				}
			}
			return nil
		}
		if err := collect(train, &xs, &ys); err != nil {
			return nil, err
		}
		if err := collect(val, &vx, &vy); err != nil {
			return nil, err
		}
		model, _, err := soundboost.TrainModelFromSamples(xs, ys, nil, nil, mapCfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: window %.2gs: %w", w, err)
		}
		var total float64
		var count int
		for i := range vx {
			pred := model.Predict(vx[i])
			d := pred.Sub(mathx.Vec3FromSlice(vy[i]))
			total += d.NormSq()
			count += 3
		}
		mse := total / float64(count)
		rows = append(rows, WindowSweepRow{WindowSeconds: w, ValMSE: mse})
		logf("window %.2fs: val MSE %.4f", w, mse)
	}
	return rows, nil
}

// ModelFamilyRow compares the three regressor families (paper §III-B).
type ModelFamilyRow struct {
	// Kind is the model family.
	Kind string
	// ValMSE is the validation MSE.
	ValMSE float64
}

// RunModelFamilies trains each regressor family on a shared corpus.
func RunModelFamilies(scale Scale, logf func(string, ...any)) ([]ModelFamilyRow, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	nTrain := scale.TrainFlights
	if nTrain > 8 {
		nTrain = 8
	}
	var train, val []*dataset.Flight
	for i := 0; i < nTrain; i++ {
		missions := trainingMissions(scale, i)
		cfg := scale.genConfig(missions[i%len(missions)], scale.Seed+2700+int64(i)*7, sim.WindCycle(i))
		f, err := dataset.Generate(cfg)
		if err != nil {
			return nil, err
		}
		train = append(train, f)
	}
	for i := 0; i < 2; i++ {
		missions := trainingMissions(scale, i+2)
		cfg := scale.genConfig(missions[(i+1)%len(missions)], scale.Seed+2900+int64(i)*7, sim.WindCycle(i))
		f, err := dataset.Generate(cfg)
		if err != nil {
			return nil, err
		}
		val = append(val, f)
	}
	sigCfg := soundboost.DefaultSignatureConfig(scale.SignatureConfig())
	var rows []ModelFamilyRow
	for _, kind := range []string{"mlp", "resmlp", "ode"} {
		mapCfg := soundboost.DefaultMappingConfig(sigCfg)
		mapCfg.Hidden = scale.Hidden
		mapCfg.Train.Epochs = scale.Epochs
		mapCfg.Model = nn.ModelKind(kind)
		model, _, err := soundboost.TrainModel(train, nil, mapCfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: family %s: %w", kind, err)
		}
		mse, err := soundboost.EvaluateMSE(model, val)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ModelFamilyRow{Kind: kind, ValMSE: mse})
		logf("model %s: val MSE %.4f", kind, mse)
	}
	return rows, nil
}
