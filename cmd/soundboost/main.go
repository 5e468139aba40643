// Command soundboost trains the acoustic model and runs post-incident RCA
// over recorded flights.
//
// Train a model from a directory of benign flights; -triage also fits
// the KNN screening tier from the same corpus (attack flights allowed
// then — they only label triage windows):
//
//	soundboost train -flights flights/ -model model.json
//	soundboost train -flights flights/ -model model.json -triage triage.json
//
// Calibrate the detectors once and save the full analyzer; -triage
// attaches the screening tier, enforces the zero verdict-flip
// guarantee over the calibration corpus, and embeds the tier in the
// saved analyzer:
//
//	soundboost calibrate -model model.json -calib flights/ -out analyzer.json
//	soundboost calibrate -model model.json -calib flights/ -out analyzer.json -triage triage.json
//
// Run the two-stage RCA over a flight, either from a saved analyzer or by
// calibrating on the fly:
//
//	soundboost rca -analyzer analyzer.json -flight incident.sbf
//	soundboost rca -model model.json -calib flights/ -flight incident.sbf
//
// Replay a recorded flight through the mavbus as live telemetry streams
// and run the online RCA engine over it in (scaled) real time:
//
//	soundboost live -analyzer analyzer.json -flight incident.sbf -speed 10
//
// Host the analyzer as a multi-session HTTP service (the /v1 API of the
// api package: batch uploads plus concurrent streaming sessions), and
// push a recorded flight at it from the client side:
//
//	soundboost serve -analyzer analyzer.json -addr 127.0.0.1:8713
//	soundboost push -addr http://127.0.0.1:8713 -flight incident.sbf -mode batch
//	soundboost push -addr http://127.0.0.1:8713 -flight incident.sbf -mode session
//
// Shard the service across several serve replicas behind one
// consistent-hash gateway. The gateway probes replica health, routes
// each session to its ring-assigned replica, and migrates sessions off
// draining or dead replicas by replaying their journals onto a
// successor — clients just resend the last unacknowledged chunk:
//
//	soundboost serve -analyzer analyzer.json -addr :9001 -journal j1/
//	soundboost serve -analyzer analyzer.json -addr :9002 -journal j2/
//	soundboost gateway -addr :8712 -replica r1=http://127.0.0.1:9001=j1 -replica r2=http://127.0.0.1:9002=j2
//
// Soak the whole service under deterministic fault injection — message
// drops, duplication, reordering, NaN/bit-flip corruption, clock skew,
// mid-flight cutoff, an engine-killing poison pill and a hostile HTTP
// transport — asserting that every fault is accounted for in the
// metrics, that verdicts are reproducible from the seed, and that no
// goroutine leaks:
//
//	soundboost chaos -analyzer analyzer.json -flight incident.sbf -seed 42
//
// Sweep a parameter grid — detector margins and KF variants, chunk and
// frame sizes, attack families and intensities — through live streaming
// sessions, emitting schema-versioned JSONL records, a CSV summary, and
// a confusion-matrix/ROC rollup. Self-hosted by default (one in-process
// server per derived analyzer); -addr targets a running serve instance
// instead. A fixed -seed makes the whole sweep byte-identical:
//
//	soundboost sweep -analyzer analyzer.json -margins 1.0,1.1,1.3 -attacks benign,gps-drift -jsonl sweep.jsonl
//	soundboost sweep -addr http://127.0.0.1:8713 -chunks 1,2,4 -attacks benign,gps-drift,imu-dos
//
// Analyzer-consuming subcommands (rca, live, serve, chaos, sweep)
// accept -no-triage to detach an embedded screening tier and force the
// full pipeline on every flight; sweep additionally takes -triage
// on,off to A/B the tier as a grid axis.
//
// Every subcommand accepts -debug-addr to enable the observability
// layer and serve live pipeline metrics (/debug/metrics) and pprof
// (/debug/pprof/) while it runs:
//
//	soundboost rca -debug-addr 127.0.0.1:8080 -flight incident.sbf ...
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"soundboost/internal/acoustics"
	soundboost "soundboost/internal/core"
	"soundboost/internal/dataset"
	"soundboost/internal/mavbus"
	"soundboost/internal/sim"
	"soundboost/internal/stream"
	"soundboost/internal/triage"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "soundboost:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: soundboost <train|calibrate|rca|live|serve|gateway|push|chaos|sweep> [flags]")
	}
	switch args[0] {
	case "train":
		return runTrain(args[1:])
	case "calibrate":
		return runCalibrate(args[1:])
	case "rca":
		return runRCA(args[1:])
	case "live":
		return runLive(args[1:])
	case "serve":
		return runServe(args[1:])
	case "gateway":
		return runGateway(args[1:])
	case "push":
		return runPush(args[1:])
	case "chaos":
		return runChaos(args[1:])
	case "sweep":
		return runSweep(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q (want train, calibrate, rca, live, serve, gateway, push, chaos or sweep)", args[0])
	}
}

func loadFlightDir(dir string) ([]*dataset.Flight, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".sbf") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var flights []*dataset.Flight
	for _, n := range names {
		f, err := dataset.LoadFile(filepath.Join(dir, n))
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", n, err)
		}
		flights = append(flights, f)
	}
	if len(flights) == 0 {
		return nil, fmt.Errorf("no .sbf flights in %s", dir)
	}
	return flights, nil
}

func runTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	var (
		flightDir  = fs.String("flights", "flights", "directory of benign training flights")
		modelPath  = fs.String("model", "model.json", "output model path")
		triagePath = fs.String("triage", "", "also train the KNN triage tier and write it to this path (attack flights then label the corpus instead of being rejected)")
		hidden     = fs.Int("hidden", 64, "regressor width")
		epochs     = fs.Int("epochs", 60, "training epochs")
		augment    = fs.Float64("augment", 5, "time-shift augmentation factor (0 = none)")
	)
	rt := addRuntimeFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := rt.apply(); err != nil {
		return err
	}
	allFlights, err := loadFlightDir(*flightDir)
	if err != nil {
		return err
	}
	// The regressor learns the benign acoustic→accel mapping, so it only
	// ever trains on benign flights. Without -triage any attack flight in
	// the directory is a mistake; with -triage the attacks are the labeled
	// anomalous half of the screening corpus.
	var flights []*dataset.Flight
	for _, f := range allFlights {
		if f.Scenario.IsAttack() {
			if *triagePath == "" {
				return fmt.Errorf("flight %q is an attack flight; train on benign flights only (or pass -triage)", f.Name)
			}
			continue
		}
		flights = append(flights, f)
	}
	if len(flights) == 0 {
		return fmt.Errorf("no benign flights in %s", *flightDir)
	}
	// Derive the signature layout from the first recording's rate: assume
	// the default frequency plan scaled into its Nyquist range.
	sample := flights[0].Audio.SampleRate
	synth := deriveSynth(sample)
	sigCfg := soundboost.DefaultSignatureConfig(synth)
	mapCfg := soundboost.DefaultMappingConfig(sigCfg)
	mapCfg.Hidden = *hidden
	mapCfg.Train.Epochs = *epochs
	mapCfg.Train.Verbose = true
	mapCfg.Train.Logf = func(format string, a ...any) { fmt.Printf(format+"\n", a...) }
	if *augment > 0 {
		mapCfg.AugmentFactors = []float64{*augment}
	} else {
		mapCfg.AugmentFactors = nil
	}

	nVal := len(flights) / 6
	train := flights[:len(flights)-nVal]
	val := flights[len(flights)-nVal:]
	fmt.Printf("training on %d flights (%d validation)\n", len(train), len(val))
	model, hist, err := soundboost.TrainModel(train, val, mapCfg)
	if err != nil {
		return err
	}
	if n := len(hist.TrainMSE); n > 0 {
		fmt.Printf("final train MSE (normalised): %.4f\n", hist.TrainMSE[n-1])
	}
	out, err := os.Create(*modelPath)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := model.Save(out); err != nil {
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Printf("model written to %s\n", *modelPath)
	if *triagePath == "" {
		return nil
	}
	tri, err := soundboost.TrainTriage(allFlights, sigCfg, triage.Config{})
	if err != nil {
		return err
	}
	blob, err := json.Marshal(tri)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*triagePath, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("triage tier written to %s (%d prototypes, k=%d)\n",
		*triagePath, tri.Prototypes(), tri.K())
	return nil
}

func runCalibrate(args []string) error {
	fs := flag.NewFlagSet("calibrate", flag.ContinueOnError)
	var (
		modelPath  = fs.String("model", "model.json", "trained model path")
		calibDir   = fs.String("calib", "flights", "directory of benign calibration flights")
		triagePath = fs.String("triage", "", "trained triage tier to embed (from `soundboost train -triage`); verified flip-free against the calibration corpus")
		outPath    = fs.String("out", "analyzer.json", "output analyzer path")
	)
	rt := addRuntimeFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := rt.apply(); err != nil {
		return err
	}
	analyzer, err := buildAnalyzer(*modelPath, *calibDir)
	if err != nil {
		return err
	}
	if *triagePath != "" {
		blob, err := os.ReadFile(*triagePath)
		if err != nil {
			return err
		}
		tri := new(triage.Model)
		if err := json.Unmarshal(blob, tri); err != nil {
			return fmt.Errorf("decode triage tier %s: %w", *triagePath, err)
		}
		analyzer.Triage = tri
		// Enforce the zero verdict-flip guarantee on the calibration
		// corpus before the tier is persisted: any flight the full
		// pipeline flags must escalate, tightening the benign radius
		// until it does.
		calib, err := loadFlightDir(*calibDir)
		if err != nil {
			return err
		}
		fast, esc, err := analyzer.VerifyTriage(calib)
		if err != nil {
			return err
		}
		fmt.Printf("triage verified on %d calibration flights: %d fast-path, %d escalated\n",
			len(calib), fast, esc)
	}
	out, err := os.Create(*outPath)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := analyzer.Save(out); err != nil {
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Printf("calibrated analyzer written to %s\n", *outPath)
	fmt.Printf("  IMU: KS stat threshold %.3f, sigma threshold %.3f\n",
		analyzer.IMU.StatThreshold(), analyzer.IMU.StdThreshold())
	fmt.Printf("  GPS: audio-only threshold %.3f, audio+IMU threshold %.3f\n",
		analyzer.GPSAudioOnly.Threshold(), analyzer.GPSAudioIMU.Threshold())
	return nil
}

// buildAnalyzer loads the model and calibrates detectors on a benign
// flight directory.
func buildAnalyzer(modelPath, calibDir string) (*soundboost.Analyzer, error) {
	mf, err := os.Open(modelPath)
	if err != nil {
		return nil, err
	}
	defer mf.Close()
	model, err := soundboost.LoadModel(mf)
	if err != nil {
		return nil, err
	}
	calib, err := loadFlightDir(calibDir)
	if err != nil {
		return nil, err
	}
	var benign []*dataset.Flight
	for _, f := range calib {
		if !f.Scenario.IsAttack() {
			benign = append(benign, f)
		}
	}
	return soundboost.NewAnalyzer(model, benign)
}

func runRCA(args []string) error {
	fs := flag.NewFlagSet("rca", flag.ContinueOnError)
	flightPath := fs.String("flight", "", "flight to analyse (.sbf)")
	af := addAnalyzerFlags(fs)
	rt := addRuntimeFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := rt.apply(); err != nil {
		return err
	}
	if *flightPath == "" {
		return fmt.Errorf("-flight is required")
	}
	analyzer, err := af.load()
	if err != nil {
		return err
	}
	flight, err := dataset.LoadFile(*flightPath)
	if err != nil {
		return err
	}
	report, err := analyzer.Analyze(flight)
	if err != nil {
		return err
	}
	fmt.Print(report.String())
	if flight.Scenario.IsAttack() {
		fmt.Printf("  (ground truth: %s during [%.1f, %.1f))\n",
			flight.Scenario.Kind, flight.Scenario.Window.Start, flight.Scenario.Window.End)
	} else {
		fmt.Println("  (ground truth: benign)")
	}
	return nil
}

// runLive replays a recorded flight onto an in-process mavbus as the
// audio/IMU/GPS streams a companion computer would see, and runs the
// online engine over them. The bus never drops, so without -drop or
// -audio-drop the verdict is identical to `soundboost rca` over the same
// file at any -speed; those flags inject loss to exercise the degraded
// paths.
func runLive(args []string) error {
	fs := flag.NewFlagSet("live", flag.ContinueOnError)
	var (
		flightPath = fs.String("flight", "", "flight to replay (.sbf)")
		speed      = fs.Float64("speed", 10, "replay speed factor (1 = real time, 0 = as fast as possible)")
		frameSec   = fs.Float64("frame", 0.05, "audio frame length in seconds")
		dropRate   = fs.Float64("drop", 0, "telemetry (IMU/GPS) message drop probability")
		audioDrop  = fs.Float64("audio-drop", 0, "audio frame drop probability")
		seed       = fs.Int64("seed", 1, "drop-injection seed")
	)
	af := addAnalyzerFlags(fs)
	rt := addRuntimeFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := rt.apply(); err != nil {
		return err
	}
	if *flightPath == "" {
		return fmt.Errorf("-flight is required")
	}
	analyzer, err := af.load()
	if err != nil {
		return err
	}
	flight, err := dataset.LoadFile(*flightPath)
	if err != nil {
		return err
	}

	bus := mavbus.NewBus(0)
	eng, err := stream.New(analyzer, flight.Audio.SampleRate, stream.WithFlightName(flight.Name))
	if err != nil {
		return err
	}
	if err := eng.Attach(bus); err != nil {
		return err
	}
	fmt.Printf("replaying %q (%.1f s) at %gx through %q/%q/%q...\n",
		flight.Name, flight.Duration(), *speed,
		stream.TopicAudio, stream.TopicIMU, stream.TopicGPS)
	replayErr := make(chan error, 1)
	go func() {
		replayErr <- stream.Replay(context.Background(), bus, flight, stream.ReplayConfig{
			Speed:         *speed,
			FrameSeconds:  *frameSec,
			DropRate:      *dropRate,
			AudioDropRate: *audioDrop,
			Seed:          *seed,
		})
		bus.Close()
	}()
	report, err := eng.Run(context.Background())
	if rerr := <-replayErr; rerr != nil {
		return fmt.Errorf("replay: %w", rerr)
	}
	if err != nil {
		return err
	}
	st := eng.Status()
	fmt.Printf("stream: %d windows processed, %d skipped\n", st.Windows, st.Skipped)
	fmt.Print(report.String())
	if flight.Scenario.IsAttack() {
		fmt.Printf("  (ground truth: %s during [%.1f, %.1f))\n",
			flight.Scenario.Kind, flight.Scenario.Window.Start, flight.Scenario.Window.End)
	} else {
		fmt.Println("  (ground truth: benign)")
	}
	return nil
}

// deriveSynth reconstructs the acoustic frequency plan for a recording's
// sample rate: the paper layout when it fits under Nyquist, otherwise the
// proportionally scaled plan used by reduced-rate datasets.
func deriveSynth(sampleRate float64) acoustics.SynthConfig {
	c := acoustics.DefaultSynthConfig()
	c.SampleRate = sampleRate
	world := sim.DefaultWorldConfig()
	c.Blades = world.Vehicle.Blades
	c.HoverSpeed = world.Vehicle.HoverMotorSpeed()
	if c.AeroFreq >= sampleRate/2 {
		c.MechFreq = 0.225 * sampleRate
		c.AeroFreq = 0.375 * sampleRate
	}
	return c
}
