package main

import (
	"flag"
	"fmt"
	"os"

	soundboost "soundboost/internal/core"
	"soundboost/internal/obs"
	"soundboost/internal/parallel"
)

// runtimeFlags is the flag wiring every subcommand shares: the worker
// pool size and the observability endpoint. Register with
// addRuntimeFlags, then call apply() once the set is parsed.
type runtimeFlags struct {
	workers   *int
	debugAddr *string
}

func addRuntimeFlags(fs *flag.FlagSet) *runtimeFlags {
	return &runtimeFlags{
		workers:   fs.Int("workers", 0, "worker-pool size for parallel stages (0 = GOMAXPROCS, 1 = serial)"),
		debugAddr: fs.String("debug-addr", "", "serve /debug/metrics and /debug/pprof on this address (enables the obs layer)"),
	}
}

// apply installs the worker-pool default and, when requested, starts the
// debug endpoint.
func (r *runtimeFlags) apply() error {
	parallel.SetDefaultWorkers(*r.workers)
	if *r.debugAddr == "" {
		return nil
	}
	bound, err := obs.Serve(*r.debugAddr)
	if err != nil {
		return err
	}
	fmt.Printf("debug endpoint on http://%s/debug/metrics\n", bound)
	return nil
}

// analyzerFlags is the shared "where does the calibrated analyzer come
// from" wiring used by rca, live, and serve: either a saved analyzer
// file, or a model plus a benign calibration directory.
type analyzerFlags struct {
	analyzerPath *string
	modelPath    *string
	calibDir     *string
	noTriage     *bool
}

func addAnalyzerFlags(fs *flag.FlagSet) *analyzerFlags {
	return &analyzerFlags{
		analyzerPath: fs.String("analyzer", "", "saved analyzer path (skips calibration)"),
		modelPath:    fs.String("model", "model.json", "trained model path (when no -analyzer)"),
		calibDir:     fs.String("calib", "flights", "directory of benign calibration flights (when no -analyzer)"),
		noTriage:     fs.Bool("no-triage", false, "run the full pipeline on every window even when the analyzer carries a triage tier"),
	}
}

// load resolves the flags into a calibrated analyzer.
func (a *analyzerFlags) load() (*soundboost.Analyzer, error) {
	an, err := a.loadRaw()
	if err != nil {
		return nil, err
	}
	if *a.noTriage {
		an = an.WithoutTriage()
	}
	return an, nil
}

func (a *analyzerFlags) loadRaw() (*soundboost.Analyzer, error) {
	if *a.analyzerPath != "" {
		af, err := os.Open(*a.analyzerPath)
		if err != nil {
			return nil, err
		}
		defer af.Close()
		return soundboost.LoadAnalyzer(af)
	}
	return buildAnalyzer(*a.modelPath, *a.calibDir)
}
