package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"soundboost/internal/attack"
	"soundboost/internal/kalman"
	"soundboost/internal/sweep"
)

// runSweep expands the grid flags into a trial matrix and hands it to
// the sweep runner. Records go to -jsonl (or stdout), the CSV summary
// to -csv, and the rollup is always printed to stdout — everything on
// stdout is deterministic for a fixed -seed, so `sweep ... | diff`
// against a second run is a meaningful check (and what the smoke
// script does). Progress goes to stderr.
func runSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "", "run against a live server at this base URL (default: self-hosted in-process servers)")
		kfAxis      = fs.String("kf", "", "comma-separated KF variants whose GPS margin is swept: audio-only,audio+imu (self-hosted only; default audio+imu)")
		marginAxis  = fs.String("margins", "", "comma-separated GPS threshold margins (self-hosted only; default 1.1)")
		triageAxis  = fs.String("triage", "", "comma-separated triage-tier settings: on,off (self-hosted only; default follows the analyzer)")
		chunkAxis   = fs.String("chunks", "2", "comma-separated chunk sizes: flight seconds per frames request")
		frameAxis   = fs.String("frames", "0.05", "comma-separated audio frame lengths (s)")
		attackAxis  = fs.String("attacks", "benign,gps-drift", "comma-separated attack families: benign,"+strings.Join(attack.Families, ","))
		intenAxis   = fs.String("intensities", "1", "comma-separated attack magnitude scale factors")
		reps        = fs.Int("reps", 1, "flights per attack x intensity cell (wind cycles per rep)")
		seconds     = fs.Float64("seconds", 20, "flight duration (s)")
		seed        = fs.Int64("seed", 42, "master seed; the same seed reproduces the sweep byte for byte")
		concurrency = fs.Int("concurrency", 4, "trials in flight at once")
		preset      = fs.String("preset", "fast", "flight synthesis preset: fast (4 kHz) or paper (must match the analyzer's corpus)")
		timings     = fs.Bool("timings", false, "record per-trial wall-clock phase timings (breaks byte-determinism)")
		jsonlPath   = fs.String("jsonl", "", "write per-trial JSONL records here (empty = stdout)")
		csvPath     = fs.String("csv", "", "write the per-trial CSV summary here (empty = skip)")
	)
	af := addAnalyzerFlags(fs)
	rt := addRuntimeFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := rt.apply(); err != nil {
		return err
	}

	cfg := sweep.Config{
		Addr:        *addr,
		Reps:        *reps,
		Seconds:     *seconds,
		Seed:        *seed,
		Preset:      *preset,
		Concurrency: *concurrency,
		Timings:     *timings,
		Attacks:     sweep.ParseStrings(*attackAxis),
		Logf:        func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) },
	}
	for _, m := range sweep.ParseStrings(*kfAxis) {
		cfg.KFModes = append(cfg.KFModes, kalman.Mode(m))
	}
	var err error
	if cfg.Margins, err = sweep.ParseFloats("margins", *marginAxis); err != nil {
		return err
	}
	if cfg.Triage, err = sweep.ParseBools("triage", *triageAxis); err != nil {
		return err
	}
	if cfg.ChunkSeconds, err = sweep.ParseFloats("chunks", *chunkAxis); err != nil {
		return err
	}
	if cfg.FrameSeconds, err = sweep.ParseFloats("frames", *frameAxis); err != nil {
		return err
	}
	if cfg.Intensities, err = sweep.ParseFloats("intensities", *intenAxis); err != nil {
		return err
	}
	if *addr == "" {
		if cfg.Analyzer, err = af.load(); err != nil {
			return err
		}
	} else if *af.analyzerPath != "" {
		return fmt.Errorf("-analyzer is unused with -addr: the server owns the analyzer")
	}

	res, err := sweep.Run(context.Background(), cfg)
	if err != nil {
		return err
	}

	if *jsonlPath == "" {
		if err := sweep.WriteJSONL(os.Stdout, res.Records); err != nil {
			return err
		}
	} else {
		if err := writeFileWith(*jsonlPath, func(f *os.File) error {
			return sweep.WriteJSONL(f, res.Records)
		}); err != nil {
			return err
		}
	}
	if *csvPath != "" {
		if err := writeFileWith(*csvPath, func(f *os.File) error {
			return sweep.WriteCSV(f, res.Records)
		}); err != nil {
			return err
		}
	}

	out, err := json.MarshalIndent(res.Rollup, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", out)
	return nil
}

// writeFileWith creates path, runs fn over it, and surfaces close
// errors (a short write on flush must fail the sweep, not pass
// silently).
func writeFileWith(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
