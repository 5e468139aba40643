// Command bench is SoundBoost's end-to-end benchmark. Each run builds
// the analyzer from a simulated corpus (timed as set-up), drives one
// workload through public entry points — core.Analyzer.Analyze, or
// server.New / fleet.New behind loopback HTTP listeners — checks every
// verdict against a float64 Analyze reference, and prints its metrics.
// With -trace 1 it also runs the workload with the obs layer on and
// prints the per-layer table instead. See README.md.
//
//	bash bench/run.sh -workload serve-live -seed 1 -seconds 7 -trace 0
//	bash bench/run.sh -compare OLD_DIR NEW_DIR
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	soundboost "soundboost/internal/core"
	"soundboost/internal/experiments"
	"soundboost/internal/obs"
)

// Workloads, in BENCHMARK.json order.
var workloads = []struct {
	name string
	run  func(*runConfig) (*measurement, error)
}{
	{"offline-f64", func(rc *runConfig) (*measurement, error) { return runOffline(rc, soundboost.Float64) }},
	{"offline-f32", func(rc *runConfig) (*measurement, error) { return runOffline(rc, soundboost.Float32) }},
	{"serve-live", func(rc *runConfig) (*measurement, error) { return runServed(rc, false) }},
	{"fleet-live", func(rc *runConfig) (*measurement, error) { return runServed(rc, true) }},
}

// runConfig is one invocation's settings and inputs.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	corpus  *corpus
	rec     *recorder
	tmp     string // per-run scratch (journals), removed at exit
}

// fingerprintf folds a workload's seeded inputs into the corpus hash.
func (rc *runConfig) fingerprintf(format string, a ...any) {
	fmt.Fprintf(rc.corpus.fingerprint, format, a...)
}

// result is the record a run writes beside its spans; -compare reads
// these.
type result struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Trace       bool              `json:"trace"`
	Seconds     float64           `json:"seconds"`
	Start       time.Time         `json:"start"`
	Fingerprint string            `json:"fingerprint"`
	Env         environment       `json:"env"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	SetupS      []float64         `json:"setup_runs_s"`
	Metrics     map[string]metric `json:"metrics"`
	Checks      []string          `json:"checks,omitempty"`
	Notes       []string          `json:"notes,omitempty"`
}

type environment struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
}

func logf(format string, a ...any) { fmt.Fprintf(os.Stderr, "bench: "+format+"\n", a...) }

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run: offline-f64, offline-f32, serve-live, fleet-live")
		seed     = fs.Int64("seed", 1, "seed of the run's inputs (order, traffic mix, schedule)")
		seconds  = fs.Float64("seconds", 7, "measured duration of the run")
		trace    = fs.Int("trace", 0, "1 prints the per-layer table of a traced run instead of the end-to-end metrics")
		outDir   = fs.String("out", "", "directory for result and span files (default .bench_build/results under the repository root)")
		compare  = fs.Bool("compare", false, "compare two sets of result files: -compare OLD NEW (directories or globs)")
		capacity = fs.Bool("capacity", false, "measure a served workload's closed-loop capacity instead (calibration)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two arguments: OLD NEW")
		}
		return runCompare(filepath.Join(root, "BENCHMARK.json"), fs.Arg(0), fs.Arg(1), stdout)
	}
	var runWorkload func(*runConfig) (*measurement, error)
	for _, w := range workloads {
		if w.name == *workload {
			runWorkload = w.run
		}
	}
	if runWorkload == nil {
		return fmt.Errorf("unknown -workload %q", *workload)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	runtime.GOMAXPROCS(2)

	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	// A run stopped from outside still removes its journals.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		os.RemoveAll(tmp)
		os.Exit(1)
	}()
	served := strings.HasSuffix(*workload, "-live")
	c, err := loadCorpus(filepath.Join(build, "cache"), experiments.BenchScale())
	if err != nil {
		return err
	}
	rc := &runConfig{
		seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1,
		corpus: c, rec: newRecorder(time.Now()), tmp: tmp,
	}
	rc.fingerprintf("workload=%s seed=%d seconds=%g\n", *workload, *seed, *seconds)
	if *capacity {
		if !served {
			return errors.New("-capacity applies to serve-live and fleet-live")
		}
		return runCapacity(rc, *workload == "fleet-live", stdout)
	}
	if rc.trace {
		// Count the whole process (FFT plans built during set-up
		// included); each workload turns recording off for its
		// headline measurement.
		obs.Enable()
	}
	start := time.Now()
	m, err := runWorkload(rc)
	if err != nil {
		return err
	}

	res := result{
		Workload: *workload, Seed: *seed, Trace: rc.trace, Seconds: *seconds, Start: start,
		Fingerprint: fmt.Sprintf("%x", rc.corpus.fingerprint.Sum(nil)), Env: currentEnv(root),
		Attempted: m.attempted, Failed: m.failed, SetupS: m.setup, Checks: m.checks, Notes: m.notes,
	}
	res.Correct = m.failed == 0
	res.Metrics = m.endToEnd
	want := endToEndMetrics
	if rc.trace {
		res.Metrics, want = m.layers, perLayerMetrics
		fillLayers(m.layers)
	}
	for _, d := range want {
		v, ok := res.Metrics[d.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s was not measured (%v)", d.name, v.Value)
		}
	}
	if err := writeResult(outDirOr(*outDir, build), res, m.spans); err != nil {
		return err
	}
	printResult(stdout, res)
	return nil
}

func outDirOr(dir, build string) string {
	if dir != "" {
		return dir
	}
	return filepath.Join(build, "results")
}

// repoRoot is the nearest directory at or above the working directory
// holding BENCHMARK.json, so the benchmark runs from the repository
// root and from bench/ alike.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "BENCHMARK.json")); err == nil {
			return d, nil
		}
		if filepath.Dir(d) == d {
			return "", fmt.Errorf("no BENCHMARK.json at or above %s", dir)
		}
	}
}

// currentEnv records the host and, when the tree is a git checkout,
// its commit (read from .git without running git).
func currentEnv(root string) environment {
	return environment{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: gitCommit(root),
	}
}

func gitCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if raw, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(raw))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

func writeResult(dir string, res result, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s.seed%d.trace%d", res.Workload, res.Seed, btoi(res.Trace)))
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(raw, '\n'), 0o644); err != nil {
		return err
	}
	if res.Trace {
		return writeSpans(base+".spans.json", spans)
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// printResult writes a readable table, then the one-line JSON result
// as the last line of standard output.
func printResult(w io.Writer, res result) {
	fmt.Fprintf(w, "workload %s seed %d trace %v: %d ops, %d failed, correct=%v\n",
		res.Workload, res.Seed, res.Trace, res.Attempted, res.Failed, res.Correct)
	fmt.Fprintf(w, "inputs sha256 %s\n", res.Fingerprint)
	fmt.Fprintf(w, "env %s %s/%s num_cpu=%d gomaxprocs=%d commit=%s\n",
		res.Env.GoVersion, res.Env.GOOS, res.Env.GOARCH, res.Env.NumCPU, res.Env.GOMAXPROCS, res.Env.Commit)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	for _, c := range res.Checks {
		fmt.Fprintf(w, "check: %s\n", c)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "failed: %s\n", n)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Fprintf(w, "%s\n", line)
}
