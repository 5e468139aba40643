package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// BenchSchemaVersion identifies the BENCH_*.json layout. Bump it on
// any breaking change to BenchReport; additive changes keep it.
const BenchSchemaVersion = 1

// BenchReport is the machine-readable benchmark artifact emitted by
// `benchtab -bench-json`. The layout is schema-versioned and stable so
// successive BENCH_<n>.json files are directly diffable and CI can
// validate them.
type BenchReport struct {
	// SchemaVersion is BenchSchemaVersion at write time.
	SchemaVersion int `json:"schema_version"`
	// Tool names the producing command ("benchtab").
	Tool string `json:"tool"`
	// Scale is the experiment scale the run used.
	Scale string `json:"scale"`
	// Runs lists the experiment sections that executed.
	Runs []string `json:"runs"`
	// Workers is the effective worker-pool size.
	Workers int `json:"workers"`
	// GoVersion, GOOS, GOARCH and NumCPU pin the environment.
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// UnixTime is the report's creation time (seconds since epoch).
	UnixTime int64 `json:"unix_time"`
	// WallSeconds is the end-to-end run time.
	WallSeconds float64 `json:"wall_seconds"`
	// AllocBytes, Mallocs and NumGC are deltas over the run.
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
	NumGC      uint32 `json:"num_gc"`
	// Stages are the per-stage timings, sorted by name for stable
	// diffs. Durations are seconds.
	Stages []BenchStage `json:"stages"`
	// Counters and Gauges carry the remaining registry state.
	Counters map[string]int64   `json:"counters,omitempty"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
	// Throughput carries the flights/sec section when the run included
	// it (additive in schema v1; absent in older artifacts).
	Throughput *BenchThroughput `json:"throughput,omitempty"`
}

// BenchThroughput is the batch-RCA throughput section of a bench
// report: flights/sec over a clean-majority corpus with and without
// the triage tier. It is what the CI bench-gate compares across
// commits.
type BenchThroughput struct {
	// Flights is the corpus size; CleanFraction its benign share.
	Flights       int     `json:"flights"`
	CleanFraction float64 `json:"clean_fraction"`
	// BaselineFPS is flights/sec through the full pipeline; TriageFPS
	// with the screening tier (0 when the run skipped it).
	BaselineFPS float64 `json:"baseline_flights_per_sec"`
	TriageFPS   float64 `json:"triage_flights_per_sec"`
	// Speedup is TriageFPS/BaselineFPS; FastpathRatio the fraction of
	// flights the tier short-circuited.
	Speedup       float64 `json:"speedup"`
	FastpathRatio float64 `json:"fastpath_ratio"`
	// Per-flight p99 latencies (seconds) of the two paths.
	BaselineP99FlightSeconds float64 `json:"baseline_p99_flight_seconds"`
	P99FlightSeconds         float64 `json:"p99_flight_seconds"`
	// Float32 rows repeat the measurements under the float32 fast path
	// (additive in schema v1; absent, and zero, in older artifacts).
	// Float32Speedup is float32-baseline over float64-baseline
	// (informational; the gate compares Float32BaselineFPS like for
	// like).
	Float32BaselineFPS              float64 `json:"float32_baseline_flights_per_sec,omitempty"`
	Float32TriageFPS                float64 `json:"float32_triage_flights_per_sec,omitempty"`
	Float32Speedup                  float64 `json:"float32_speedup,omitempty"`
	Float32BaselineP99FlightSeconds float64 `json:"float32_baseline_p99_flight_seconds,omitempty"`
	Float32P99FlightSeconds         float64 `json:"float32_p99_flight_seconds,omitempty"`
}

// FPS returns the report's operative flights/sec: the triage-path
// number when the run measured it, the full-pipeline baseline
// otherwise.
func (t *BenchThroughput) FPS() float64 {
	if t.TriageFPS > 0 {
		return t.TriageFPS
	}
	return t.BaselineFPS
}

// P99 returns the per-flight p99 latency matching FPS.
func (t *BenchThroughput) P99() float64 {
	if t.TriageFPS > 0 {
		return t.P99FlightSeconds
	}
	return t.BaselineP99FlightSeconds
}

// BenchStage is one named stage's timing summary (seconds).
type BenchStage struct {
	Name         string  `json:"name"`
	Count        int64   `json:"count"`
	TotalSeconds float64 `json:"total_seconds"`
	MeanSeconds  float64 `json:"mean_seconds"`
	P50Seconds   float64 `json:"p50_seconds"`
	P95Seconds   float64 `json:"p95_seconds"`
	P99Seconds   float64 `json:"p99_seconds"`
	MinSeconds   float64 `json:"min_seconds"`
	MaxSeconds   float64 `json:"max_seconds"`
}

// BenchMeta carries the run parameters the registry cannot know.
type BenchMeta struct {
	Tool    string
	Scale   string
	Runs    []string
	Workers int
}

// BenchStart marks the beginning of a measured run: it enables
// recording, clears the registry, and captures the baseline memory
// stats. Finish the run with Collect on the returned state.
type BenchStart struct {
	start time.Time
	mem   runtime.MemStats
}

// StartBench begins a measured run against the default registry.
func StartBench() *BenchStart {
	Enable()
	Default.Reset()
	b := &BenchStart{start: time.Now()}
	runtime.ReadMemStats(&b.mem)
	return b
}

// Collect assembles the BenchReport for a run begun with StartBench.
func (b *BenchStart) Collect(meta BenchMeta) *BenchReport {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	snap := Default.Snapshot()

	report := &BenchReport{
		SchemaVersion: BenchSchemaVersion,
		Tool:          meta.Tool,
		Scale:         meta.Scale,
		Runs:          append([]string(nil), meta.Runs...),
		Workers:       meta.Workers,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		UnixTime:      time.Now().Unix(),
		WallSeconds:   time.Since(b.start).Seconds(),
		AllocBytes:    mem.TotalAlloc - b.mem.TotalAlloc,
		Mallocs:       mem.Mallocs - b.mem.Mallocs,
		NumGC:         mem.NumGC - b.mem.NumGC,
		Counters:      snap.Counters,
		Gauges:        snap.Gauges,
	}
	for name, st := range snap.Timers {
		if st.Count == 0 {
			continue
		}
		report.Stages = append(report.Stages, BenchStage{
			Name:         name,
			Count:        st.Count,
			TotalSeconds: st.Sum,
			MeanSeconds:  st.Mean,
			P50Seconds:   st.P50,
			P95Seconds:   st.P95,
			P99Seconds:   st.P99,
			MinSeconds:   st.Min,
			MaxSeconds:   st.Max,
		})
	}
	sort.Slice(report.Stages, func(i, j int) bool { return report.Stages[i].Name < report.Stages[j].Name })
	return report
}

// Validate reports schema violations in the report.
func (r *BenchReport) Validate() error {
	switch {
	case r.SchemaVersion != BenchSchemaVersion:
		return fmt.Errorf("obs: bench schema version %d, want %d", r.SchemaVersion, BenchSchemaVersion)
	case r.Tool == "":
		return fmt.Errorf("obs: bench report has no tool name")
	case r.Scale == "":
		return fmt.Errorf("obs: bench report has no scale")
	case r.GoVersion == "" || r.GOOS == "" || r.GOARCH == "":
		return fmt.Errorf("obs: bench report is missing environment fields")
	case r.NumCPU < 1:
		return fmt.Errorf("obs: bench report NumCPU %d", r.NumCPU)
	case r.WallSeconds <= 0:
		return fmt.Errorf("obs: bench report wall time %g must be positive", r.WallSeconds)
	case len(r.Stages) == 0:
		return fmt.Errorf("obs: bench report has no stage timings")
	}
	for i, s := range r.Stages {
		if s.Name == "" {
			return fmt.Errorf("obs: stage %d has no name", i)
		}
		if s.Count < 1 {
			return fmt.Errorf("obs: stage %q count %d must be >= 1", s.Name, s.Count)
		}
		if s.TotalSeconds < 0 || s.MinSeconds < 0 {
			return fmt.Errorf("obs: stage %q has negative timings", s.Name)
		}
		if s.MaxSeconds+1e-12 < s.MinSeconds {
			return fmt.Errorf("obs: stage %q max %g below min %g", s.Name, s.MaxSeconds, s.MinSeconds)
		}
		if i > 0 && r.Stages[i-1].Name >= s.Name {
			return fmt.Errorf("obs: stages not sorted by name at %q", s.Name)
		}
	}
	if t := r.Throughput; t != nil {
		switch {
		case t.Flights < 1:
			return fmt.Errorf("obs: throughput section covers %d flights", t.Flights)
		case t.CleanFraction < 0 || t.CleanFraction > 1:
			return fmt.Errorf("obs: throughput clean fraction %g outside [0,1]", t.CleanFraction)
		case t.BaselineFPS <= 0:
			return fmt.Errorf("obs: throughput baseline %g flights/sec must be positive", t.BaselineFPS)
		case t.TriageFPS < 0 || t.Speedup < 0:
			return fmt.Errorf("obs: throughput triage numbers are negative")
		case t.FastpathRatio < 0 || t.FastpathRatio > 1:
			return fmt.Errorf("obs: throughput fastpath ratio %g outside [0,1]", t.FastpathRatio)
		case t.BaselineP99FlightSeconds <= 0:
			return fmt.Errorf("obs: throughput baseline p99 %g must be positive", t.BaselineP99FlightSeconds)
		case t.TriageFPS > 0 && t.P99FlightSeconds <= 0:
			return fmt.Errorf("obs: throughput triage p99 %g must be positive", t.P99FlightSeconds)
		case t.Float32BaselineFPS < 0 || t.Float32TriageFPS < 0 || t.Float32Speedup < 0:
			return fmt.Errorf("obs: throughput float32 numbers are negative")
		case t.Float32BaselineFPS > 0 && t.Float32BaselineP99FlightSeconds <= 0:
			return fmt.Errorf("obs: throughput float32 baseline p99 %g must be positive", t.Float32BaselineP99FlightSeconds)
		case t.Float32BaselineFPS > 0 && t.Float32Speedup <= 0:
			return fmt.Errorf("obs: throughput float32 row is missing its speedup")
		}
	}
	return nil
}

// CompareBenchReports is the perf-regression gate: it fails when the
// new report's flights/sec falls more than tolerance below the old
// one's, or its p99 per-flight latency rises more than tolerance above
// (tolerance 0.15 = 15%). Both reports must carry a throughput section
// — a gate that silently passes on a metric-free artifact is no gate.
func CompareBenchReports(oldR, newR *BenchReport, tolerance float64) error {
	if tolerance < 0 || tolerance >= 1 {
		return fmt.Errorf("obs: compare tolerance %g outside [0,1)", tolerance)
	}
	if oldR.Throughput == nil || newR.Throughput == nil {
		return fmt.Errorf("obs: both reports need a throughput section (run benchtab -run throughput -bench-json)")
	}
	oldFPS, newFPS := oldR.Throughput.FPS(), newR.Throughput.FPS()
	if newFPS < oldFPS*(1-tolerance) {
		return fmt.Errorf("obs: throughput regressed: %.2f flights/sec vs baseline %.2f (-%.1f%%, tolerance %.0f%%)",
			newFPS, oldFPS, 100*(1-newFPS/oldFPS), 100*tolerance)
	}
	oldP99, newP99 := oldR.Throughput.P99(), newR.Throughput.P99()
	if newP99 > oldP99*(1+tolerance) {
		return fmt.Errorf("obs: p99 per-flight latency regressed: %.3fs vs baseline %.3fs (+%.1f%%, tolerance %.0f%%)",
			newP99, oldP99, 100*(newP99/oldP99-1), 100*tolerance)
	}
	// The float32 rows gate like-for-like once both artifacts carry them
	// (an older float64-only baseline has no float32 row to hold).
	oldF32, newF32 := oldR.Throughput.Float32BaselineFPS, newR.Throughput.Float32BaselineFPS
	if oldF32 > 0 && newF32 > 0 && newF32 < oldF32*(1-tolerance) {
		return fmt.Errorf("obs: float32 throughput regressed: %.2f flights/sec vs baseline %.2f (-%.1f%%, tolerance %.0f%%)",
			newF32, oldF32, 100*(1-newF32/oldF32), 100*tolerance)
	}
	return nil
}

// WriteJSON writes the report as indented JSON.
func (r *BenchReport) WriteJSON(w io.Writer) error {
	if err := r.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteBenchFile validates the report and writes it to path.
func WriteBenchFile(path string, r *BenchReport) error {
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// ParseBenchReport strictly decodes and validates a BENCH_*.json
// payload: unknown fields are schema violations, as is trailing data.
func ParseBenchReport(data []byte) (*BenchReport, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r BenchReport
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("obs: decode bench report: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return nil, fmt.Errorf("obs: trailing data after bench report")
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// ReadBenchFile reads and validates a BENCH_*.json file.
func ReadBenchFile(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseBenchReport(data)
}
