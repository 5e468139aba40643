package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"soundboost/internal/experiments"
	"soundboost/internal/obs"
	"soundboost/internal/parallel"
)

// TestSmokeQuickScale runs every workload for 2 s at QuickScale, plain
// and traced, with every verdict checked against its reference.
func TestSmokeQuickScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a QuickScale corpus and serves it over loopback HTTP")
	}
	t.Cleanup(func() {
		parallel.SetDefaultWorkers(0)
		obs.Disable()
	})
	cache := filepath.Join(t.TempDir(), "cache")
	fingerprint := func() string {
		c, err := loadCorpus(cache, experiments.QuickScale())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.loadPool(); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x", c.fingerprint.Sum(nil))
	}
	if a, b := fingerprint(), fingerprint(); a != b {
		t.Fatalf("two loads of one corpus fingerprint differently: %s vs %s", a, b)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				c, err := loadCorpus(cache, experiments.QuickScale())
				if err != nil {
					t.Fatal(err)
				}
				rc := &runConfig{seed: 1, seconds: 2 * time.Second, trace: trace, corpus: c, rec: newRecorder(time.Now()), tmp: t.TempDir()}
				if trace {
					obs.Enable()
				}
				m, err := w.run(rc)
				if err != nil {
					t.Fatal(err)
				}
				if m.attempted == 0 || m.failed != 0 {
					t.Fatalf("%d of %d operations failed: %v %v", m.failed, m.attempted, m.notes, m.checks)
				}
				metrics, want := m.endToEnd, endToEndMetrics
				if trace {
					fillLayers(m.layers)
					metrics, want = m.layers, perLayerMetrics
				}
				for _, d := range want {
					v, ok := metrics[d.name]
					if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.unit {
						t.Errorf("metric %s = %+v, present %v", d.name, v, ok)
					}
				}
			})
		}
	}
}

// BENCHMARK.json must list exactly the workloads and metrics the
// program reports, within the contract's limits.
func TestBenchmarkSpecMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, program runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why %d chars), program has %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics listed, program reports %d", len(spec.EndToEnd), len(endToEndMetrics))
	}
	maxBound := 0.0
	for i, e := range spec.EndToEnd {
		d := endToEndMetrics[i]
		if e.Name != d.name || e.Unit != d.unit || (e.Better != "lower" && e.Better != "higher") || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end_to_end %d: %+v, program reports %s in %s", i, e, d.name, d.unit)
		}
		maxBound = math.Max(maxBound, e.Bound)
	}
	if spec.EndToEnd[0].Name != "setup_s" || spec.EndToEnd[0].Bound != maxBound {
		t.Errorf("setup_s must come first with the largest bound: %+v", spec.EndToEnd[0])
	}
	if len(spec.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics listed, program reports %d", len(spec.PerLayer), len(perLayerMetrics))
	}
	for i, l := range spec.PerLayer {
		if d := perLayerMetrics[i]; l.Name != d.name || l.Unit != d.unit {
			t.Errorf("per_layer %d: %+v, program reports %s in %s", i, l, d.name, d.unit)
		}
	}
}
