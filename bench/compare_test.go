package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fakeRuns returns ten alternated runs of one workload whose metrics
// wobble by about 1% around base × scale.
func fakeRuns(start time.Time, scale float64, offset time.Duration) []result {
	var out []result
	for seed := int64(1); seed <= 10; seed++ {
		wobble := 1 + 0.01*float64(seed%3-1)
		out = append(out, result{
			Workload: "offline-f64", Seed: seed, Start: start.Add(time.Duration(seed)*time.Minute + offset),
			Metrics: map[string]metric{
				"latency_p50_ms": {Value: 80 * scale * wobble, Unit: "ms"},
				"flight_s_per_s": {Value: 170 / scale * wobble, Unit: "flight-s/s"},
			},
		})
	}
	return out
}

func testSpec(t *testing.T) benchSpec {
	t.Helper()
	var spec benchSpec
	raw := `{"end_to_end": [
		{"name": "latency_p50_ms", "better": "lower", "bound": 0.1},
		{"name": "flight_s_per_s", "better": "higher", "bound": 0.1}]}`
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func outcomes(vs []verdict) map[string]string {
	m := map[string]string{}
	for _, v := range vs {
		m[v.metric] = v.outcome
	}
	return m
}

func TestCompareFlagsInjectedSlowdown(t *testing.T) {
	t0 := time.Unix(1e9, 0)
	got := outcomes(compareResults(testSpec(t), fakeRuns(t0, 1, 0), fakeRuns(t0, 2, time.Second)))
	for metric, want := range map[string]string{"latency_p50_ms": "worse", "flight_s_per_s": "worse"} {
		if got[metric] != want {
			t.Errorf("2× slowdown: %s %s, want %s", metric, got[metric], want)
		}
	}
}

func TestCompareIdenticalRunsAreUnchanged(t *testing.T) {
	t0 := time.Unix(1e9, 0)
	got := outcomes(compareResults(testSpec(t), fakeRuns(t0, 1, 0), fakeRuns(t0, 1, time.Second)))
	for _, metric := range []string{"latency_p50_ms", "flight_s_per_s"} {
		if got[metric] != "unchanged" {
			t.Errorf("identical runs: %s %s, want unchanged", metric, got[metric])
		}
	}
}

func TestCompareRecognisesSpeedup(t *testing.T) {
	t0 := time.Unix(1e9, 0)
	got := outcomes(compareResults(testSpec(t), fakeRuns(t0, 1, 0), fakeRuns(t0, 0.8, time.Second)))
	if got["latency_p50_ms"] != "improved" || got["flight_s_per_s"] != "improved" {
		t.Errorf("20%% speed-up read as %v", got)
	}
}

func TestJudgeReportsWideSpreadAsUnresolved(t *testing.T) {
	old := []float64{100, 60, 140, 80, 120, 90, 110, 70, 130, 100}
	cur := []float64{110, 70, 150, 90, 130, 100, 120, 80, 140, 110}
	if got, _, _, _, _ := judge(old, cur, false, 0.1); got != "unresolved" {
		t.Errorf("spread wider than the bound judged %s, want unresolved", got)
	}
}

func TestRunCompareReadsResultFiles(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Unix(1e9, 0)
	for side, runs := range map[string][]result{"old": fakeRuns(t0, 1, 0), "new": fakeRuns(t0, 2, time.Second)} {
		if err := os.MkdirAll(filepath.Join(dir, side), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, r := range runs {
			if err := writeResult(filepath.Join(dir, side), r, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end": [{"name": "latency_p50_ms", "better": "lower", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := runCompare(spec, filepath.Join(dir, "old"), filepath.Join(dir, "new"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "worse") {
		t.Errorf("compare output lacks the regression:\n%s", out.String())
	}
}
