package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The -compare rule (choosing-metrics guide §6–8): runs of the parent
// (OLD) and the change (NEW) are paired by workload and seed, in run
// order. Per (metric, workload):
//
//   - improved: NEW wins at least 9 of 10 pairs (ties count for
//     neither), over at least minPairs pairs, and the medians differ in
//     NEW's favour by more than the parent's own IQR;
//   - unresolved: the parent's IQR, as a share of its median, exceeds
//     the metric's bound — unless every NEW run beats every OLD run;
//   - worse: NEW's median is worse than OLD's by more than the bound;
//   - unchanged: otherwise.

// minPairs is the fewest pairs a gain may rest on.
const minPairs = 10

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict is one (metric, workload) outcome.
type verdict struct {
	workload, metric      string
	pairs, wins, oldFirst int
	oldMedian, newMedian  float64
	oldIQR, bound         float64
	outcome               string
}

func runCompare(specPath, oldSpec, newSpec string, w io.Writer) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	old, err := readResults(oldSpec)
	if err != nil {
		return err
	}
	cur, err := readResults(newSpec)
	if err != nil {
		return err
	}
	vs := compareResults(spec, old, cur)
	if len(vs) == 0 {
		return fmt.Errorf("no paired end-to-end runs in %s and %s", oldSpec, newSpec)
	}
	fmt.Fprintf(w, "%-12s %-22s %5s %5s %12s %12s %10s  %s\n", "workload", "metric", "pairs", "wins", "old median", "new median", "old IQR", "outcome")
	for i, v := range vs {
		fmt.Fprintf(w, "%-12s %-22s %5d %5d %12.6g %12.6g %10.4g  %s\n",
			v.workload, v.metric, v.pairs, v.wins, v.oldMedian, v.newMedian, v.oldIQR, v.outcome)
		lastOfWorkload := i == len(vs)-1 || vs[i+1].workload != v.workload
		if d := 2*v.oldFirst - v.pairs; lastOfWorkload && (d > 1 || d < -1) {
			fmt.Fprintf(w, "  note: OLD ran first in %d of %d %s pairs; alternate the order\n", v.oldFirst, v.pairs, v.workload)
		}
	}
	return nil
}

// readResults loads the end-to-end result files a directory (or glob)
// names.
func readResults(pattern string) ([]result, error) {
	if st, err := os.Stat(pattern); err == nil && st.IsDir() {
		pattern = filepath.Join(pattern, "*.json")
	}
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	var out []result
	for _, p := range paths {
		if strings.HasSuffix(p, ".spans.json") {
			continue
		}
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out, nil
}

type pairKey struct {
	workload string
	seed     int64
}

func compareResults(spec benchSpec, old, cur []result) []verdict {
	group := func(rs []result) map[pairKey][]result {
		g := map[pairKey][]result{}
		for _, r := range rs {
			k := pairKey{r.Workload, r.Seed}
			g[k] = append(g[k], r)
		}
		for _, list := range g {
			sort.Slice(list, func(i, j int) bool { return list[i].Start.Before(list[j].Start) })
		}
		return g
	}
	og, ng := group(old), group(cur)
	pairs := map[string][][2]result{}
	for k, olds := range og {
		news := ng[k]
		for i := 0; i < len(olds) && i < len(news); i++ {
			pairs[k.workload] = append(pairs[k.workload], [2]result{olds[i], news[i]})
		}
	}
	var workloadNames []string
	for name := range pairs {
		workloadNames = append(workloadNames, name)
	}
	sort.Strings(workloadNames)

	var out []verdict
	for _, wl := range workloadNames {
		for _, m := range spec.EndToEnd {
			var o, n []float64
			v := verdict{workload: wl, metric: m.Name, bound: m.Bound}
			for _, p := range pairs[wl] {
				ov, ok1 := p[0].Metrics[m.Name]
				nv, ok2 := p[1].Metrics[m.Name]
				if !ok1 || !ok2 {
					continue
				}
				o, n = append(o, ov.Value), append(n, nv.Value)
				if p[0].Start.Before(p[1].Start) {
					v.oldFirst++
				}
			}
			if len(o) == 0 {
				continue
			}
			v.pairs = len(o)
			v.outcome, v.wins, v.oldMedian, v.newMedian, v.oldIQR = judge(o, n, m.Better == "higher", m.Bound)
			out = append(out, v)
		}
	}
	return out
}

// judge classifies one metric from paired parent (o) and change (n)
// values.
func judge(o, n []float64, higherBetter bool, bound float64) (outcome string, wins int, medO, medN, iqr float64) {
	better := func(a, b float64) bool { // a reads better than b
		if higherBetter {
			return a > b
		}
		return a < b
	}
	for i := range o {
		if better(n[i], o[i]) {
			wins++
		}
	}
	medO, medN = median(o), median(n)
	q1, q3 := quartiles(o)
	iqr = q3 - q1
	gain := medO - medN
	if higherBetter {
		gain = -gain
	}
	allBetter := true
	for _, nv := range n {
		for _, ov := range o {
			if !better(nv, ov) {
				allBetter = false
			}
		}
	}
	switch {
	case len(o) >= minPairs && 10*wins >= 9*len(o) && gain > iqr:
		return "improved", wins, medO, medN, iqr
	case iqr/medO > bound && !allBetter:
		return "unresolved", wins, medO, medN, iqr
	case -gain/medO > bound:
		return "worse", wins, medO, medN, iqr
	}
	return "unchanged", wins, medO, medN, iqr
}
