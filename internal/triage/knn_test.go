package triage

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortedNeighbours is the full-sort reference for nearest: every
// candidate distance, stably sorted in sort.Float64s order, so equal
// distances keep ascending prototype index.
func sortedNeighbours(m *Model, z []float64, benignOnly bool) []neighbour {
	var all []neighbour
	for i, p := range m.protos {
		if benignOnly && m.labels[i] != 0 {
			continue
		}
		all = append(all, neighbour{dist: euclid(z, p), idx: i})
	}
	sort.SliceStable(all, func(a, b int) bool {
		da, db := all[a].dist, all[b].dist
		return da < db || (math.IsNaN(da) && !math.IsNaN(db))
	})
	if len(all) > m.k {
		all = all[:m.k]
	}
	return all
}

// TestKNNSelectionBitwiseMatchesFullSort checks the insertion-buffer
// selection against a full sort: the same prototypes in the same
// order, hence bit-identical mean distances and equal votes, with
// duplicate prototypes (ties broken by lower index) and k up to the
// prototype count.
func TestKNNSelectionBitwiseMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const dim = 6
	var protos [][]float64
	var labels []int
	for i := 0; i < 40; i++ {
		p := make([]float64, dim)
		for j := range p {
			// Coarse values make equal distances common.
			p[j] = float64(rng.Intn(3))
		}
		protos = append(protos, p)
		labels = append(labels, rng.Intn(2))
	}
	// Exact duplicates with opposite labels: only the index decides
	// which one a tie keeps.
	for i := 0; i < 5; i++ {
		protos = append(protos, append([]float64(nil), protos[i]...))
		labels = append(labels, 1-labels[i])
	}
	benign := 0
	for _, l := range labels {
		if l == 0 {
			benign++
		}
	}
	for _, k := range []int{1, 3, 7, 25, 40, benign, len(protos)} {
		m := &Model{protos: protos, labels: labels, k: k}
		for q := 0; q < 50; q++ {
			z := make([]float64, dim)
			for j := range z {
				z[j] = float64(rng.Intn(3))
			}
			for _, benignOnly := range []bool{false, true} {
				want := sortedNeighbours(m, z, benignOnly)
				got := m.nearest(z, benignOnly, nil)
				if len(got) != len(want) {
					t.Fatalf("k=%d benignOnly=%v: %d neighbours, want %d", k, benignOnly, len(got), len(want))
				}
				for i := range want {
					if got[i].idx != want[i].idx || math.Float64bits(got[i].dist) != math.Float64bits(want[i].dist) {
						t.Fatalf("k=%d benignOnly=%v: neighbour %d = %+v, want %+v", k, benignOnly, i, got[i], want[i])
					}
				}
			}
			var sum float64
			votes := 0
			for _, nb := range sortedNeighbours(m, z, false) {
				sum += nb.dist
				votes += labels[nb.idx]
			}
			gotDist, gotVotes := m.neighbours(z)
			if math.Float64bits(gotDist) != math.Float64bits(sum/float64(k)) || gotVotes != votes {
				t.Fatalf("k=%d: neighbours = (%v, %d), want (%v, %d)", k, gotDist, gotVotes, sum/float64(k), votes)
			}
			// meanBenignDistance against the sort.Float64s code it replaces.
			var dists []float64
			for i, p := range protos {
				if labels[i] == 0 {
					dists = append(dists, euclid(z, p))
				}
			}
			sort.Float64s(dists)
			sum = 0
			for _, d := range dists[:min(k, len(dists))] {
				sum += d
			}
			want := sum / float64(min(k, len(dists)))
			if got := m.meanBenignDistance(z); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("k=%d: meanBenignDistance = %v, want %v", k, got, want)
			}
		}
	}
}

// TestNearestOrdersNaNFirst pins the NaN order of the selection to
// sort.Float64s's: a NaN distance lands first in the neighbourhood, so
// the mean distance comes out NaN.
func TestNearestOrdersNaNFirst(t *testing.T) {
	m := &Model{
		protos: [][]float64{{1}, {math.NaN()}, {3}, {0.5}},
		labels: []int{0, 1, 0, 0},
		k:      2,
	}
	got := m.nearest([]float64{0}, false, nil)
	if len(got) != 2 || got[0].idx != 1 || got[1].idx != 3 {
		t.Fatalf("nearest = %+v, want prototype 1 (NaN) then 3", got)
	}
	if d, _ := m.neighbours([]float64{0}); !math.IsNaN(d) {
		t.Errorf("mean distance = %v, want NaN", d)
	}
}
