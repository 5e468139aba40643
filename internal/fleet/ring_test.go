package fleet

import (
	"fmt"
	"slices"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("g-%08d", i+1)
	}
	return out
}

// TestRingDeterminism pins placement: a key's order depends on the
// replica names only, not on the order they are listed in.
func TestRingDeterminism(t *testing.T) {
	a, b := NewRing([]string{"r1", "r2", "r3"}), NewRing([]string{"r3", "r1", "r2"})
	for _, k := range keys(200) {
		if sa, sb := a.Successors(k), b.Successors(k); !slices.Equal(sa, sb) {
			t.Fatalf("key %s: %v vs %v (order depends on name order)", k, sa, sb)
		}
	}
}

// TestRingBalance requires the virtual nodes to spread load: with 3
// replicas and 64 vnodes no replica should own a wildly skewed share.
func TestRingBalance(t *testing.T) {
	r := NewRing([]string{"r1", "r2", "r3"})
	counts := map[string]int{}
	const total = 3000
	for _, k := range keys(total) {
		succ := r.Successors(k)
		if len(succ) == 0 {
			t.Fatal("no owner on populated ring")
		}
		counts[succ[0]]++
	}
	for n, c := range counts {
		if c < total/6 || c > total/2+total/6 {
			t.Errorf("replica %s owns %d/%d keys — balance broken: %v", n, c, total, counts)
		}
	}
}

// TestRingSuccessors checks the preference order: distinct replicas
// covering the whole fleet.
func TestRingSuccessors(t *testing.T) {
	r := NewRing([]string{"r1", "r2", "r3"})
	const k = "g-00000007"
	succ := r.Successors(k)
	if len(succ) != 3 {
		t.Fatalf("successors = %v, want 3 distinct replicas", succ)
	}
	seen := map[string]bool{}
	for _, n := range succ {
		if seen[n] {
			t.Fatalf("duplicate successor %s in %v", n, succ)
		}
		seen[n] = true
	}
	if got := NewRing(nil).Successors(k); got != nil {
		t.Errorf("empty ring successors = %v", got)
	}
}

// TestPlacementFollowsHealth is the consistent-hashing contract on the
// fixed ring: for every set of healthy replicas, a key's candidates are
// its full ring order minus the down replicas — the order a ring built
// over the healthy replicas alone gives. A replica going down moves only
// the keys it owned, and its return moves every key back.
func TestPlacementFollowsHealth(t *testing.T) {
	names := []string{"r1", "r2", "r3"}
	newTestGateway := func() *Gateway {
		t.Helper()
		var reps []Replica
		for i, n := range names {
			reps = append(reps, Replica{Name: n, BaseURL: fmt.Sprintf("http://127.0.0.1:%d", 9001+i)})
		}
		g, err := newGateway(Config{Replicas: reps})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	ks := keys(1000)

	for mask := 0; mask < 1<<len(names); mask++ {
		g := newTestGateway()
		var up []string
		for i, n := range names {
			if mask&(1<<i) != 0 {
				up = append(up, n)
			} else {
				g.health.MarkDown(n)
			}
		}
		healthyRing := NewRing(up)
		for _, k := range ks {
			var want []string
			for _, n := range g.ring.Successors(k) {
				if slices.Contains(up, n) {
					want = append(want, n)
				}
			}
			got := g.candidates(k)
			if !slices.Equal(got, want) {
				t.Fatalf("up %v, key %s: candidates %v, want %v", up, k, got, want)
			}
			if alone := healthyRing.Successors(k); !slices.Equal(got, alone) {
				t.Fatalf("up %v, key %s: candidates %v, ring over the healthy replicas %v", up, k, got, alone)
			}
		}
	}

	g := newTestGateway()
	first := func(k string) string {
		if c := g.candidates(k); len(c) > 0 {
			return c[0]
		}
		return ""
	}
	before := map[string]string{}
	for _, k := range ks {
		before[k] = first(k)
	}
	for _, victim := range names {
		g.health.MarkDown(victim)
		homed := 0
		for _, k := range ks {
			now := first(k)
			if before[k] == victim {
				homed++
				if now == victim || now == "" {
					t.Fatalf("key %s: first candidate %q with its home %s down", k, now, victim)
				}
			} else if now != before[k] {
				t.Fatalf("key %s moved %s -> %s when %s went down", k, before[k], now, victim)
			}
		}
		if homed == 0 {
			t.Fatalf("no key homed on %s", victim)
		}
		for i := 0; i < upAfter; i++ {
			g.health.Observe(victim, nil)
		}
		for _, k := range ks {
			if now := first(k); now != before[k] {
				t.Fatalf("key %s: %s after %s came back, want %s", k, now, victim, before[k])
			}
		}
	}
}
