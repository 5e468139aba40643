package fleet

import (
	"testing"

	"soundboost/internal/obs"
)

// TestReplicationLagBoundsRegistry drives 10k sessions' replication lag
// through the gauges: the registry keeps the same metrics however many
// sessions lag, lag_max tracks the worst one, and both gauges drain to
// zero once every follower catches up.
func TestReplicationLagBoundsRegistry(t *testing.T) {
	withObs(t)
	size := func() int {
		snap := obs.Default.Snapshot()
		return len(snap.Counters) + len(snap.Gauges) + len(snap.Histograms) + len(snap.Timers)
	}
	g := &Gateway{}
	lagging := func(lag int) *route {
		return &route{replica: "a", followers: []string{"b"}, repSeq: lag, repAcked: map[string]int{"b": 0}}
	}
	routes := make([]*route, 10000)
	routes[0] = lagging(1)
	g.updateLagLocked(routes[0])
	start := size()
	for i := 1; i < len(routes); i++ {
		routes[i] = lagging(1 + i%50)
		g.updateLagLocked(routes[i])
	}
	if got := size(); got != start {
		t.Fatalf("registry grew from %d to %d metrics over 10k lagging sessions", start, got)
	}
	if behind, worst := replicationBehind.Value(), replicationLagMax.Value(); behind != 10000 || worst != 50 {
		t.Fatalf("behind = %v, lag_max = %v; want 10000, 50", behind, worst)
	}
	for _, rt := range routes {
		rt.repAcked["b"] = rt.repSeq
		g.updateLagLocked(rt)
	}
	if replicationBehind.Value() != 0 || replicationLagMax.Value() != 0 {
		t.Fatalf("after catch-up behind = %v, lag_max = %v; want 0, 0",
			replicationBehind.Value(), replicationLagMax.Value())
	}
}
