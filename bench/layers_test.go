package main

import (
	"testing"

	"soundboost/internal/obs"
)

// tracedSnapshots is a registry reading before and after 100 ms spent
// in one Analyze call, of which screen, IMU-detect and GPS-detect
// account for covered ms.
func tracedSnapshots(covered float64) (before, after obs.Snapshot) {
	empty := func() obs.Snapshot {
		return obs.Snapshot{Counters: map[string]int64{}, Gauges: map[string]float64{}, Timers: map[string]obs.HistogramStats{}}
	}
	before, after = empty(), empty()
	after.Timers["core.triage.screen"] = obs.HistogramStats{Count: 1, Sum: covered * 0.2 / 1e3}
	after.Timers["core.rca.imu.detect"] = obs.HistogramStats{Count: 1, Sum: covered * 0.4 / 1e3}
	after.Timers["core.rca.gps.detect"] = obs.HistogramStats{Count: 1, Sum: covered * 0.4 / 1e3}
	after.Timers["core.signature.window"] = obs.HistogramStats{Count: 60}
	return before, after
}

func TestReconciliationFailsAboveTenPercentUnattributed(t *testing.T) {
	spans := []span{{ID: 1, Name: "core.Analyze", Start: 0, End: 100e3}}
	for _, c := range []struct {
		covered  float64
		wantFail bool
	}{{95, false}, {90.5, false}, {85, true}} {
		m := newMeasurement()
		b, a := tracedSnapshots(c.covered)
		offlineLayers(m, spans, 30, 10, 100, 95, b, a)
		got := m.layers["trace.unattributed_frac"].Value
		if want := (100 - c.covered) / 100; got < want-1e-9 || got > want+1e-9 {
			t.Errorf("covered %g ms: unattributed %g, want %g", c.covered, got, want)
		}
		if failed := m.failed > 0 && len(m.checks) > 0; failed != c.wantFail {
			t.Errorf("covered %g of 100 ms: run failed = %v, want %v (%v)", c.covered, failed, c.wantFail, m.checks)
		}
	}
}

func TestSignaturePassesCountsRepeatedWindows(t *testing.T) {
	m := newMeasurement()
	b, a := tracedSnapshots(95)
	// 60 signature windows computed over escalated flights whose grids
	// hold 30 distinct windows: every window computed twice.
	offlineLayers(m, []span{{ID: 1, End: 100e3}}, 30, 10, 100, 95, b, a)
	if got := m.layers["core.signature_passes"].Value; got != 2 {
		t.Errorf("signature passes = %g, want 2", got)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 50},  // overlaps 2: counted once
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent
	}
	if got := selfTimes(spans)[1]; got != 100-40-10 {
		t.Errorf("self time = %g, want 50", got)
	}
}

func TestNestMatchesContainingParent(t *testing.T) {
	parents := []*span{{ID: 1, Session: "a", Start: 0, End: 100}, {ID: 2, Session: "b", Start: 50, End: 200}}
	children := []*span{
		{ID: 3, Session: "a", Start: 60, End: 90},
		{ID: 4, Session: "b", Start: 60, End: 90},
		{ID: 5, Session: "a", Start: 150, End: 160}, // outside a's span
	}
	nest(parents, children, func(p, c *span) bool { return p.Session == c.Session })
	for i, want := range []int{1, 2, 0} {
		if children[i].Parent != want {
			t.Errorf("child %d parent %d, want %d", children[i].ID, children[i].Parent, want)
		}
	}
}
