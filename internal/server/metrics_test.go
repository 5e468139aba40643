package server

import (
	"fmt"
	"testing"

	"soundboost/internal/obs"
)

// TestLabelGroup pins the flight-label → metric-group mapping: the
// prefix before the first "/" when present, "default" for empty labels,
// and separator characters flattened so registry names stay clean.
func TestLabelGroup(t *testing.T) {
	cases := []struct {
		flight string
		want   string
	}{
		{"sweep/trial-0042", "sweep"},
		{"sweep/kf=audio-only/m=1.1", "sweep"},
		{"chaos-00-control", "chaos-00-control"},
		{"hover_b01", "hover_b01"},
		{"", "default"},
		{"   ", "default"},
		{"/anonymous", "default"},
		{"weird label/x", "weird_label"},
		{"dots.and:colons", "dots_and_colons"},
	}
	for _, c := range cases {
		if got := labelGroup(c.flight); got != c.want {
			t.Errorf("labelGroup(%q) = %q, want %q", c.flight, got, c.want)
		}
	}
}

// TestSessionLabelsBoundRegistry opens 10k sessions' worth of distinct
// flight labels: past maxLabelGroups groups they all count under
// "other", so the registry stops growing.
func TestSessionLabelsBoundRegistry(t *testing.T) {
	size := func() int {
		snap := obs.Default.Snapshot()
		return len(snap.Counters) + len(snap.Gauges) + len(snap.Histograms) + len(snap.Timers)
	}
	for i := 0; i < maxLabelGroups; i++ {
		sessionsOpenedByGroup(fmt.Sprintf("fill-%d", i)).Inc()
	}
	other := sessionsOpenedByGroup("yet-another-label")
	start := size()
	for i := 0; i < 10000; i++ {
		if c := sessionsOpenedByGroup(fmt.Sprintf("flight-%05d/x", i)); c != other {
			t.Fatalf("label %d counts under %q, want the other bucket", i, c.Name())
		}
	}
	if got := size(); got != start {
		t.Fatalf("registry grew from %d to %d metrics over 10k session labels", start, got)
	}
}
