package dataset

import (
	"bytes"
	"strings"
	"testing"

	"soundboost/internal/sim"
)

func TestWriteTelemetryCSV(t *testing.T) {
	f, err := Generate(FastGenConfig(sim.HoverMission{Seconds: 1}, 43))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.WriteTelemetryCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(f.Telemetry)+1 {
		t.Fatalf("%d csv lines, want %d", len(lines), len(f.Telemetry)+1)
	}
	if !strings.HasPrefix(lines[0], "time,imu_ax") {
		t.Errorf("header = %q", lines[0])
	}
	if cols := strings.Count(lines[1], ",") + 1; cols != 23 {
		t.Errorf("row has %d columns, want 23", cols)
	}
}

func TestWriteSeriesCSVRagged(t *testing.T) {
	var buf bytes.Buffer
	err := WriteSeriesCSV(&buf, []string{"a", "b"}, [][]float64{{1, 2}, {3}})
	if err == nil {
		t.Error("ragged rows accepted")
	}
}
