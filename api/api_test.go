package api

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	soundboost "soundboost/internal/core"
	"soundboost/internal/kalman"
	"soundboost/internal/mathx"
	"soundboost/internal/stream"
)

var update = flag.Bool("update", false, "rewrite the golden schema snapshot")

// sampleCoreReport populates every field with a distinct non-zero value
// so a dropped or swapped field cannot round-trip cleanly.
func sampleCoreReport() soundboost.Report {
	return soundboost.Report{
		Flight: "incident-17",
		Cause:  soundboost.CauseIMUAndGPS,
		IMU: soundboost.IMUVerdict{
			Attacked:        true,
			DetectionTime:   6.25,
			WindowsTested:   40,
			WindowsRejected: 11,
			AttackStd:       3.5,
		},
		GPS: soundboost.GPSVerdict{
			Attacked:      true,
			DetectionTime: 9.75,
			PeakError:     2.125,
			Threshold:     1.0625,
		},
		GPSMode: kalman.ModeAudioOnly,
	}
}

// TestReportRoundTrip is the conversion contract: internal Report →
// v1 JSON → internal Report is the identity, through the actual wire
// bytes with strict decoding.
func TestReportRoundTrip(t *testing.T) {
	want := sampleCoreReport()
	wire := ReportFromCore(want)
	if wire.SchemaVersion != Version {
		t.Errorf("SchemaVersion = %q, want %q", wire.SchemaVersion, Version)
	}
	raw, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Report
	if err := DecodeStrict(bytes.NewReader(raw), &decoded); err != nil {
		t.Fatalf("strict decode of our own wire form: %v", err)
	}
	if got := decoded.ToCore(); !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestReportPrecisionWire pins the /v1 precision fields of a report:
// every report names "float64" and omits tolerance, and reports written
// by servers that predate the fields or ran float32 still decode
// strictly to the same internal report.
func TestReportPrecisionWire(t *testing.T) {
	r := sampleCoreReport()
	raw, err := json.Marshal(ReportFromCore(r))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"precision":"float64"`) {
		t.Errorf("report missing precision field: %s", raw)
	}
	if strings.Contains(string(raw), "tolerance") {
		t.Errorf("report must omit the zero tolerance: %s", raw)
	}
	for _, old := range []string{
		strings.Replace(string(raw), `,"precision":"float64"`, "", 1),
		strings.Replace(string(raw), `"precision":"float64"`, `"precision":"float32","tolerance":0.001`, 1),
	} {
		if old == string(raw) {
			t.Fatalf("precision field not found in %s", raw)
		}
		var decoded Report
		if err := DecodeStrict(strings.NewReader(old), &decoded); err != nil {
			t.Fatalf("strict decode of %s: %v", old, err)
		}
		if got := decoded.ToCore(); got != r {
			t.Errorf("%s decoded as %+v, want %+v", old, got, r)
		}
	}
}

func TestEngineStatusRoundTrip(t *testing.T) {
	want := stream.Status{
		LastWindowEnd: 12.5,
		Windows:       48,
		Skipped:       3,
		IMUAttacked:   true,
		GPSAttacked:   true,
		ActiveMode:    kalman.ModeAudioOnly,
		RunningError:  0.75,
		PeakError:     2.25,
		Threshold:     1.125,
	}
	raw, err := json.Marshal(EngineStatusFromStream(want))
	if err != nil {
		t.Fatal(err)
	}
	var decoded EngineStatus
	if err := DecodeStrict(bytes.NewReader(raw), &decoded); err != nil {
		t.Fatal(err)
	}
	if got := decoded.ToStream(); !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestTelemetryRoundTrip(t *testing.T) {
	frame := stream.AudioFrame{Start: 0.25, Rate: 4000, Samples: [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}}
	if got := AudioFrameFromStream(frame).ToStream(); !reflect.DeepEqual(got, frame) {
		t.Errorf("audio frame round trip: %+v != %+v", got, frame)
	}
	imu := stream.IMUSample{
		Time:  1.5,
		Accel: mathx.Vec3{X: 1, Y: 2, Z: 3},
		Gyro:  mathx.Vec3{X: 4, Y: 5, Z: 6},
		Att:   mathx.Quat{W: 0.5, X: 0.5, Y: 0.5, Z: 0.5},
	}
	if got := IMUSampleFromStream(imu).ToStream(); !reflect.DeepEqual(got, imu) {
		t.Errorf("IMU sample round trip: %+v != %+v", got, imu)
	}
	gps := stream.GPSSample{
		Time: 2.5,
		Pos:  mathx.Vec3{X: 7, Y: 8, Z: 9},
		Vel:  mathx.Vec3{X: 10, Y: 11, Z: 12},
	}
	if got := GPSSampleFromStream(gps).ToStream(); !reflect.DeepEqual(got, gps) {
		t.Errorf("GPS sample round trip: %+v != %+v", got, gps)
	}
}

func TestDecodeStrictRejectsUnknownFields(t *testing.T) {
	var req SessionRequest
	err := DecodeStrict(strings.NewReader(`{"sample_rate_hz": 4000, "bogus_field": 1}`), &req)
	if err == nil {
		t.Fatal("unknown field accepted")
	}
	if !strings.Contains(err.Error(), "bogus_field") {
		t.Errorf("error %q does not name the offending field", err)
	}
}

func TestDecodeStrictRejectsTrailingData(t *testing.T) {
	var req SessionRequest
	err := DecodeStrict(strings.NewReader(`{"sample_rate_hz": 4000}{"sample_rate_hz": 8000}`), &req)
	if err == nil {
		t.Fatal("trailing JSON value accepted")
	}
}

func TestDecodeStrictAcceptsValid(t *testing.T) {
	var req FramesRequest
	body := `{"audio":[{"start_seconds":0,"rate_hz":4000,"samples":[[0.1],[0.2],[0.3],[0.4]]}],` +
		`"imu":[{"time_seconds":0,"accel":{"x":0,"y":0,"z":-9.8},"gyro":{"x":0,"y":0,"z":0},"att":{"w":1,"x":0,"y":0,"z":0}}],` +
		`"gps":[{"time_seconds":0,"pos":{"x":0,"y":0,"z":-10},"vel":{"x":0,"y":0,"z":0}}],"close":true}`
	if err := DecodeStrict(strings.NewReader(body), &req); err != nil {
		t.Fatalf("valid frames body rejected: %v", err)
	}
	if len(req.Audio) != 1 || len(req.IMU) != 1 || len(req.GPS) != 1 || !req.Close {
		t.Errorf("decoded request lost content: %+v", req)
	}
}

// schemaSamples returns one canonically populated instance of every wire
// type, keyed by type name. The golden file pins its serialized shape.
func schemaSamples() map[string]any {
	wireReport := ReportFromCore(sampleCoreReport())
	status := SessionStatus{
		SchemaVersion: Version,
		ID:            "s-0001",
		Flight:        "incident-17",
		State:         SessionDraining,
		AgeSeconds:    30.5,
		IdleSeconds:   1.25,
		Shed:          2,
		Engine: EngineStatus{
			LastWindowEndSeconds: 12.5,
			Windows:              48,
			Skipped:              3,
			IMUAttacked:          true,
			GPSAttacked:          true,
			ActiveKFMode:         string(kalman.ModeAudioOnly),
			RunningError:         0.75,
			PeakError:            2.25,
			Threshold:            1.125,
		},
	}
	return map[string]any{
		"Error":  Error{Code: CodeConflict, Error: "session already closed"},
		"Health": Health{SchemaVersion: Version, Status: "ok", ActiveSessions: 3, SessionCap: 64, JobsInFlight: 1, JobCap: 4},
		"Report": wireReport,
		"FlightResponse": FlightResponse{
			Report:         wireReport,
			ElapsedSeconds: 0.5,
		},
		"SessionRequest": SessionRequest{
			Flight:            "incident-17",
			SampleRateHz:      4000,
			Buffer:            8192,
			LagHorizonSeconds: 5,
			GapFill:           true,
			Precision:         string(soundboost.Float32),
		},
		"SessionResponse": SessionResponse{SchemaVersion: Version, ID: "s-0001", State: SessionOpen},
		"FramesRequest": FramesRequest{
			Audio: []AudioFrame{{StartSeconds: 0.25, RateHz: 4000, Samples: [][]float64{{0.5}, {0.25}, {0.125}, {0.0625}}}},
			IMU: []IMUSample{{
				TimeSeconds: 0.25,
				Accel:       Vec3{X: 1, Y: 2, Z: 3},
				Gyro:        Vec3{X: 4, Y: 5, Z: 6},
				Att:         Quat{W: 0.5, X: 0.5, Y: 0.5, Z: 0.5},
			}},
			GPS: []GPSSample{{
				TimeSeconds: 0.25,
				Pos:         Vec3{X: 7, Y: 8, Z: 9},
				Vel:         Vec3{X: 10, Y: 11, Z: 12},
			}},
			Close: true,
		},
		"FramesResponse": FramesResponse{SchemaVersion: Version, Accepted: 42, Shed: 1, State: SessionDone},
		"SessionStatus":  status,
		"JournalAppend": JournalAppend{
			SchemaVersion: Version,
			Seq:           3,
			Request:       SessionRequest{Flight: "incident-17", SampleRateHz: 4000},
			Chunk:         FramesRequest{Seq: 3, IMU: []IMUSample{{TimeSeconds: 0.75}}},
		},
		"JournalAppendResponse": JournalAppendResponse{
			SchemaVersion: Version,
			ID:            "g-00000001",
			LastSeq:       3,
		},
		"SessionJournal": SessionJournal{
			SchemaVersion: Version,
			ID:            "s-0001",
			Request:       SessionRequest{Flight: "incident-17", SampleRateHz: 4000},
			State:         SessionOpen,
			LastSeq:       2,
			Chunks: []FramesRequest{
				{Seq: 1, IMU: []IMUSample{{TimeSeconds: 0.25}}},
				{Seq: 2, GPS: []GPSSample{{TimeSeconds: 0.5}}},
			},
		},
	}
}

// TestSchemaGolden pins the wire format: any change to a DTO's
// serialized shape fails here until the golden file is regenerated with
// -update — and per the versioning rules, an incompatible change also
// requires bumping Version.
func TestSchemaGolden(t *testing.T) {
	doc := struct {
		Version string         `json:"version"`
		Types   map[string]any `json:"types"`
	}{Version: Version, Types: schemaSamples()}
	got, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", Version+"_schema.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate with `go test ./api -run TestSchemaGolden -update`)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("wire schema drifted from %s.\nIf this change is intentional and backward compatible, regenerate with -update.\nIf it renames/removes/repurposes a field, bump api.Version first.\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}
