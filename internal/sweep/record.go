// Package sweep is the grid runner behind `soundboost sweep`: it
// expands comma-separated grids over detector margins, KF variants,
// chunk/frame sizes, and attack families/intensities into a trial
// matrix, synthesizes each cell's flight, and drives every trial
// through a live /v1 server over real HTTP — either self-hosted
// in-process servers (one per derived analyzer) or an external
// `soundboost serve` instance. Each trial emits one schema-versioned
// JSONL record; the rollup aggregates them into pooled and
// session-disjoint confusion matrices, attribution accuracy, and a
// GPS ROC/AUC. A fixed seed produces a byte-identical sweep (JSONL and
// rollup), which is what makes a small sweep usable as a CI gate on
// detection accuracy. See DESIGN.md "Sweep workload".
package sweep

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// SchemaVersion names the record schema emitted by this package.
// Adding a field is backward compatible; renaming, removing, or
// changing the meaning of one requires bumping the version (the same
// contract the /v1 wire schema follows). sweep/v2 added the triage
// axis to Params and the CSV summary.
const SchemaVersion = "sweep/v2"

// KFServer is the Params.KF sentinel recorded in external-server mode,
// where the analyzer — and therefore the variant/margin calibration —
// belongs to the server and cannot be swept.
const KFServer = "server"

// Params pins one grid cell: every axis value the trial ran under.
type Params struct {
	// KF names the variant whose GPS detector was rescaled to Margin
	// ("audio-only" or "audio+imu"), or KFServer in external mode.
	KF string `json:"kf"`
	// Margin is the GPS threshold margin the cell's analyzer runs at
	// (0 in external mode: the server's own calibration applies).
	Margin float64 `json:"margin"`
	// Triage reports whether the cell's analyzer screened windows
	// through the KNN triage tier (always false in external mode: the
	// server's own analyzer decides).
	Triage bool `json:"triage"`
	// ChunkSeconds is the flight seconds carried per frames request.
	ChunkSeconds float64 `json:"chunk_seconds"`
	// FrameSeconds is the audio frame length inside each request.
	FrameSeconds float64 `json:"frame_seconds"`
	// Attack is the attack family ("benign" for clean flights).
	Attack string `json:"attack"`
	// Intensity scales the family's canonical attack magnitude.
	Intensity float64 `json:"intensity"`
	// Rep distinguishes repeated flights of the same attack cell (wind
	// conditions cycle per rep).
	Rep int `json:"rep"`
}

// Truth is the generator-side ground truth of the trial's flight.
type Truth struct {
	// Attack reports whether the flight contains an attack.
	Attack bool `json:"attack"`
	// Kind is the dataset scenario kind ("benign", "gps-drift",
	// "imu-accel-dos", ...).
	Kind string `json:"kind"`
	// StartSeconds / EndSeconds bound the attack window (0 for benign).
	StartSeconds float64 `json:"start_seconds"`
	EndSeconds   float64 `json:"end_seconds"`
}

// Verdict is the server's RCA outcome for the trial.
type Verdict struct {
	// Cause is the attributed root cause ("none", "imu", "gps",
	// "imu+gps").
	Cause string `json:"cause"`
	// IMUAttacked / GPSAttacked are the per-stage flags.
	IMUAttacked bool `json:"imu_attacked"`
	GPSAttacked bool `json:"gps_attacked"`
	// GPSMode is the KF variant stage 2 actually used.
	GPSMode string `json:"gps_mode"`
	// DetectionSeconds is the earliest detection time among flagged
	// stages (0 when nothing was flagged).
	DetectionSeconds float64 `json:"detection_seconds"`
	// PeakError and Threshold are the GPS stage's score and decision
	// level — the operating point the ROC rollup sweeps.
	PeakError float64 `json:"peak_error"`
	Threshold float64 `json:"threshold"`
}

// Record is one trial's JSONL line. Field order is the byte layout of
// the sweep output; it only changes with a schema version bump.
type Record struct {
	SchemaVersion string `json:"schema_version"`
	// Trial is the trial's index in the deterministic grid enumeration.
	Trial int `json:"trial"`
	// Flight names the synthesized flight (shared across every grid
	// cell that reuses it — the key the session-disjoint rollup groups
	// by).
	Flight  string  `json:"flight"`
	Params  Params  `json:"params"`
	Truth   Truth   `json:"truth"`
	Verdict Verdict `json:"verdict"`
	// Correct reports strict cause-family agreement: benign flights
	// must yield "none", gps-* attacks "gps", imu-* attacks "imu"
	// (a partial "imu+gps" attribution does not count).
	Correct bool `json:"correct"`
	// Chunks counts the frames requests the trial pushed.
	Chunks int `json:"chunks"`
	// Shed is always 0: the server never drops input. Kept so the
	// record schema is unchanged.
	Shed int `json:"shed"`
	// Retries counts the trial's HTTP retries (0 against a healthy
	// server; nonzero values mean wall-clock luck entered the sweep).
	Retries int64 `json:"retries"`
	// PhaseSeconds holds wall-clock phase timings: "push", then
	// "report", which includes the session's drain (GET .../report
	// waits it out). Recorded only when Config.Timings is set — wall
	// time is nondeterministic, so it is off by default to keep
	// same-seed sweeps byte-identical.
	PhaseSeconds map[string]float64 `json:"phase_seconds,omitempty"`
}

// truthFamily maps a scenario kind to the cause family the analyzer
// must attribute for the trial to count as correct.
func truthFamily(kind string) string {
	switch {
	case kind == "" || kind == "benign":
		return "none"
	case strings.HasPrefix(kind, "gps-"):
		return "gps"
	case strings.HasPrefix(kind, "imu-"):
		return "imu"
	default:
		return kind
	}
}

// WriteJSONL writes one canonical JSON line per record. Encoding is
// deterministic: struct field order fixes the key order, and the only
// map field marshals with sorted keys.
func WriteJSONL(w io.Writer, records []Record) error {
	for i := range records {
		line, err := json.Marshal(&records[i])
		if err != nil {
			return fmt.Errorf("sweep: marshal trial %d: %w", records[i].Trial, err)
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// ParseRecords reads a JSONL stream written by WriteJSONL back into
// records, strictly: unknown fields and any schema version other than
// the current one are errors, so a consumer built against sweep/v2
// fails loudly on v1 archives (or a future v3) instead of silently
// zero-filling the fields that changed.
func ParseRecords(r io.Reader) ([]Record, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var out []Record
	for line := 0; ; line++ {
		var rec Record
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("sweep: record %d: %w", line, err)
		}
		if rec.SchemaVersion != SchemaVersion {
			return nil, fmt.Errorf("sweep: record %d: schema %q (this build reads %q)",
				line, rec.SchemaVersion, SchemaVersion)
		}
		out = append(out, rec)
	}
}

// csvHeader is the column order of the per-trial CSV summary.
var csvHeader = []string{
	"trial", "flight", "kf", "margin", "triage", "chunk_seconds", "frame_seconds",
	"attack", "intensity", "rep", "truth_kind", "cause", "correct",
	"detection_seconds", "peak_error", "threshold", "chunks", "shed", "retries",
}

// WriteCSV writes the per-trial summary table (one row per record,
// phase timings omitted — they are JSONL-only).
func WriteCSV(w io.Writer, records []Record) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for i := range records {
		r := &records[i]
		row := []string{
			strconv.Itoa(r.Trial), r.Flight, r.Params.KF, g(r.Params.Margin),
			strconv.FormatBool(r.Params.Triage),
			g(r.Params.ChunkSeconds), g(r.Params.FrameSeconds),
			r.Params.Attack, g(r.Params.Intensity), strconv.Itoa(r.Params.Rep),
			r.Truth.Kind, r.Verdict.Cause, strconv.FormatBool(r.Correct),
			g(r.Verdict.DetectionSeconds), g(r.Verdict.PeakError), g(r.Verdict.Threshold),
			strconv.Itoa(r.Chunks), strconv.Itoa(r.Shed), strconv.FormatInt(r.Retries, 10),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
