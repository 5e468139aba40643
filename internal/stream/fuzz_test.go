package stream

import (
	"encoding/json"
	"math"
	"slices"
	"testing"

	soundboost "soundboost/internal/core"
	"soundboost/internal/dataset"
)

// fuzzFields are the telemetry values a mutation script can overwrite.
var fuzzFields = []func(s *dataset.TelemetrySample) *float64{
	func(s *dataset.TelemetrySample) *float64 { return &s.IMUAccel.X },
	func(s *dataset.TelemetrySample) *float64 { return &s.IMUAccel.Y },
	func(s *dataset.TelemetrySample) *float64 { return &s.IMUAccel.Z },
	func(s *dataset.TelemetrySample) *float64 { return &s.IMUGyro.X },
	func(s *dataset.TelemetrySample) *float64 { return &s.IMUGyro.Y },
	func(s *dataset.TelemetrySample) *float64 { return &s.IMUGyro.Z },
	func(s *dataset.TelemetrySample) *float64 { return &s.EstAtt.W },
	func(s *dataset.TelemetrySample) *float64 { return &s.EstAtt.X },
	func(s *dataset.TelemetrySample) *float64 { return &s.EstAtt.Y },
	func(s *dataset.TelemetrySample) *float64 { return &s.EstAtt.Z },
	func(s *dataset.TelemetrySample) *float64 { return &s.GPSPos.X },
	func(s *dataset.TelemetrySample) *float64 { return &s.GPSPos.Y },
	func(s *dataset.TelemetrySample) *float64 { return &s.GPSPos.Z },
	func(s *dataset.TelemetrySample) *float64 { return &s.GPSVel.X },
	func(s *dataset.TelemetrySample) *float64 { return &s.GPSVel.Y },
	func(s *dataset.TelemetrySample) *float64 { return &s.GPSVel.Z },
}

// fuzzValues are the non-finite and huge values a script writes.
var fuzzValues = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 1e200, -1e200,
	math.MaxFloat64, -math.MaxFloat64, 1e30,
}

// A mutation script is one header byte — bits 0-4 set how many events
// the stream ingests between Advance calls (1-32), bit 5 attaches the
// triage tier — then ops of four bytes: opcode, start (tenths of a
// second), span (tenths of a second; 0 edits the one row at or after
// start) and an argument.
const (
	opValue   = iota // write fuzzValues[arg/len(fuzzFields)] into fuzzFields[arg]
	opHole           // drop every row in the range
	opThin           // keep one row in arg+2 in the range
	opDropout        // zero the audio of the range
	opNoGPS          // make GPS velocity component arg%3 NaN on every row
	numOps
)

// maxFuzzOps bounds the work one input can ask for.
const maxFuzzOps = 16

// mutateFlight decodes script into a mutated copy of f and the number
// of events the stream ingests between Advance calls. The copy keeps
// its telemetry time-ordered: ops edit, drop or thin rows but never
// move one, so batch and stream see the same order.
func mutateFlight(f *dataset.Flight, script []byte) (*dataset.Flight, int) {
	g := *f
	g.Telemetry = slices.Clone(f.Telemetry)
	batch := 1
	if len(script) > 0 {
		batch = 1 + int(script[0]%32)
		script = script[1:]
	}
	for n := 0; len(script) >= 4 && n < maxFuzzOps; n++ {
		op, from, span, arg := int(script[0]%numOps), float64(script[1])/10, float64(script[2])/10, int(script[3])
		script = script[4:]
		to := from + span
		if span == 0 {
			to = from
			for _, s := range g.Telemetry {
				if s.Time >= from {
					to = math.Nextafter(s.Time, math.Inf(1))
					break
				}
			}
		}
		in := func(t float64) bool { return t >= from && t < to }
		switch op {
		case opValue:
			field := fuzzFields[arg%len(fuzzFields)]
			v := fuzzValues[arg/len(fuzzFields)%len(fuzzValues)]
			for i := range g.Telemetry {
				if in(g.Telemetry[i].Time) {
					*field(&g.Telemetry[i]) = v
				}
			}
		case opHole, opThin:
			var keep []dataset.TelemetrySample
			k := 0
			for _, s := range g.Telemetry {
				if in(s.Time) {
					k++
					if op == opHole || (k-1)%(arg+2) != 0 {
						continue
					}
				}
				keep = append(keep, s)
			}
			g.Telemetry = keep
		case opDropout:
			rec := *g.Audio // Channels is an array: the copy owns its slots
			lo := min(max(int(from*rec.SampleRate), 0), rec.Samples())
			hi := min(max(int(to*rec.SampleRate), lo), rec.Samples())
			for m, ch := range rec.Channels {
				rec.Channels[m] = slices.Clone(ch)
				clear(rec.Channels[m][lo:hi])
			}
			g.Audio = &rec
		case opNoGPS:
			field := fuzzFields[len(fuzzFields)-3+arg%3] // GPSVel.X, .Y or .Z
			for i := range g.Telemetry {
				*field(&g.Telemetry[i]) = math.NaN()
			}
		}
	}
	return &g, batch
}

// FuzzBatchStreamEquivalence is the differential check of the one
// window path: a mutation script degrades the fixture's hover flight
// (non-finite or huge telemetry values, holes, thinned rows, audio
// dropouts, a GPS that is never finite) and the stream engine, fed the
// mutated flight's events batch by batch, must reproduce batch Analyze
// exactly, with or without the triage tier. The report must also
// encode as JSON and render as text.
func FuzzBatchStreamEquivalence(f *testing.F) {
	fx := getFixture(f)
	tiered := tieredAnalyzer(f)
	base := fx.calib[0]
	f.Fuzz(func(t *testing.T, script []byte) {
		an := fx.analyzer
		if len(script) > 0 && script[0]&32 != 0 {
			an = tiered
		}
		g, batch := mutateFlight(base, script)
		want, wantErr := an.Analyze(g)
		got, gotErr := ingestBatched(t, an, g, batch)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("stream error %v, batch error %v", gotErr, wantErr)
		}
		if got != want {
			t.Fatalf("stream report (error %v)\n  %#v\nbatch report (error %v)\n  %#v", gotErr, got, wantErr, want)
		}
		if _, err := json.Marshal(want); err != nil {
			t.Fatalf("report %+v does not encode: %v", want, err)
		}
		_ = want.String()
	})
}

// ingestBatched feeds g's events to a fresh engine, advancing it after
// every batch events, and returns what the engine's Finish returns.
func ingestBatched(t *testing.T, an *soundboost.Analyzer, g *dataset.Flight, batch int) (soundboost.Report, error) {
	t.Helper()
	eng, err := New(an, g.Audio.SampleRate, WithFlightName(g.Name))
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range Events(CutFlight(g, 0.05)) {
		if err := eng.Ingest(m); err != nil {
			t.Fatal(err)
		}
		if (i+1)%batch == 0 {
			eng.Advance()
		}
	}
	return eng.Finish()
}

// TestHugeAttitudeIsAGPSHole writes an attitude of -1e200 over 4.8-9.6 s
// of the fixture's hover (the fuzz seed huge-attitude-kf-error). The
// NED rotation of those windows overflows; they must be holes the GPS
// stage restarts after, as every other unusable window is, not a KF
// input error that ends stage 2: Analyze succeeds and the engine
// reports the same.
func TestHugeAttitudeIsAGPSHole(t *testing.T) {
	fx := getFixture(t)
	g, batch := mutateFlight(fx.calib[0], []byte("\x10\x32\x30\x30\x37"))
	want, err := fx.analyzer.Analyze(g)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	got, err := ingestBatched(t, fx.analyzer, g, batch)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if got != want {
		t.Fatalf("stream report\n  %#v\nbatch report\n  %#v", got, want)
	}
}
