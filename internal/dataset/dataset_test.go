package dataset

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"soundboost/internal/acoustics"
	"soundboost/internal/attack"
	"soundboost/internal/mathx"
	"soundboost/internal/sim"
)

// quickGenConfig returns a fast low-rate configuration for tests.
func quickGenConfig(mission sim.Mission, seed int64) GenConfig {
	cfg := DefaultGenConfig(mission, seed)
	cfg.World.PhysicsRate = 250
	cfg.World.ControlRate = 125
	cfg.World.IMU.SampleRate = 125 // divides the physics rate evenly
	cfg.Synth.SampleRate = 4000
	cfg.Synth.AeroFreq = 1500 // keep the band under the reduced Nyquist
	return cfg
}

func TestGenerateBenignFlight(t *testing.T) {
	cfg := quickGenConfig(sim.HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: 4}, 1)
	f, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f.Scenario.IsAttack() {
		t.Error("benign flight marked as attack")
	}
	if f.Scenario.Kind != "benign" {
		t.Errorf("Kind = %q", f.Scenario.Kind)
	}
	if got := f.Duration(); math.Abs(got-4) > 0.5 {
		t.Errorf("Duration = %v, want ~4", got)
	}
	if rate := f.IMUSampleRate(); math.Abs(rate-125) > 10 {
		t.Errorf("IMU rate = %v, want ~125", rate)
	}
	if f.Audio == nil || f.Audio.Samples() == 0 {
		t.Fatal("no audio")
	}
	if math.Abs(f.Audio.Duration()-4) > 0.5 {
		t.Errorf("audio duration = %v", f.Audio.Duration())
	}
}

func TestGenerateNilMission(t *testing.T) {
	cfg := quickGenConfig(sim.HoverMission{Seconds: 1}, 1)
	cfg.Mission = nil
	if _, err := Generate(cfg); err == nil {
		t.Error("nil mission accepted")
	}
}

func TestGenerateWithGPSSpoof(t *testing.T) {
	cfg := quickGenConfig(sim.HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: 6}, 2)
	cfg.Scenario = attack.Scenario{
		Name: "gps",
		GPS: &attack.GPSSpoofer{
			Window:        attack.Window{Start: 2, End: 6},
			Mode:          attack.GPSSpoofStatic,
			SpoofOffset:   mathx.Vec3{X: 10},
			ReportZeroVel: true,
		},
	}
	f, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f.Scenario.Kind != "gps-static" {
		t.Errorf("Kind = %q", f.Scenario.Kind)
	}
	// During the spoof the logged GPS must diverge from truth, and the
	// vehicle must physically deviate as the controller chases the lie.
	var maxGap, maxDev float64
	for _, s := range f.TelemetryBetween(3, 6) {
		if gap := s.GPSPos.Sub(s.TruePos).Norm(); gap > maxGap {
			maxGap = gap
		}
		if dev := s.TruePos.Sub(mathx.Vec3{Z: -10}).Norm(); dev > maxDev {
			maxDev = dev
		}
	}
	if maxGap < 3 {
		t.Errorf("GPS-truth gap %v m during spoof, want > 3", maxGap)
	}
	if maxDev < 3 {
		t.Errorf("physical deviation %v m during spoof, want > 3 (controller chased the spoof)", maxDev)
	}
}

func TestGenerateWithIMUBias(t *testing.T) {
	cfg := quickGenConfig(sim.HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: 6}, 3)
	cfg.Scenario = attack.Scenario{
		Name: "imu",
		IMU: &attack.IMUBiaser{
			Window:    attack.Window{Start: 2, End: 5},
			Mode:      attack.IMUAccelDoS,
			Axis:      mathx.Vec3{Z: 1},
			Magnitude: 2,
			Rng:       rand.New(rand.NewSource(9)),
		},
	}
	f, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f.Scenario.Kind != "imu-accel-dos" {
		t.Errorf("Kind = %q", f.Scenario.Kind)
	}
	// Logged IMU accel during the attack must be noisier than before it.
	variance := func(samples []TelemetrySample) float64 {
		var vals []float64
		for _, s := range samples {
			vals = append(vals, s.IMUAccel.Z)
		}
		var mean float64
		for _, v := range vals {
			mean += v
		}
		mean /= float64(len(vals))
		var ss float64
		for _, v := range vals {
			ss += (v - mean) * (v - mean)
		}
		return ss / float64(len(vals))
	}
	pre := variance(f.TelemetryBetween(0, 2))
	during := variance(f.TelemetryBetween(2, 5))
	if during < 10*pre {
		t.Errorf("attack variance %v not much larger than benign %v", during, pre)
	}
}

func TestGenerateInvalidIMUAttack(t *testing.T) {
	cfg := quickGenConfig(sim.HoverMission{Seconds: 1}, 1)
	cfg.Scenario = attack.Scenario{IMU: &attack.IMUBiaser{}}
	if _, err := Generate(cfg); err == nil {
		t.Error("invalid IMU attack accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	cfg := quickGenConfig(sim.HoverMission{Point: mathx.Vec3{Z: -8}, Seconds: 2}, 4)
	f, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name != f.Name || loaded.Mission != f.Mission || loaded.Scenario != f.Scenario {
		t.Error("metadata mismatch after round trip")
	}
	if len(loaded.Telemetry) != len(f.Telemetry) {
		t.Fatalf("telemetry length %d, want %d", len(loaded.Telemetry), len(f.Telemetry))
	}
	if !reflect.DeepEqual(loaded.Telemetry[10], f.Telemetry[10]) {
		t.Error("telemetry sample mismatch")
	}
	if loaded.Audio.Samples() != f.Audio.Samples() {
		t.Fatalf("audio length %d, want %d", loaded.Audio.Samples(), f.Audio.Samples())
	}
	// float32 storage: samples agree to float32 precision.
	for i := 0; i < loaded.Audio.Samples(); i += 1000 {
		a, b := loaded.Audio.Channels[2][i], f.Audio.Channels[2][i]
		if math.Abs(a-b) > 1e-5*(1+math.Abs(b)) {
			t.Fatalf("audio sample %d: %v vs %v", i, a, b)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	cfg := quickGenConfig(sim.HoverMission{Point: mathx.Vec3{Z: -8}, Seconds: 1}, 5)
	f, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "flights", "f1.sbf")
	if err := f.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name != f.Name {
		t.Error("name mismatch")
	}
}

func TestLoadCorrupt(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not json\nXXXX")); err == nil {
		t.Error("corrupt header accepted")
	}
	if _, err := Load(bytes.NewBufferString("{}\nBAD!")); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestSplitIndices(t *testing.T) {
	train, val, test := SplitIndices(100, 0.2, 0.1, 7)
	if len(val) != 20 || len(test) != 10 || len(train) != 70 {
		t.Fatalf("split sizes %d/%d/%d", len(train), len(val), len(test))
	}
	seen := map[int]bool{}
	for _, set := range [][]int{train, val, test} {
		for _, i := range set {
			if seen[i] {
				t.Fatalf("index %d in multiple splits", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != 100 {
		t.Errorf("%d unique indices, want 100", len(seen))
	}
	// Deterministic per seed.
	train2, _, _ := SplitIndices(100, 0.2, 0.1, 7)
	for i := range train {
		if train[i] != train2[i] {
			t.Fatal("split not deterministic")
		}
	}
}

func TestTelemetryBetween(t *testing.T) {
	f := &Flight{Telemetry: []TelemetrySample{
		{Time: 0}, {Time: 1}, {Time: 2}, {Time: 3},
	}}
	got := f.TelemetryBetween(1, 3)
	if len(got) != 2 || got[0].Time != 1 || got[1].Time != 2 {
		t.Errorf("TelemetryBetween = %+v", got)
	}
	if f.IMUSampleRate() != 1 {
		t.Errorf("IMUSampleRate = %v", f.IMUSampleRate())
	}
	empty := &Flight{}
	if empty.Duration() != 0 || empty.IMUSampleRate() != 0 {
		t.Error("empty flight stats wrong")
	}
}

// payloadFlight is a flight whose audio spans several payload blocks
// and ends inside one, with a distinct value in every sample.
func payloadFlight() *Flight {
	rec := &acoustics.Recording{SampleRate: 16000}
	for m := range rec.Channels {
		rec.Channels[m] = make([]float64, 2*audioBlock+123)
		for i := range rec.Channels[m] {
			rec.Channels[m][i] = float64(i*len(rec.Channels)+m) / 7
		}
	}
	return &Flight{Name: "payload", Mission: "hover", Audio: rec}
}

// TestSavePayloadBytes pins the .sbf layout: after the header line and
// the magic, one little-endian float32 per microphone per sample, in
// sample order.
func TestSavePayloadBytes(t *testing.T) {
	f := payloadFlight()
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	header, payload, ok := bytes.Cut(buf.Bytes(), []byte("\n"+audioMagic))
	if !ok {
		t.Fatal("no audio magic after the header line")
	}
	var want []byte
	for i := 0; i < f.Audio.Samples(); i++ {
		for m := range f.Audio.Channels {
			want = binary.LittleEndian.AppendUint32(want, math.Float32bits(float32(f.Audio.Channels[m][i])))
		}
	}
	if !bytes.Equal(payload, want) {
		t.Fatalf("payload of %d bytes differs from the %d expected", len(payload), len(want))
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("load after %d header bytes: %v", len(header), err)
	}
	for m := range f.Audio.Channels {
		for i, v := range loaded.Audio.Channels[m] {
			if v != float64(float32(f.Audio.Channels[m][i])) {
				t.Fatalf("mic %d sample %d: %v, want %v", m, i, v, float32(f.Audio.Channels[m][i]))
			}
		}
	}
}

// TestLoadTruncatedPayload cuts a saved flight inside its payload: the
// error names the first sample cut short, with io.EOF when the cut
// falls between two values and io.ErrUnexpectedEOF inside one.
func TestLoadTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := payloadFlight().Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	payload := bytes.Index(full, []byte(audioMagic)) + len(audioMagic)
	for _, tc := range []struct {
		keep   int // payload bytes kept
		sample int
		err    error
	}{
		{0, 0, io.EOF},
		{3, 0, io.ErrUnexpectedEOF},
		{4, 0, io.EOF},
		{frameBytes, 1, io.EOF},
		{audioBlock * frameBytes, audioBlock, io.EOF},
		{audioBlock*frameBytes + 6, audioBlock, io.ErrUnexpectedEOF},
		{(2*audioBlock+122)*frameBytes + 13, 2*audioBlock + 122, io.ErrUnexpectedEOF},
	} {
		_, err := Load(bytes.NewReader(full[:payload+tc.keep]))
		want := fmt.Sprintf("dataset: read audio sample %d: %v", tc.sample, tc.err)
		if err == nil || err.Error() != want || !errors.Is(err, tc.err) {
			t.Errorf("cut after %d payload bytes: err %v, want %s", tc.keep, err, want)
		}
	}
}

// BenchmarkLoad loads a 15 s, 16 kHz, four-microphone hover flight, as
// flightgen writes it, from memory.
func BenchmarkLoad(b *testing.B) {
	f, err := Generate(DefaultGenConfig(sim.HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: 15}, 1))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
