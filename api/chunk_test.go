package api

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"soundboost/internal/acoustics"
	"soundboost/internal/dataset"
	"soundboost/internal/faults"
	"soundboost/internal/mathx"
	"soundboost/internal/stream"
)

// tinyFlight builds the smallest flight worth chunking: one second of
// audio plus a few telemetry rows.
func tinyFlight() *dataset.Flight {
	rec := &acoustics.Recording{SampleRate: 100}
	for m := range rec.Channels {
		rec.Channels[m] = make([]float64, 100)
	}
	f := &dataset.Flight{Name: "tiny", Audio: rec}
	for i := 0; i < 10; i++ {
		f.Telemetry = append(f.Telemetry, dataset.TelemetrySample{Time: float64(i) * 0.1})
	}
	return f
}

// TestChunkFlightTypedErrors pins the error contract: callers must be
// able to distinguish "nothing to chunk" from "bad chunk size" with
// errors.Is, not string matching.
func TestChunkFlightTypedErrors(t *testing.T) {
	if _, err := ChunkFlight(nil, 0.05, 1); !errors.Is(err, faults.ErrNoFlight) {
		t.Errorf("nil flight: err = %v, want ErrNoFlight", err)
	}
	empty := &dataset.Flight{Audio: &acoustics.Recording{SampleRate: 100}}
	if _, err := ChunkFlight(empty, 0.05, 1); !errors.Is(err, faults.ErrNoFlight) {
		t.Errorf("empty flight: err = %v, want ErrNoFlight", err)
	}
	f := tinyFlight()
	for _, bad := range []float64{0, -1} {
		if _, err := ChunkFlight(f, 0.05, bad); !errors.Is(err, faults.ErrBadChunk) {
			t.Errorf("chunkSeconds = %v: err = %v, want ErrBadChunk", bad, err)
		}
	}
}

// TestChunkFlightFrameRounding pins the frame-length fix: the per-frame
// sample count must be the *rounded* frameSeconds×rate product. At 100 Hz
// a 0.29 s frame is 28.999999999999996 samples in float64; truncation cut
// 28-sample frames, silently shifting every frame boundary after the
// first relative to stream.Replay's intent. Both sides now share
// stream.FrameLen, which this test also pins directly.
func TestChunkFlightFrameRounding(t *testing.T) {
	if got := stream.FrameLen(0.29, 100); got != 29 {
		t.Fatalf("stream.FrameLen(0.29, 100) = %d, want 29", got)
	}
	if got := stream.FrameLen(0.0001, 100); got != 1 {
		t.Fatalf("stream.FrameLen floor: got %d, want 1", got)
	}
	reqs, err := ChunkFlight(tinyFlight(), 0.29, 100)
	if err != nil {
		t.Fatal(err)
	}
	var frames []AudioFrame
	for _, r := range reqs {
		frames = append(frames, r.Audio...)
	}
	// 100 samples in 29-sample frames: 29, 29, 29, 13.
	if len(frames) != 4 {
		t.Fatalf("got %d frames, want 4", len(frames))
	}
	for i, f := range frames {
		want := 29
		if i == len(frames)-1 {
			want = 100 - 3*29
		}
		if got := len(f.Samples[0]); got != want {
			t.Errorf("frame %d: %d samples, want %d", i, got, want)
		}
	}
}

// TestChunkFlightExactMultiple pins the chunk-count fix: a flight whose
// duration is an exact multiple of chunkSeconds must produce exactly
// duration/chunkSeconds requests, each spanning the requested chunk
// length. The former int(duration/chunkSeconds)+1 produced one request
// too many and divided the timeline into narrower slices than asked for.
func TestChunkFlightExactMultiple(t *testing.T) {
	f := tinyFlight() // 1 s of audio @ 100 Hz, telemetry every 0.1 s
	for _, tc := range []struct {
		chunkSec float64
		want     int
	}{
		{0.5, 2},
		{0.25, 4},
		{1, 1},
	} {
		reqs, err := ChunkFlight(f, 0.05, tc.chunkSec)
		if err != nil {
			t.Fatal(err)
		}
		if len(reqs) != tc.want {
			t.Errorf("chunkSeconds=%v: %d requests, want %d", tc.chunkSec, len(reqs), tc.want)
		}
		// No request may be empty, and together they must carry the whole
		// flight: 20 audio frames and 10 telemetry rows.
		audio, imu := 0, 0
		for i, r := range reqs {
			if len(r.Audio) == 0 && len(r.IMU) == 0 && len(r.GPS) == 0 {
				t.Errorf("chunkSeconds=%v: request %d is empty", tc.chunkSec, i)
			}
			audio += len(r.Audio)
			imu += len(r.IMU)
		}
		if audio != 20 || imu != 10 {
			t.Errorf("chunkSeconds=%v: carried %d audio frames and %d IMU rows, want 20 and 10",
				tc.chunkSec, audio, imu)
		}
	}
}

// TestChunkFlightSequenceNumbers requires chunks to carry contiguous
// 1-based sequence numbers with Close on the last — the contract the
// server's idempotent-resend path depends on.
func TestChunkFlightSequenceNumbers(t *testing.T) {
	reqs, err := ChunkFlight(tinyFlight(), 0.05, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) < 2 {
		t.Fatalf("want multiple chunks, got %d", len(reqs))
	}
	for i, r := range reqs {
		if r.Seq != i+1 {
			t.Errorf("chunk %d: seq = %d, want %d", i, r.Seq, i+1)
		}
		if got, want := r.Close, i == len(reqs)-1; got != want {
			t.Errorf("chunk %d: close = %v, want %v", i, got, want)
		}
	}
	// A whole-flight chunk still gets seq 1 + Close.
	one, err := ChunkFlight(tinyFlight(), 0.05, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0].Seq != 1 || !one[0].Close {
		t.Fatalf("whole-flight chunking: %d chunk(s), seq %d, close %v", len(one), one[0].Seq, one[0].Close)
	}
}

// fuzzFlight builds a flight of n audio samples per microphone at one
// of a few rates plus rows telemetry rows at seeded irregular times
// (running past the audio when they like), every value seeded and
// distinct so a misplaced one shows.
func fuzzFlight(n, rows int, seed int64) *dataset.Flight {
	rng := rand.New(rand.NewSource(seed))
	rates := []float64{100, 250, 4000, 16000}
	rec := &acoustics.Recording{SampleRate: rates[rng.Intn(len(rates))]}
	for m := range rec.Channels {
		rec.Channels[m] = make([]float64, n)
		for i := range rec.Channels[m] {
			rec.Channels[m][i] = rng.NormFloat64()
		}
	}
	vec := func() mathx.Vec3 { return mathx.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()} }
	f := &dataset.Flight{Name: "fuzz", Audio: rec}
	tm := 0.0
	for i := 0; i < rows; i++ {
		f.Telemetry = append(f.Telemetry, dataset.TelemetrySample{
			Time: tm, IMUAccel: vec(), IMUGyro: vec(), GPSPos: vec(), GPSVel: vec(),
			EstAtt: mathx.Quat{W: rng.NormFloat64(), X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()},
		})
		tm += rng.Float64() * 4 * float64(n) / rec.SampleRate / float64(rows)
	}
	return f
}

// FuzzChunkFlight checks ChunkFlight over arbitrary frame and chunk
// lengths: every chunk passes DecodeStrict after EncodeChunk and decodes
// to itself on the fast path, and the chunks put back together give the
// flight's samples and telemetry exactly — frames contiguous from t=0,
// seq 1..n, Close on the last chunk only, no chunk empty.
func FuzzChunkFlight(f *testing.F) {
	f.Add(0.05, 0.5, uint16(400), uint8(40), int64(1))
	f.Add(0.29, 1.0, uint16(100), uint8(10), int64(2))
	f.Add(0.0, 1e-9, uint16(64), uint8(3), int64(3))
	f.Add(1e300, math.Inf(1), uint16(7), uint8(0), int64(4))
	f.Add(-1.0, math.NaN(), uint16(1), uint8(1), int64(5))
	f.Fuzz(func(t *testing.T, frameSeconds, chunkSeconds float64, samples uint16, rows uint8, seed int64) {
		fl := fuzzFlight(int(samples)%4096+1, int(rows), seed)
		reqs, err := ChunkFlight(fl, frameSeconds, chunkSeconds)
		if !(chunkSeconds > 0) {
			if !errors.Is(err, faults.ErrBadChunk) {
				t.Fatalf("chunk %v: err = %v, want ErrBadChunk", chunkSeconds, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("frame %v chunk %v: %v", frameSeconds, chunkSeconds, err)
		}
		rate := fl.Audio.SampleRate
		var audio [acoustics.NumMics][]float64
		var imu []IMUSample
		var gps []GPSSample
		for i, r := range reqs {
			if r.Seq != i+1 || r.Close != (i == len(reqs)-1) {
				t.Fatalf("chunk %d of %d: seq %d close %v", i, len(reqs), r.Seq, r.Close)
			}
			if len(r.Audio)+len(r.IMU)+len(r.GPS) == 0 {
				t.Fatalf("chunk %d is empty", i)
			}
			body, err := EncodeChunk(r)
			if err != nil {
				t.Fatal(err)
			}
			var back FramesRequest
			if err := DecodeStrict(bytes.NewReader(body), &back); err != nil {
				t.Fatalf("chunk %d: %v", i, err)
			}
			if back.wire == nil {
				t.Fatalf("chunk %d missed the fast path: %.200q", i, body)
			}
			sameFrames(t, body, back, r)
			for _, fr := range back.Audio {
				if want := float64(len(audio[0])) / rate; fr.StartSeconds != want || fr.RateHz != rate {
					t.Fatalf("chunk %d: frame at %v s / %v Hz, want %v s / %v Hz", i, fr.StartSeconds, fr.RateHz, want, rate)
				}
				for m := range audio {
					audio[m] = append(audio[m], fr.Samples[m]...)
				}
			}
			imu = append(imu, back.IMU...)
			gps = append(gps, back.GPS...)
		}
		for m := range audio {
			if !reflect.DeepEqual(audio[m], fl.Audio.Channels[m]) {
				t.Fatalf("mic %d: reassembled %d samples differ from the flight's %d", m, len(audio[m]), len(fl.Audio.Channels[m]))
			}
		}
		if len(imu) != len(fl.Telemetry) || len(gps) != len(fl.Telemetry) {
			t.Fatalf("reassembled %d IMU and %d GPS rows, want %d", len(imu), len(gps), len(fl.Telemetry))
		}
		for i, s := range fl.Telemetry {
			wantIMU := IMUSampleFromStream(stream.IMUSample{Time: s.Time, Accel: s.IMUAccel, Gyro: s.IMUGyro, Att: s.EstAtt})
			wantGPS := GPSSampleFromStream(stream.GPSSample{Time: s.Time, Pos: s.GPSPos, Vel: s.GPSVel})
			if imu[i] != wantIMU || gps[i] != wantGPS {
				t.Fatalf("row %d: reassembled %+v / %+v, want %+v / %+v", i, imu[i], gps[i], wantIMU, wantGPS)
			}
		}
	})
}
