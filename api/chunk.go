package api

import (
	"fmt"
	"math"
	"sort"

	"soundboost/internal/dataset"
	"soundboost/internal/faults"
	"soundboost/internal/stream"
)

// ChunkFlight converts a recorded flight into the time-ordered frame
// batches a client posts to POST /v1/sessions/{id}/frames. Audio is cut
// into frameSeconds chunks stamped at capture-complete time (exactly the
// chunking of stream.Replay, so a streamed upload reproduces the batch
// verdict); the flight's timeline is then sliced into consecutive
// requests of chunkSeconds each, with all events carrying an equal
// timestamp kept in one request so the server-side merge preserves the
// replay ordering. The final request has Close set.
//
// frameSeconds <= 0 selects the 50 ms default. chunkSeconds must be
// positive (faults.ErrBadChunk otherwise, NaN included) — callers
// wanting the whole flight in one request pass a chunk size covering
// its full duration. Only slices holding an event become requests, so
// memory follows the flight, not the chunk count. A nil or empty flight
// yields faults.ErrNoFlight.
func ChunkFlight(f *dataset.Flight, frameSeconds, chunkSeconds float64) ([]FramesRequest, error) {
	if f == nil || f.Audio == nil || f.Audio.Samples() == 0 {
		return nil, fmt.Errorf("api: nothing to chunk: %w", faults.ErrNoFlight)
	}
	if !(chunkSeconds > 0) {
		return nil, fmt.Errorf("%w: got %v", faults.ErrBadChunk, chunkSeconds)
	}
	if frameSeconds <= 0 {
		frameSeconds = 0.05
	}
	rate := f.Audio.SampleRate
	// Shared with stream.Replay: both must cut identical frames (rounded,
	// not truncated) or the replay-identical guarantee breaks.
	frameN := stream.FrameLen(frameSeconds, rate)
	total := f.Audio.Samples()
	duration := float64(total) / rate
	if n := len(f.Telemetry); n > 0 && f.Telemetry[n-1].Time > duration {
		duration = f.Telemetry[n-1].Time
	}
	// Exactly ceil(duration/chunkSeconds) requests of chunkSeconds each.
	// The former int(duration/chunkSeconds)+1 over-counted whenever the
	// duration was an exact multiple of the chunk size, and slicing the
	// duration evenly across that count produced chunks narrower than the
	// caller asked for.
	nChunks := int(math.Ceil(duration / chunkSeconds))
	if nChunks < 1 {
		nChunks = 1
	}
	sliceAt := func(tm float64) int {
		i := int(tm / chunkSeconds)
		if i < 0 {
			i = 0
		}
		if i >= nChunks {
			i = nChunks - 1
		}
		return i
	}
	slices := map[int]*FramesRequest{}
	at := func(tm float64) *FramesRequest {
		i := sliceAt(tm)
		if slices[i] == nil {
			slices[i] = &FramesRequest{}
		}
		return slices[i]
	}

	for o := 0; o < total; o += frameN {
		end := o + frameN
		if end > total {
			end = total
		}
		samples := make([][]float64, len(f.Audio.Channels))
		for m := range samples {
			samples[m] = f.Audio.Channels[m][o:end]
		}
		r := at(float64(end) / rate)
		r.Audio = append(r.Audio, AudioFrameFromStream(stream.AudioFrame{
			Start: float64(o) / rate, Rate: rate, Samples: samples,
		}))
	}
	for _, s := range f.Telemetry {
		r := at(s.Time)
		r.IMU = append(r.IMU, IMUSampleFromStream(stream.IMUSample{
			Time: s.Time, Accel: s.IMUAccel, Gyro: s.IMUGyro, Att: s.EstAtt,
		}))
		r.GPS = append(r.GPS, GPSSampleFromStream(stream.GPSSample{
			Time: s.Time, Pos: s.GPSPos, Vel: s.GPSVel,
		}))
	}
	// Requests in slice order. Slices are consecutive time intervals and
	// every event lands in the one holding its time (an audio frame's is
	// its capture-complete time), so no stream runs backwards across a
	// request boundary.
	order := make([]int, 0, len(slices))
	for i := range slices {
		order = append(order, i)
	}
	sort.Ints(order)
	reqs := make([]FramesRequest, len(order))
	for k, i := range order {
		reqs[k] = *slices[i]
	}
	// Sequence numbers make the upload idempotent: a resent chunk is
	// acknowledged, not re-published, and a journal-recovered session
	// knows exactly which prefix it already holds.
	for i := range reqs {
		reqs[i].Seq = i + 1
	}
	reqs[len(reqs)-1].Close = true
	return reqs, nil
}
