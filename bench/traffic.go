package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"soundboost/api"
	"soundboost/internal/acoustics"
	soundboost "soundboost/internal/core"
	"soundboost/internal/dataset"
	"soundboost/internal/stream"
)

// variant names what one session streams: pool flight f, closed after
// its first chunks chunks — all of them, or fewer for a drone's first
// flight, which the schedule cuts short to spread landings out.
type variant struct{ flight, chunks int }

// flightTraffic is one variant's requests, encoded before the clock
// starts, and the reference its session report and its upload must
// both reproduce exactly: api.ReportFromCore of a float64 batch Analyze.
type flightTraffic struct {
	flight *dataset.Flight
	open   []byte   // POST /v1/sessions
	chunks [][]byte // POST .../frames; the last one closes the stream
	sbf    []byte   // POST /v1/flights
	ref    api.Report
}

func (t *flightTraffic) seconds() float64 { return float64(len(t.chunks)) * chunkInterval.Seconds() }

type traffic map[variant]*flightTraffic

// chunkPool cuts every pool flight into its frames requests.
func chunkPool(pool []*dataset.Flight) ([][]api.FramesRequest, error) {
	out := make([][]api.FramesRequest, len(pool))
	for i, f := range pool {
		reqs, err := api.ChunkFlight(f, frameSeconds, chunkInterval.Seconds())
		if err != nil {
			return nil, fmt.Errorf("bench: chunk %s: %w", f.Name, err)
		}
		out[i] = reqs
	}
	return out, nil
}

// buildTraffic encodes every variant the plan flies, and every full pool
// flight whether flown or not: the bodies are an offset under
// heap_peak_mb, and with fewer drones than pool flights a seed that
// leaves some unflown would otherwise shift it by tens of MB. Cut
// variants share their leading chunk bodies with the full flight.
func buildTraffic(pool []*dataset.Flight, reqs [][]api.FramesRequest, plan *schedule, an *soundboost.Analyzer) (traffic, error) {
	tr := traffic{}
	full := map[int][][]byte{}
	variants := make([]variant, 0, len(pool)+len(plan.Sessions))
	for i, rs := range reqs {
		variants = append(variants, variant{i, len(rs)})
	}
	for _, s := range plan.Sessions {
		variants = append(variants, s.variant())
	}
	for _, v := range variants {
		if tr[v] != nil {
			continue
		}
		f, rs := pool[v.flight], reqs[v.flight]
		if full[v.flight] == nil {
			for _, r := range rs {
				b, err := json.Marshal(r)
				if err != nil {
					return nil, err
				}
				full[v.flight] = append(full[v.flight], b)
			}
		}
		t := &flightTraffic{flight: f, chunks: full[v.flight]}
		if v.chunks < len(rs) {
			t.flight = cutFlight(f, v.chunks)
			closing := rs[v.chunks-1]
			closing.Close = true
			b, err := json.Marshal(closing)
			if err != nil {
				return nil, err
			}
			t.chunks = append(t.chunks[:v.chunks-1:v.chunks-1], b)
		}
		var err error
		if t.open, err = json.Marshal(api.SessionRequest{Flight: f.Name, SampleRateHz: f.Audio.SampleRate}); err != nil {
			return nil, err
		}
		var sbf bytes.Buffer
		if err := t.flight.Save(&sbf); err != nil {
			return nil, err
		}
		t.sbf = sbf.Bytes()
		rep, err := an.Analyze(t.flight)
		if err != nil {
			return nil, fmt.Errorf("bench: reference %s/%d: %w", f.Name, v.chunks, err)
		}
		t.ref = api.ReportFromCore(rep)
		tr[v] = t
	}
	return tr, nil
}

// cutFlight is the recording a session closed after its first k chunks
// carried: api.ChunkFlight of it yields exactly those chunks, the last
// with Close set. It keeps the audio frames and telemetry rows
// ChunkFlight assigns to chunks before k — a frame whose capture ends
// on the cut belongs to the next chunk.
func cutFlight(f *dataset.Flight, k int) *dataset.Flight {
	rate, total := f.Audio.SampleRate, f.Audio.Samples()
	frameN := stream.FrameLen(frameSeconds, rate)
	chunk := chunkInterval.Seconds()
	n := 0
	for o := 0; o < total; o += frameN {
		end := min(o+frameN, total)
		if int(float64(end)/rate/chunk) >= k {
			break
		}
		n = end
	}
	cut := *f
	cut.Audio = &acoustics.Recording{SampleRate: rate}
	for m, ch := range f.Audio.Channels {
		cut.Audio.Channels[m] = ch[:n:n]
	}
	rows := 0
	for rows < len(f.Telemetry) && int(f.Telemetry[rows].Time/chunk) < k {
		rows++
	}
	cut.Telemetry = f.Telemetry[:rows:rows]
	return &cut
}
