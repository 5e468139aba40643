package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"soundboost/api"
	"soundboost/internal/dataset"
	"soundboost/internal/experiments"
	"soundboost/internal/mathx"
	"soundboost/internal/sim"
)

// tinyFlight simulates a 4 s hover at QuickScale rates and passes it
// through the .sbf codec, as the corpus cache does.
func tinyFlight(t *testing.T) *dataset.Flight {
	t.Helper()
	r := recipe{experiments.QuickScale()}
	raw, err := r.simSpec("tiny", sim.HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: 4}, 5, windCycle(1)).gen()
	if err != nil {
		t.Fatal(err)
	}
	var sbf bytes.Buffer
	if err := raw.Save(&sbf); err != nil {
		t.Fatal(err)
	}
	f, err := dataset.Load(&sbf)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCachedFlightRoundTrips(t *testing.T) {
	f := tinyFlight(t)
	var buf bytes.Buffer
	if err := writeCachedFlight(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := readCachedFlight(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, f) {
		t.Fatal("cached flight differs from the flight written")
	}
}

// A session closed after k chunks streams exactly api.ChunkFlight of
// cutFlight(f, k): the first k chunks of the full flight, the last one
// closing — so its batch reference is the verdict the session owes.
func TestCutFlightChunksAsThePrefix(t *testing.T) {
	f := tinyFlight(t)
	full, err := api.ChunkFlight(f, frameSeconds, chunkInterval.Seconds())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, len(full) - 1} {
		cut, err := api.ChunkFlight(cutFlight(f, k), frameSeconds, chunkInterval.Seconds())
		if err != nil {
			t.Fatal(err)
		}
		want := append([]api.FramesRequest(nil), full[:k]...)
		want[k-1].Close = true
		gotJSON, _ := json.Marshal(cut)
		wantJSON, _ := json.Marshal(want)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("cut after %d chunks: %d chunks differ from the prefix of the full flight", k, len(cut))
		}
	}
}
