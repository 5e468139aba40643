package main

import (
	"reflect"
	"testing"
	"time"
)

// testChunks is a pool of six clean flights and three attacks.
var testChunks = []int{20, 27, 23, 29, 25, 21, 30, 30, 30}

func TestScheduleIsSeeded(t *testing.T) {
	a := makeSchedule(7, 22, testChunks, poolBenign, 12*time.Second)
	b := makeSchedule(7, 22, testChunks, poolBenign, 12*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed produced two different schedules")
	}
	if c := makeSchedule(8, 22, testChunks, poolBenign, 12*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced the same schedule")
	}
}

func TestScheduleShape(t *testing.T) {
	const drones = 22
	horizon := 30 * time.Second
	s := makeSchedule(3, drones, testChunks, poolBenign, horizon)
	attackDrones := map[int]bool{}
	first := map[int]bool{}
	for k, p := range s.Sessions {
		if p.Flight >= poolBenign {
			attackDrones[p.Drone] = true
		}
		full := testChunks[p.Flight]
		if !first[p.Drone] {
			first[p.Drone] = true
			if p.Chunks < minChunks || p.Chunks > full {
				t.Errorf("session %d: first flight cut to %d of %d chunks", k, p.Chunks, full)
			}
		} else if p.Chunks != full {
			t.Errorf("session %d: later flight cut to %d of %d chunks", k, p.Chunks, full)
		}
	}
	if len(attackDrones) != 2 {
		t.Errorf("%d of %d drones fly attacks, want 2", len(attackDrones), drones)
	}
	for i, reqs := range append(s.Senders[:], s.Uploads) {
		next := map[int]int{}
		for j, r := range reqs {
			if j > 0 && r.Due < reqs[j-1].Due {
				t.Fatalf("lane %d not in due order at %d", i, j)
			}
			if r.Due >= horizon {
				t.Fatalf("lane %d holds a request due at %s, past the horizon", i, r.Due)
			}
			if i < senders && r.Session%senders != i {
				t.Fatalf("session %d on sender %d", r.Session, i)
			}
			if r.Kind == kindFrames {
				if r.Chunk != next[r.Session] {
					t.Fatalf("session %d: chunk %d sent after %d", r.Session, r.Chunk, next[r.Session]-1)
				}
				next[r.Session]++
			}
		}
	}
}

// A sender stalled on one request puts everything behind it on the
// wire late, and each of those requests is charged from its due time.
func TestStalledSenderChargesLaterRequests(t *testing.T) {
	const stall = 150 * time.Millisecond
	reqs := []request{
		{Due: 0, Kind: kindFrames, Chunk: 0},
		{Due: 10 * time.Millisecond, Kind: kindFrames, Chunk: 1},
		{Due: 20 * time.Millisecond, Kind: kindFrames, Chunk: 2},
		{Due: 400 * time.Millisecond, Kind: kindFrames, Chunk: 3},
	}
	do := func(r request) error {
		if r.Chunk == 0 {
			time.Sleep(stall)
		}
		return nil
	}
	outs := drive(time.Now(), reqs, true, time.Hour, do, func(request) bool { return false })
	if len(outs) != len(reqs) {
		t.Fatalf("%d outcomes, want %d", len(outs), len(reqs))
	}
	for _, o := range outs[1:3] {
		if o.late() < stall-o.req.Due-5*time.Millisecond {
			t.Errorf("chunk %d sent %s late, want about %s", o.req.Chunk, o.late(), stall-o.req.Due)
		}
		if o.latency() < stall-o.req.Due {
			t.Errorf("chunk %d charged %s, less than the stall it waited out", o.req.Chunk, o.latency())
		}
	}
	if late := outs[3].late(); late > 50*time.Millisecond {
		t.Errorf("chunk due after the stall cleared still sent %s late", late)
	}
}

func TestDriveStopsAtHorizon(t *testing.T) {
	reqs := []request{{Due: 0}, {Due: 10 * time.Millisecond}, {Due: time.Hour}}
	outs := drive(time.Now(), reqs, false, 50*time.Millisecond, func(request) error { return nil }, func(request) bool { return false })
	if len(outs) != 3 {
		t.Fatalf("unpaced drive sent %d of 3 requests before the stop", len(outs))
	}
	outs = drive(time.Now(), reqs, true, 50*time.Millisecond, func(request) error { return nil }, func(request) bool { return false })
	if len(outs) != 2 {
		t.Fatalf("paced drive sent %d requests, want the 2 due before the stop", len(outs))
	}
}
