package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// The served workloads' traffic generator. N drones fly back to back:
// a drone opens a session at takeoff, posts chunk i of its flight at
// takeoff + i·chunkInterval whether or not earlier acks have returned,
// fetches the verdict once the closing chunk is acknowledged, uploads
// the recording for post-flight RCA at landing, and takes off again.
// Session traffic goes out over two senders, each on one keep-alive
// connection; session k is pinned to sender k mod 2 so its chunks
// arrive in Seq order. Uploads go out from a third connection, the
// ground station's: a 3 MB upload on a stream sender would stall every
// chunk queued behind it (ack p90 then varied ±40% from run to run).
// Every latency is charged from the request's due time, so a stalled
// sender delays — and is charged for — everything queued behind it.

// chunkInterval is the flight time one frames request carries.
const chunkInterval = 500 * time.Millisecond

// frameSeconds is the audio frame length inside a chunk (the 50 ms
// capture buffer stream.Replay also uses).
const frameSeconds = 0.05

const senders = 2

type reqKind int

const (
	kindCreate reqKind = iota
	kindFrames
	kindReport
	kindBatch
)

func (k reqKind) String() string {
	return [...]string{"create", "frames", "report", "flights"}[k]
}

// request is one scheduled call. Due is its offset from the run start.
type request struct {
	Due     time.Duration
	Kind    reqKind
	Session int
	Chunk   int
}

// sessionPlan is one flight a drone streams: the first Chunks chunks
// of pool flight Flight.
type sessionPlan struct {
	Drone, Flight int
	Start         time.Duration
	Chunks        int
}

func (s sessionPlan) variant() variant { return variant{s.Flight, s.Chunks} }

// schedule is the complete traffic of one run, fixed before the clock
// starts: each sender's session requests and the uploader's uploads,
// in due order.
type schedule struct {
	Sessions []sessionPlan
	Senders  [senders][]request
	Uploads  []request
}

// makeSchedule lays out drones flying pool flights until horizon.
// chunks[f] is the chunk count of pool flight f; flights below benign
// are clean, the rest attacks. One drone in ten, and at least one, flies
// attack flights, the rest clean ones, so every run carries the same
// mix. The
// seed deals the drones their phases — evenly spaced over a chunk
// interval — and where each drone's first flight is cut short: cuts
// evenly spaced over the flight spread landings, with the verdicts,
// uploads and takeoffs that come with them, evenly from the start
// instead of as one wave. It also draws every flight. Requests due at
// or after horizon are dropped.
func makeSchedule(seed int64, drones int, chunks []int, benign int, horizon time.Duration) schedule {
	rng := rand.New(rand.NewSource(seed))
	attackers := max(1, (drones+5)/10)
	slots, cuts := rng.Perm(drones), rng.Perm(drones)
	takeoff := make([]time.Duration, drones)
	first := make([]bool, drones)
	for d := range takeoff {
		takeoff[d] = time.Duration((float64(slots[d]) + 0.5) / float64(drones) * float64(chunkInterval))
		first[d] = true
	}
	var s schedule
	for {
		d := 0
		for i := range takeoff {
			if takeoff[i] < takeoff[d] {
				d = i
			}
		}
		start := takeoff[d]
		if start >= horizon {
			break
		}
		f := rng.Intn(benign)
		if slots[d] < attackers {
			f = benign + rng.Intn(len(chunks)-benign)
		}
		n := chunks[f]
		if first[d] {
			first[d] = false
			cut := int(math.Round((float64(cuts[d]) + 0.5) / float64(drones) * float64(n)))
			n = min(max(cut, minChunks), n)
		}
		k := len(s.Sessions)
		s.Sessions = append(s.Sessions, sessionPlan{Drone: d, Flight: f, Start: start, Chunks: n})
		closing := start + time.Duration(n-1)*chunkInterval
		landing := start + time.Duration(n)*chunkInterval
		reqs := []request{{Due: start, Kind: kindCreate, Session: k}}
		for i := 0; i < n; i++ {
			reqs = append(reqs, request{Due: start + time.Duration(i)*chunkInterval, Kind: kindFrames, Session: k, Chunk: i})
		}
		reqs = append(reqs, request{Due: closing, Kind: kindReport, Session: k})
		for _, r := range reqs {
			if r.Due < horizon {
				s.Senders[k%senders] = append(s.Senders[k%senders], r)
			}
		}
		if landing < horizon {
			s.Uploads = append(s.Uploads, request{Due: landing, Kind: kindBatch, Session: k})
		}
		takeoff[d] = landing
	}
	for _, reqs := range append(s.Senders[:], s.Uploads) {
		// Stable: a session's create, chunks and report share due times
		// and must keep their order.
		sort.SliceStable(reqs, func(a, b int) bool { return reqs[a].Due < reqs[b].Due })
	}
	return s
}

// minChunks is the shortest first flight (4 s): long enough for every
// detector stage to analyse it.
const minChunks = 8

// outcome is one sent request: offsets from the run start.
type outcome struct {
	req        request
	sent, done time.Duration
	err        error
}

// latency is the request's completion time charged from its due time.
func (o outcome) latency() time.Duration { return o.done - o.req.Due }

// late is how far behind schedule the sender put the request on the
// wire.
func (o outcome) late() time.Duration { return o.sent - o.req.Due }

// drive sends reqs in order: each waits for its due time (when paced)
// and for the request before it, and nothing is sent once stop has
// passed. do performs one request; skip reports requests that cannot be
// sent because their session's create failed.
func drive(t0 time.Time, reqs []request, paced bool, stop time.Duration, do func(request) error, skip func(request) bool) []outcome {
	out := make([]outcome, 0, len(reqs))
	for _, r := range reqs {
		if paced {
			if r.Due >= stop {
				break
			}
			if wait := time.Until(t0.Add(r.Due)); wait > 0 {
				time.Sleep(wait)
			}
		}
		sent := time.Since(t0)
		if sent >= stop {
			break
		}
		if skip(r) {
			continue
		}
		err := do(r)
		out = append(out, outcome{req: r, sent: sent, done: time.Since(t0), err: err})
	}
	return out
}
