package fleet

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"runtime"
	"testing"
	"time"

	"soundboost/api"
)

// gatewayChunkRig stands up a gateway over two stub replicas with
// Replication 2 and opens one session. It returns the body of a 0.5 s
// four-microphone chunk at 16 kHz (about 0.7 MB, as a drone streams)
// and a function that posts it through the gateway: to the owner, then
// as a JournalAppend to the one follower.
func gatewayChunkRig(tb testing.TB) (body []byte, post func()) {
	tb.Helper()
	g, err := New(Config{
		Replicas: []Replica{
			{Name: "r1", BaseURL: stubReplica(tb).URL},
			{Name: "r2", BaseURL: stubReplica(tb).URL},
		},
		Replication: 2,
		RetryBase:   time.Millisecond,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := g.Shutdown(ctx); err != nil {
			tb.Errorf("gateway shutdown: %v", err)
		}
	})
	w := hdo(nil, g, "POST", "/v1/sessions", api.SessionRequest{Flight: "alloc", SampleRateHz: 16000})
	var created api.SessionResponse
	if err := json.Unmarshal(w.Body.Bytes(), &created); w.Code != http.StatusCreated || err != nil {
		tb.Fatalf("create: status %d: %s", w.Code, w.Body)
	}

	const rate, mics, frames, perFrame = 16000, 4, 10, 800 // ten 50 ms frames
	rng := rand.New(rand.NewSource(1))
	req := api.FramesRequest{Seq: 1}
	for i := range frames {
		f := api.AudioFrame{StartSeconds: float64(i*perFrame) / rate, RateHz: rate, Samples: make([][]float64, mics)}
		for m := range f.Samples {
			f.Samples[m] = make([]float64, perFrame)
			for k := range f.Samples[m] {
				f.Samples[m][k] = rng.Float64()*2 - 1
			}
		}
		req.Audio = append(req.Audio, f)
	}
	for i := range 62 { // 0.5 s of 125 Hz IMU rows
		req.IMU = append(req.IMU, api.IMUSample{TimeSeconds: float64(i) / 125, Accel: api.Vec3{Z: -9.81}, Att: api.Quat{W: 1}})
	}
	if body, err = json.Marshal(req); err != nil {
		tb.Fatal(err)
	}
	path := "/v1/sessions/" + created.ID + "/frames"
	return body, func() {
		if w := hdo(nil, g, "POST", path, body); w.Code != http.StatusOK {
			tb.Fatalf("frames: status %d: %s", w.Code, w.Body)
		}
	}
}

// BenchmarkGatewayChunk forwards one chunk per op through the gateway
// to its owner and its follower, reporting the bytes allocated per
// chunk.
func BenchmarkGatewayChunk(b *testing.B) {
	body, post := gatewayChunkRig(b)
	post()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		post()
	}
}

// raceEnabled reports a -race build (race_test.go), where sync.Pool
// drops a random quarter of what it is given back.
var raceEnabled bool

// TestGatewayChunkBytes pins the gateway's steady-state allocation per
// forwarded chunk below a quarter of the chunk body's size, measured
// from runtime.MemStats across 50 chunks after a warm-up. The check
// buffer and the follower's append body come back to pools, so what
// remains is request plumbing; a body
// allocated per chunk would alone cost the chunk's size or more. Under
// the race detector the pools drop buffers on purpose, so there is no
// steady state to measure.
func TestGatewayChunkBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	body, post := gatewayChunkRig(t)
	for range 10 {
		post()
	}
	const chunks = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range chunks {
		post()
	}
	runtime.ReadMemStats(&after)
	perChunk := (after.TotalAlloc - before.TotalAlloc) / chunks
	t.Logf("%d B allocated per %d B chunk", perChunk, len(body))
	if perChunk >= uint64(len(body))/4 {
		t.Fatalf("the gateway allocates %d B per forwarded chunk, want under a quarter of the %d B body", perChunk, len(body))
	}
}
