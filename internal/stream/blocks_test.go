package stream

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"soundboost/internal/acoustics"
	"soundboost/internal/mathx"
	"soundboost/internal/mavbus"
	"soundboost/internal/triage"
)

// fillStore puts samples [from, to) into a fresh store, sample i of mic
// m being i*NumMics+m, and returns the store with the flat reference.
func fillStore(from, to int) (*blockStore, [acoustics.NumMics][]float64) {
	var s blockStore
	var ref [acoustics.NumMics][]float64
	for i := from; i < to; i++ {
		var x [acoustics.NumMics]float64
		for m := range x {
			x[m] = float64(i*acoustics.NumMics + m)
			ref[m] = append(ref[m], x[m])
		}
		s.put(i, x)
	}
	return &s, ref
}

// TestBlockStoreViews: a view spanning one, two or three blocks, or
// longer than a block, equals the same range of a flat slice; a view
// inside one block aliases the block instead of copying it.
func TestBlockStoreViews(t *testing.T) {
	before := blocksOut.Load()
	const from = blockLen + 7 // the store need not start on a boundary
	s, ref := fillStore(from, from+3*blockLen+100)
	for _, tc := range []struct {
		name             string
		start, n, blocks int
	}{
		{"one block", blockLen + 10, 500, 1},
		{"whole block", 2 * blockLen, blockLen, 1},
		{"two blocks", 2*blockLen - 3, 6, 2},
		{"longer than a block", 2*blockLen - 3, blockLen + 6, 3},
		{"three blocks", from, 2*blockLen + 50, 3},
	} {
		for m := range ref {
			got := s.view(m, tc.start, tc.n)
			want := ref[m][tc.start-from : tc.start-from+tc.n]
			if !slices.Equal(got, want) {
				t.Fatalf("%s, mic %d: view [%d, +%d) differs from the flat slice", tc.name, m, tc.start, tc.n)
			}
			inBlock := &s.blocks[tc.start>>blockShift-s.first][m][tc.start&blockMask] == &got[0]
			if inBlock != (tc.blocks == 1) {
				t.Errorf("%s, mic %d: view aliases its block = %v, want %v", tc.name, m, inBlock, tc.blocks == 1)
			}
		}
	}
	s.release()
	if n := blocksOut.Load(); n != before {
		t.Errorf("outstanding blocks after release = %d, want %d", n, before)
	}
}

// TestBlockStoreCut: cut returns exactly the whole blocks below the
// base — a base inside a block keeps that block — and the samples from
// the base on stay readable.
func TestBlockStoreCut(t *testing.T) {
	before := blocksOut.Load()
	const end = 5*blockLen + 123
	s, ref := fillStore(0, end)
	if len(s.blocks) != 6 || blocksOut.Load()-before != 6 {
		t.Fatalf("store holds %d blocks (%d outstanding), want 6", len(s.blocks), blocksOut.Load()-before)
	}
	for _, base := range []int{0, blockLen - 1, blockLen, 3*blockLen + 9, 3*blockLen + 10, end - 1} {
		s.cut(base)
		want := 6 - base>>blockShift
		if len(s.blocks) != want || s.first != base>>blockShift || blocksOut.Load()-before != int64(want) {
			t.Fatalf("after cut(%d): %d blocks from block %d, %d outstanding; want %d from block %d",
				base, len(s.blocks), s.first, blocksOut.Load()-before, want, base>>blockShift)
		}
		for m := range ref {
			if got := s.view(m, base, end-base); !slices.Equal(got, ref[m][base:]) {
				t.Fatalf("after cut(%d), mic %d: samples from the base changed", base, m)
			}
		}
	}
	s.release()
	if len(s.blocks) != 0 || blocksOut.Load() != before {
		t.Errorf("after release: %d blocks held, %d outstanding, want 0", len(s.blocks), blocksOut.Load()-before)
	}
}

// TestFastpathAudioBound streams a steady synthetic flight through a
// tier that screens every window benign, until the fast-path backlog is
// full. While the stream stays on the fast path, the store holds at
// most ceil((maxFastpathBacklogWindows·hop + window)·rate / blockLen) + 1
// blocks per mic, and a full backlog comes within one block of that.
// Finish takes the fast report and returns every block.
func TestFastpathAudioBound(t *testing.T) {
	fx := getFixture(t)
	sig := fx.analyzer.Model.Config().Signature
	const rate, telRate = 4000.0, 125.0
	tone := (sig.Bands[0].Low + sig.Bands[0].High) / 2
	gen := func(seed int64) (audio func(i int) float64, imu func(j int) IMUSample, gps func(j int) GPSSample) {
		rng := rand.New(rand.NewSource(seed))
		noise := func(a float64) float64 { return a * rng.NormFloat64() }
		audio = func(i int) float64 { return math.Sin(2*math.Pi*tone*float64(i)/rate) + noise(0.05) }
		imu = func(j int) IMUSample {
			return IMUSample{Time: float64(j) / telRate, Accel: mathx.Vec3{X: noise(0.01), Y: noise(0.01), Z: -9.81 + noise(0.01)},
				Gyro: mathx.Vec3{X: noise(0.001), Y: noise(0.001), Z: noise(0.001)}, Att: mathx.Quat{W: 1}}
		}
		gps = func(j int) GPSSample {
			return GPSSample{Time: float64(j) / telRate, Pos: mathx.Vec3{X: noise(0.01), Y: noise(0.01), Z: -10 + noise(0.01)},
				Vel: mathx.Vec3{X: noise(0.01), Y: noise(0.01), Z: noise(0.01)}}
		}
		return
	}

	// A benign-only tier trained on the same generator, with a radius
	// no window can leave.
	tcfg := triage.Config{Features: triage.FeatureConfig{Bands: sig.Bands}, RadiusMargin: 1e12}
	audio, imu, gps := gen(1)
	winN, hopN, telN := int(sig.WindowSeconds*rate), int(sig.HopSeconds*rate), int(sig.WindowSeconds*telRate)
	var samples []triage.Sample
	for w := 0; w < 64; w++ {
		a := make([]float64, winN)
		for i := range a {
			a[i] = audio(w*hopN + i)
		}
		var ip []triage.IMUPoint
		var gp []triage.GPSPoint
		for j := 0; j < telN; j++ {
			s, g := imu(j), gps(j)
			ip = append(ip, triage.IMUPoint{Accel: s.Accel, Gyro: s.Gyro})
			gp = append(gp, triage.GPSPoint{Time: g.Time, Pos: g.Pos, Vel: g.Vel})
		}
		samples = append(samples, triage.Sample{Features: tcfg.Features.Features(a, rate, ip, gp)})
	}
	tier, err := triage.Train(samples, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	an := *fx.analyzer
	an.Triage = tier

	before := blocksOut.Load()
	eng, err := New(&an, rate)
	if err != nil {
		t.Fatal(err)
	}
	bound := int(math.Ceil((maxFastpathBacklogWindows*sig.HopSeconds+sig.WindowSeconds)*rate/blockLen)) + 1
	audio, imu, gps = gen(2)
	frameN := FrameLen(0.05, rate)
	maxHeld, tel := 0, 0
	for o := 0; eng.nextWin-eng.triFullWin < maxFastpathBacklogWindows; o += frameN {
		// Telemetry runs 0.1 s ahead of the audio, so every window is
		// decided as soon as its audio is in.
		for ; float64(tel)/telRate < float64(o+frameN)/rate+0.1; tel++ {
			eng.Ingest(mavbus.Message{Topic: TopicIMU, Payload: imu(tel)})
			eng.Ingest(mavbus.Message{Topic: TopicGPS, Payload: gps(tel)})
		}
		samples := make([][]float64, acoustics.NumMics)
		for m := range samples {
			samples[m] = make([]float64, frameN)
		}
		for i := range frameN {
			v := audio(o + i)
			for m := range samples {
				samples[m][i] = v
			}
		}
		eng.Ingest(mavbus.Message{Topic: TopicAudio, Payload: AudioFrame{Start: float64(o) / rate, Rate: rate, Samples: samples}})
		eng.Advance()
		if !eng.fastpath() {
			t.Fatalf("stream escalated at window %d, before the backlog filled", eng.nextWin)
		}
		held := len(eng.audio.blocks)
		if held > bound {
			t.Fatalf("fast path holds %d blocks per mic at window %d, bound %d", held, eng.nextWin, bound)
		}
		maxHeld = max(maxHeld, held)
	}
	if maxHeld < bound-1 {
		t.Errorf("a full backlog held at most %d blocks per mic, want the bound %d within one block", maxHeld, bound)
	}
	r, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if r.IMU.WindowsTested != 0 {
		t.Errorf("Finish escalated the full backlog: %+v", r.IMU)
	}
	if n := blocksOut.Load(); n != before {
		t.Errorf("outstanding blocks after Finish = %d, want %d", n, before)
	}
}

// BenchmarkEngineFlight feeds one 14 s fixture flight, in 0.5 s chunks,
// through Ingest, Advance and Finish: on the full pipeline ("full") and
// on the triage fast path, which keeps the whole flight for a replay
// ("tiered").
func BenchmarkEngineFlight(b *testing.B) {
	fx := getFixture(b)
	f := fx.calib[0]
	var chunks [][]mavbus.Message
	for _, m := range Events(CutFlight(f, 0.05)) {
		k := int(m.Time / 0.5)
		for len(chunks) <= k {
			chunks = append(chunks, nil)
		}
		chunks[k] = append(chunks[k], m)
	}
	for _, bc := range []struct {
		name   string
		tiered bool
	}{{"full", false}, {"tiered", true}} {
		b.Run(bc.name, func(b *testing.B) {
			an := fx.analyzer
			if bc.tiered {
				an = tieredAnalyzer(b)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				eng, err := New(an, f.Audio.SampleRate)
				if err != nil {
					b.Fatal(err)
				}
				for _, chunk := range chunks {
					for _, m := range chunk {
						eng.Ingest(m)
					}
					eng.Advance()
				}
				if _, err := eng.Finish(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
