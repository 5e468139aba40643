package stream

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"soundboost/internal/acoustics"
	"soundboost/internal/chaos"
	"soundboost/internal/dataset"
	"soundboost/internal/mavbus"
)

// FrameLen is the per-frame sample count for a frame length in seconds
// at an audio sample rate: the nearest integer, minimum 1. Rounding
// matters — truncation drops a sample per frame whenever the product
// lands just under an integer in float64 (0.29 s at 100 Hz is
// 28.999999999999996), which skews every frame boundary after the
// first. Replay and api.ChunkFlight both cut frames with it, keeping
// the replay-identical guarantee: a chunked upload reproduces the
// replayed stream exactly.
func FrameLen(frameSeconds, rate float64) int {
	n := int(math.Round(frameSeconds * rate))
	if n < 1 {
		n = 1
	}
	return n
}

// ReplayConfig tunes dataset replay onto a bus.
type ReplayConfig struct {
	// Speed is the wall-clock speed factor: 1 replays in real time, 2 at
	// double speed, 0 replays as fast as the bus accepts (no sleeping).
	Speed float64
	// FrameSeconds is the audio chunking interval (default 0.05 s —
	// a 50 ms capture buffer, typical for a companion-computer ALSA feed).
	FrameSeconds float64
	// DropRate is the per-message drop probability for IMU and GPS
	// messages, simulating a lossy telemetry link. 0 disables. Drops are
	// injected through a chaos.Injector built from Seed — the same code
	// path the chaos soak uses — not a bespoke replay-only RNG.
	DropRate float64
	// AudioDropRate is the per-frame drop probability for audio frames,
	// creating dropouts the engine must gap-fill over. 0 disables.
	AudioDropRate float64
	// Seed drives the fault injection (deterministic for a given seed).
	Seed int64
	// Chaos, when set, is the full fault schedule to replay through —
	// corruption, freeze, skew, reordering, everything the chaos package
	// offers. DropRate/AudioDropRate are folded into it as per-topic drop
	// rates (explicit PerTopic entries in Chaos win), and a zero
	// Chaos.Seed inherits Seed.
	Chaos *chaos.Config
}

// injector builds the replay's fault schedule: the shared chaos types,
// seeded from the config, with the legacy drop-rate knobs folded in as
// per-topic drop rates.
func (c ReplayConfig) injector() *chaos.Injector {
	var ccfg chaos.Config
	if c.Chaos != nil {
		ccfg = *c.Chaos
	}
	if ccfg.Seed == 0 {
		ccfg.Seed = c.Seed
	}
	perTopic := make(map[string]chaos.Rates, len(ccfg.PerTopic)+3)
	if c.AudioDropRate > 0 {
		perTopic[TopicAudio] = chaos.Rates{Drop: c.AudioDropRate}
	}
	if c.DropRate > 0 {
		perTopic[TopicIMU] = chaos.Rates{Drop: c.DropRate}
		perTopic[TopicGPS] = chaos.Rates{Drop: c.DropRate}
	}
	for t, r := range ccfg.PerTopic {
		perTopic[t] = r
	}
	ccfg.PerTopic = perTopic
	return chaos.NewInjector(ccfg, CorruptPayload)
}

func (c ReplayConfig) withDefaults() ReplayConfig {
	if c.FrameSeconds <= 0 {
		c.FrameSeconds = 0.05
	}
	return c
}

// Events merges the three streams of one stretch of flight into the
// order every producer publishes them in: by timestamp, stable, with
// audio before IMU before GPS at equal times. An audio frame is timed
// when its last sample is captured. Messages carry the default topics.
// Replay and the server's sessions both order through here, which is
// what lets a chunked upload reproduce the replayed stream.
func Events(audio []AudioFrame, imu []IMUSample, gps []GPSSample) []mavbus.Message {
	events := make([]mavbus.Message, 0, len(audio)+len(imu)+len(gps))
	for _, f := range audio {
		endT := f.Start
		if f.Rate > 0 && len(f.Samples) > 0 {
			endT += float64(len(f.Samples[0])) / f.Rate
		}
		events = append(events, mavbus.Message{Topic: TopicAudio, Time: endT, Payload: f})
	}
	for _, s := range imu {
		events = append(events, mavbus.Message{Topic: TopicIMU, Time: s.Time, Payload: s})
	}
	for _, s := range gps {
		events = append(events, mavbus.Message{Topic: TopicGPS, Time: s.Time, Payload: s})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Time < events[j].Time })
	return events
}

// Replay publishes a recorded flight onto the bus as the live streams the
// engine consumes: the audio recording chunked into frames (each
// published at its capture-complete time) and one IMU plus one GPS
// message per telemetry row, in Events order. With Speed > 0 publication
// is paced to scaled real time; Speed == 0 publishes as fast as
// possible. The caller owns the bus and typically closes it when Replay
// returns so consumers see end-of-stream.
func Replay(ctx context.Context, bus *mavbus.Bus, f *dataset.Flight, cfg ReplayConfig) error {
	if f == nil || f.Audio == nil || f.Audio.Samples() == 0 {
		return fmt.Errorf("stream: nothing to replay")
	}
	cfg = cfg.withDefaults()
	rate := f.Audio.SampleRate
	frameN := FrameLen(cfg.FrameSeconds, rate)

	total := f.Audio.Samples()
	var audio []AudioFrame
	for o := 0; o < total; o += frameN {
		end := min(o+frameN, total)
		samples := make([][]float64, acoustics.NumMics)
		for m := range samples {
			samples[m] = f.Audio.Channels[m][o:end]
		}
		audio = append(audio, AudioFrame{Start: float64(o) / rate, Rate: rate, Samples: samples})
	}
	imu := make([]IMUSample, len(f.Telemetry))
	gps := make([]GPSSample, len(f.Telemetry))
	for i, s := range f.Telemetry {
		imu[i] = IMUSample{Time: s.Time, Accel: s.IMUAccel, Gyro: s.IMUGyro, Att: s.EstAtt}
		gps[i] = GPSSample{Time: s.Time, Pos: s.GPSPos, Vel: s.GPSVel}
	}

	inj := cfg.injector()
	pub := inj.Publisher(bus.Publish)
	prev := 0.0
	for _, m := range Events(audio, imu, gps) {
		if cfg.Speed > 0 && m.Time > prev {
			d := time.Duration(float64(time.Second) * (m.Time - prev) / cfg.Speed)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(d):
			}
			prev = m.Time
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := pub(m); err != nil {
			return err
		}
	}
	return inj.Flush(bus.Publish)
}
