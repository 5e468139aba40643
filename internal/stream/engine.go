package stream

import (
	"context"
	"fmt"
	"math"
	"sync"

	"soundboost/internal/acoustics"
	"soundboost/internal/chaos"
	soundboost "soundboost/internal/core"
	"soundboost/internal/dsp"
	"soundboost/internal/faults"
	"soundboost/internal/kalman"
	"soundboost/internal/mathx"
	"soundboost/internal/mavbus"
	"soundboost/internal/triage"
)

// maxGapFillSeconds caps how much audio silence a single timestamp jump
// may inject: a frame claiming to start further ahead than this is
// treated as malformed rather than allocated as a gap, so one corrupt
// timestamp cannot balloon the ring buffer.
const maxGapFillSeconds = 30

// maxTelemetryBuffer caps the per-stream telemetry backlog retained while
// windows cannot advance (e.g. the audio feed stalled). Past it the
// oldest samples are evicted and counted.
const maxTelemetryBuffer = 1 << 17

// maxFastpathBacklogWindows caps how many screened windows the triage
// fast path may retain for a potential escalation replay before memory
// wins over speed: past it the engine escalates (runs the backlog
// through the full pipeline) purely to release the buffers. At the
// default 0.25 s hop this is ~4 minutes of stream — far beyond the
// flights the service sees, so real streams fast-path end to end.
const maxFastpathBacklogWindows = 1 << 10

// sampleRange is a half-open range [start, end) of absolute sample
// indices whose content is gap-filled or otherwise untrustworthy.
type sampleRange struct{ start, end int }

// Status is a point-in-time snapshot of the engine for live display.
type Status struct {
	// LastWindowEnd is the end time (s) of the newest processed window.
	LastWindowEnd float64
	// Windows counts fully processed windows; Skipped counts windows
	// dropped for gaps, starvation, or rejection.
	Windows int
	Skipped int
	// IMUAttacked and GPSAttacked are the verdicts so far (GPS per the
	// currently active KF variant).
	IMUAttacked bool
	GPSAttacked bool
	// ActiveMode is the KF variant currently trusted for the GPS verdict
	// — it switches from audio+IMU to audio-only the moment the IMU
	// verdict flips to attacked.
	ActiveMode kalman.Mode
	// RunningError and PeakError expose the active GPS monitor state.
	RunningError float64
	PeakError    float64
	Threshold    float64
}

// Engine is the online RCA engine. It consumes AudioFrame, IMUSample,
// and GPSSample messages and incrementally runs the same calibrated
// two-stage analysis as Analyzer.Analyze; on a clean, ordered, lossless
// stream the final Report is equivalent to the batch one.
//
// An engine is driven one of two ways, by one goroutine at a time.
// Directly, as the server's sessions do:
//
//	eng, _ := stream.New(analyzer, rate)
//	for _, chunk := range chunks {
//		for _, m := range chunk {
//			eng.Ingest(m)
//		}
//		eng.Advance()
//	}
//	report, err := eng.Finish()
//
// Or from a mavbus, which Run loops over in the same three steps:
//
//	eng, _ := stream.New(analyzer, rate)
//	eng.Attach(bus)
//	go func() { stream.Replay(ctx, bus, flight, rcfg); bus.Close() }()
//	report, err := eng.Run(ctx)
//
// The bus is a lossless FIFO, so Run sees every published message in
// publication order, whenever it starts reading.
type Engine struct {
	an   *soundboost.Analyzer
	cfg  Config
	sig  soundboost.SignatureConfig
	rate float64

	bus *mavbus.Bus // set by Attach, read by Run

	// Audio ring: filtered samples [base, written) per mic, plus the
	// invalid (gap-filled / non-finite) ranges still overlapping it.
	lp      *dsp.Biquad4 // nil when the signature has no low-pass
	buf     [acoustics.NumMics][]float64
	base    int
	written int
	invalid []sampleRange

	// Telemetry buffers, time-sorted, with high-water marks.
	imuBuf   []IMUSample
	gpsBuf   []GPSSample
	imuWM    float64
	gpsWM    float64
	imuEvict int
	gpsEvict int

	// nextWin is the index of the next unprocessed signature window
	// (start time nextWin*HopSeconds, exactly as batch WindowStarts).
	nextWin int

	// Triage fast path. While active (tri non-nil and not escalated),
	// ready windows are screened by the cheap tier instead of running the
	// full pipeline, and every full-pipeline input from window triFullWin
	// onward is retained so that any doubt can escalate by replaying the
	// screened backlog — reproducing, bit for bit, the engine state the
	// full pipeline would have reached. Escalation is permanent for the
	// stream; a stream that never escalates finalizes with the cheap
	// path-independent benign report.
	tri          *triage.Model
	triFullWin   int
	triEscalated bool

	imuMon *soundboost.IMUMonitor
	gpsAO  *soundboost.GPSMonitor // audio-only KF, trusted when the IMU is flagged
	gpsAI  *soundboost.GPSMonitor // audio+IMU KF, trusted otherwise

	err error

	mu     sync.Mutex
	status Status
}

// ErrNotAttached is returned by Run when the engine was never attached
// to a bus. It aliases faults.ErrEngineDetached, the repository-wide
// error set, so errors.Is matches under either name.
var ErrNotAttached = faults.ErrEngineDetached

// New builds an engine around a calibrated analyzer for streams at the
// given audio sample rate, configured by functional options:
//
//	eng, err := stream.New(analyzer, rate,
//		stream.WithLagHorizon(5),
//		stream.WithFlightName("incident-17"))
func New(an *soundboost.Analyzer, sampleRate float64, opts ...Option) (*Engine, error) {
	var cfg Config
	for _, opt := range opts {
		opt(&cfg)
	}
	return newEngine(an, sampleRate, cfg)
}

func newEngine(an *soundboost.Analyzer, sampleRate float64, cfg Config) (*Engine, error) {
	if an == nil || an.Model == nil || an.IMU == nil || an.GPSAudioOnly == nil || an.GPSAudioIMU == nil {
		return nil, fmt.Errorf("stream: nil or incomplete analyzer")
	}
	if an.IMU.Config().Stream != 0 {
		return nil, fmt.Errorf("stream: only the primary IMU stream (0) is supported online, analyzer uses stream %d", an.IMU.Config().Stream)
	}
	sig := an.Model.Config().Signature
	if err := sig.ValidateForRate(sampleRate); err != nil {
		return nil, err
	}
	e := &Engine{
		an:    an,
		cfg:   cfg.withDefaults(),
		sig:   sig,
		rate:  sampleRate,
		imuWM: math.Inf(-1),
		gpsWM: math.Inf(-1),
	}
	// Mirror NewExtractor's four-lane low-pass: the same filter stepped
	// sample by sample is bit-identical to the batch ProcessAll.
	if sig.LowPassHz > 0 && sig.LowPassHz < sampleRate/2 {
		lp, err := dsp.NewLowPass(sig.LowPassHz, sampleRate)
		if err != nil {
			return nil, fmt.Errorf("stream: low-pass: %w", err)
		}
		e.lp = lp.Lanes4()
	}
	e.tri = an.Triage
	e.imuMon = an.IMU.NewMonitor()
	e.gpsAO = an.GPSAudioOnly.NewMonitor()
	e.gpsAI = an.GPSAudioIMU.NewMonitor()
	e.status.ActiveMode = an.GPSAudioIMU.Mode()
	e.status.Threshold = an.GPSAudioIMU.Threshold()
	return e, nil
}

// Attach sets the bus Run reads. The error result is always nil.
func (e *Engine) Attach(bus *mavbus.Bus) error {
	e.bus = bus
	return nil
}

// Run reads the attached bus in publication order until it is closed
// and drained, calling Ingest for each message and Advance after each
// batch Take returns, then returns Finish's report. Cancelling the
// context closes the bus, so a producer blocked on it gets ErrClosed
// instead of leaking; Run then ingests what the bus still holds and
// returns the best-effort report alongside ctx.Err().
func (e *Engine) Run(ctx context.Context) (soundboost.Report, error) {
	if e.bus == nil {
		return soundboost.Report{}, ErrNotAttached
	}
	stop := context.AfterFunc(ctx, e.bus.Close)
	var batch []mavbus.Message
	for batch = e.bus.Take(batch); len(batch) > 0; batch = e.bus.Take(batch) {
		for _, m := range batch {
			_ = e.Ingest(m)
		}
		e.Advance()
	}
	report, err := e.Finish()
	if !stop() {
		return report, ctx.Err()
	}
	return report, err
}

// Ingest takes in one message: an AudioFrame, IMUSample or GPSSample
// payload on its topic. Anything else is ignored. Ingest processes no
// window; call Advance once a batch of messages is in. The error result
// is always nil: it gives Ingest the signature of Bus.Publish and
// chaos.PubFunc, so a fault injector can wrap it.
//
// A chaos.PoisonPill payload panics. This is the deliberate crash-test
// trigger for the fault-injection harness: the panic must be contained
// by the engine's owner (the server's per-session isolation domain),
// never by the engine itself — swallowing it here would hide exactly
// the failure the soak exists to exercise.
func (e *Engine) Ingest(m mavbus.Message) error {
	if _, bad := m.Payload.(chaos.PoisonPill); bad {
		panic(fmt.Sprintf("stream: poison pill on %q at t=%.3f", m.Topic, m.Time))
	}
	switch m.Topic {
	case TopicAudio:
		if f, ok := m.Payload.(AudioFrame); ok {
			e.onAudio(f)
		}
	case TopicIMU:
		if s, ok := m.Payload.(IMUSample); ok {
			e.onIMU(s)
		}
	case TopicGPS:
		if s, ok := m.Payload.(GPSSample); ok {
			e.onGPS(s)
		}
	}
	return nil
}

// Advance processes every window the ingested messages made decidable.
// Call it once per batch (a bus Take, a served chunk), not per message.
func (e *Engine) Advance() { e.advance(false) }

// Finish ends the stream: it forces the remaining audio-ready windows
// through with whatever telemetry arrived and returns the final report.
// Call it once, after the last Ingest.
func (e *Engine) Finish() (soundboost.Report, error) {
	e.advance(true)
	return e.finalize()
}

// Status returns a snapshot of the engine state for live display. It is
// safe to call concurrently with Run.
func (e *Engine) Status() Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.status
}

// onAudio ingests one audio frame: out-of-order overlap is trimmed,
// gaps are zero-filled through the filters (preserving window timing)
// and marked invalid, non-finite samples are zeroed and marked invalid.
func (e *Engine) onAudio(f AudioFrame) {
	framesTotal.Inc()
	if len(f.Samples) != acoustics.NumMics || len(f.Samples[0]) == 0 || f.Rate != e.rate {
		framesMalformed.Inc()
		return
	}
	n := len(f.Samples[0])
	for _, ch := range f.Samples[1:] {
		if len(ch) != n {
			framesMalformed.Inc()
			return
		}
	}
	if math.IsNaN(f.Start) || math.IsInf(f.Start, 0) || f.Start < 0 {
		framesMalformed.Inc()
		return
	}
	startIdx := int(math.Round(f.Start * e.rate))
	skip := 0
	if startIdx < e.written {
		// Duplicate or late frame: drop the part already ingested.
		framesOutOfOrder.Inc()
		skip = e.written - startIdx
		if skip >= n {
			return
		}
	} else if gap := startIdx - e.written; gap > 0 {
		if float64(gap)/e.rate > maxGapFillSeconds {
			framesMalformed.Inc()
			return
		}
		// Dropout: zero-fill through the filters so later windows keep
		// their absolute timing, and mark the span untrustworthy.
		e.invalid = append(e.invalid, sampleRange{e.written, startIdx})
		gapSamplesFilled.Add(int64(gap))
		for i := 0; i < gap; i++ {
			e.appendSample([acoustics.NumMics]float64{})
		}
		e.written = startIdx
	}
	for i := skip; i < n; i++ {
		var x [acoustics.NumMics]float64
		finite := true
		for m := range x {
			v := f.Samples[m][i]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				finite = false
				v = 0
			}
			x[m] = v
		}
		if !finite {
			nonFiniteSamples.Inc()
			e.markInvalid(e.written, e.written+1)
		}
		e.appendSample(x)
		e.written++
	}
	audioBufferGauge.Set(float64(e.written-e.base) / e.rate)
}

// appendSample low-passes one sample per mic and appends it to the
// audio ring.
func (e *Engine) appendSample(x [acoustics.NumMics]float64) {
	if e.lp != nil {
		x = e.lp.Process(x)
	}
	for m, v := range x {
		e.buf[m] = append(e.buf[m], v)
	}
}

// markInvalid records [start, end) as untrustworthy, merging with a
// directly adjacent previous range.
func (e *Engine) markInvalid(start, end int) {
	if n := len(e.invalid); n > 0 && e.invalid[n-1].end == start {
		e.invalid[n-1].end = end
		return
	}
	e.invalid = append(e.invalid, sampleRange{start, end})
}

// onIMU ingests one IMU row: NaN rows are shed, out-of-order rows are
// sorted in if their window is still pending and dropped otherwise.
func (e *Engine) onIMU(s IMUSample) {
	telemetryIMU.Inc()
	if !finiteTime(s.Time) || !s.Accel.IsFinite() || !finiteQuat(s.Att) {
		telemetryNaN.Inc()
		return
	}
	if s.Time >= e.imuWM {
		e.imuBuf = append(e.imuBuf, s)
		e.imuWM = s.Time
	} else {
		telemetryReordered.Inc()
		if s.Time < float64(e.nextWin)*e.sig.HopSeconds {
			return // its windows were already decided
		}
		i := len(e.imuBuf)
		for i > 0 && e.imuBuf[i-1].Time > s.Time {
			i--
		}
		e.imuBuf = append(e.imuBuf, IMUSample{})
		copy(e.imuBuf[i+1:], e.imuBuf[i:])
		e.imuBuf[i] = s
	}
	if len(e.imuBuf) > maxTelemetryBuffer {
		// Evicting a row the escalation replay might need would break
		// replay exactness: leave the fast path first (which prunes the
		// backlog), then evict only if the buffer is still over.
		e.escalate()
		if len(e.imuBuf) > maxTelemetryBuffer {
			e.imuBuf = e.imuBuf[1:]
			e.imuEvict++
			telemetryEvicted.Inc()
		}
	}
}

// onGPS ingests one GPS fix; the first finite fix seeds both KF variants
// (the batch pipeline's v0 = Telemetry[0].GPSVel).
func (e *Engine) onGPS(s GPSSample) {
	telemetryGPS.Inc()
	if !finiteTime(s.Time) || !s.Vel.IsFinite() || !s.Pos.IsFinite() {
		telemetryNaN.Inc()
		return
	}
	for _, g := range []*soundboost.GPSMonitor{e.gpsAO, e.gpsAI} {
		if err := g.Seed(s.Vel); err != nil && e.err == nil {
			e.err = err
		}
	}
	if s.Time >= e.gpsWM {
		e.gpsBuf = append(e.gpsBuf, s)
		e.gpsWM = s.Time
	} else {
		telemetryReordered.Inc()
		if s.Time < float64(e.nextWin)*e.sig.HopSeconds {
			return
		}
		i := len(e.gpsBuf)
		for i > 0 && e.gpsBuf[i-1].Time > s.Time {
			i--
		}
		e.gpsBuf = append(e.gpsBuf, GPSSample{})
		copy(e.gpsBuf[i+1:], e.gpsBuf[i:])
		e.gpsBuf[i] = s
	}
	if len(e.gpsBuf) > maxTelemetryBuffer {
		e.escalate()
		if len(e.gpsBuf) > maxTelemetryBuffer {
			e.gpsBuf = e.gpsBuf[1:]
			e.gpsEvict++
			telemetryEvicted.Inc()
		}
	}
}

// advance processes every window that has become decidable. A window is
// audio-ready under exactly the batch predicate (its samples are all
// written AND t0+window fits the duration streamed so far) and
// telemetry-ready when both telemetry watermarks passed its end. flush
// forces pending audio-ready windows through with whatever telemetry
// arrived — used at end of stream, where the buffers hold everything
// that will ever arrive.
func (e *Engine) advance(flush bool) {
	win := e.sig.WindowSeconds
	hop := e.sig.HopSeconds
	total := int(win * e.rate)
	for {
		t0 := float64(e.nextWin) * hop
		start := int(t0 * e.rate)
		endT := t0 + win
		if start+total > e.written || endT > float64(e.written)/e.rate {
			break // audio not complete for this window yet (or ever)
		}
		if !flush {
			telReady := e.imuWM >= endT && e.gpsWM >= endT
			if !telReady {
				lag := float64(e.written)/e.rate - endT
				lagGauge.Set(lag)
				if lag <= e.cfg.MaxLagSeconds {
					break // wait for telemetry to catch up
				}
				// Telemetry starved beyond the horizon: skip the window
				// so the audio ring stays bounded. Starvation is doubt —
				// the fast path hands the stream to the full pipeline
				// first so the skip happens in full-pipeline state.
				e.escalate()
				windowsStarved.Inc()
				e.bumpSkipped()
				e.nextWin++
				e.prune()
				continue
			}
		}
		if e.fastpath() {
			if e.nextWin-e.triFullWin < maxFastpathBacklogWindows && e.screenWindow(t0, start, total) {
				windowsScreened.Inc()
				e.mu.Lock()
				e.status.Windows++
				e.status.LastWindowEnd = endT
				e.mu.Unlock()
				e.nextWin++
				e.prune()
				continue
			}
			// Doubt (or backlog bound): replay the screened backlog
			// through the full pipeline, then process this window there.
			e.escalate()
		}
		e.processWindow(e.nextWin, t0, start, total)
		e.nextWin++
		e.prune()
	}
}

// fastpath reports whether the triage screening tier is deciding
// windows (attached and not yet escalated).
func (e *Engine) fastpath() bool { return e.tri != nil && !e.triEscalated }

// screenWindow runs the triage tier over one ready window; false means
// the window — and with it the stream — must escalate. Every condition
// the full pipeline treats specially (pending engine error, dropout
// overlap, missing IMU rows, unusable features) is doubt.
func (e *Engine) screenWindow(t0 float64, start, total int) bool {
	if e.err != nil || e.overlapsInvalid(start, start+total) {
		return false
	}
	endT := t0 + e.sig.WindowSeconds
	imuWin := e.imuWindow(t0, endT)
	if len(imuWin) == 0 {
		return false
	}
	gpsWin := e.gpsWindow(t0, endT)
	imu := make([]triage.IMUPoint, len(imuWin))
	for i, s := range imuWin {
		imu[i] = triage.IMUPoint{Accel: s.Accel, Gyro: s.Gyro}
	}
	gps := make([]triage.GPSPoint, len(gpsWin))
	for i, s := range gpsWin {
		gps[i] = triage.GPSPoint{Time: s.Time, Pos: s.Pos, Vel: s.Vel}
	}
	off := start - e.base
	features := e.sig.Precision.TriageFeatures(e.tri.Config().Features)
	feat := features(e.buf[0][off:off+total], e.rate, imu, gps)
	return e.tri.Classify(feat).Benign
}

// escalate permanently abandons the fast path: every screened window is
// replayed through the full pipeline from the retained buffers. The
// screened backlog is frozen — late telemetry for decided windows is
// rejected at ingest and dropout ranges only ever grow at the write
// head — so the replay reproduces exactly the state the full pipeline
// would have reached had it run from the start. A no-op once escalated
// or when no tier is attached.
func (e *Engine) escalate() {
	if !e.fastpath() {
		return
	}
	e.triEscalated = true
	triageEscalations.Inc()
	total := int(e.sig.WindowSeconds * e.rate)
	for w := e.triFullWin; w < e.nextWin; w++ {
		t0 := float64(w) * e.sig.HopSeconds
		e.processWindow(w, t0, int(t0*e.rate), total)
	}
	e.triFullWin = e.nextWin
	e.prune()
}

// processWindow runs one signature window (index winIdx, start time t0)
// through both RCA stages. Live processing passes winIdx = e.nextWin;
// an escalation replay passes the historical index.
func (e *Engine) processWindow(winIdx int, t0 float64, start, total int) {
	endT := t0 + e.sig.WindowSeconds
	if !e.cfg.GapFill && e.overlapsInvalid(start, start+total) {
		windowsSkippedGap.Inc()
		e.bumpSkipped()
		return
	}
	span := featureTimer.Start()
	var chans [acoustics.NumMics][]float64
	off := start - e.base
	for m := range chans {
		chans[m] = e.buf[m][off : off+total]
	}
	feat := e.sig.AcousticWindow(chans, e.rate)
	span.Stop()
	if feat == nil {
		windowsRejected.Inc()
		e.bumpSkipped()
		return
	}
	imuWin := e.imuWindow(t0, endT)
	if len(imuWin) == 0 {
		// The batch pipeline skips telemetry-less windows in both stages.
		windowsRejected.Inc()
		e.bumpSkipped()
		return
	}
	if e.sig.AttitudeFeatures {
		var roll, pitch float64
		for _, s := range imuWin {
			r, p, _ := s.Att.Euler()
			roll += r
			pitch += p
		}
		n := float64(len(imuWin))
		feat = append(feat, roll/n, pitch/n)
	}
	pred := e.an.Model.Predict(feat)

	// Stage 1: per-sample z-axis residuals into the KS period monitor.
	vals := make([]float64, len(imuWin))
	for i, s := range imuWin {
		vals[i] = pred.Z - s.Accel.Z
	}
	span = imuPeriodTimer.Start()
	e.imuMon.AddWindow(t0, vals)
	span.Stop()

	// Stage 2: window-mean observation into both KF variants. Both run
	// from the start so the verdict can switch variants retroactively
	// cleanly — exactly the batch selection semantics.
	if gpsWin := e.gpsWindow(t0, endT); len(gpsWin) > 0 {
		att := imuWin[len(imuWin)/2].Att
		var imuSum mathx.Vec3
		for _, s := range imuWin {
			imuSum = imuSum.Add(s.Accel)
		}
		imuBody := imuSum.Scale(1 / float64(len(imuWin)))
		var gpsSum mathx.Vec3
		for _, s := range gpsWin {
			gpsSum = gpsSum.Add(s.Vel)
		}
		o := soundboost.NewGPSObs(winIdx, endT, att, pred, imuBody, gpsSum.Scale(1/float64(len(gpsWin))))
		span = gpsStepTimer.Start()
		e.gpsAO.Add(o)
		e.gpsAI.Add(o)
		span.Stop()
	}
	windowsEmitted.Inc()

	e.mu.Lock()
	e.status.Windows++
	e.status.LastWindowEnd = endT
	e.status.IMUAttacked = e.imuMon.Attacked()
	active := e.gpsAI
	e.status.ActiveMode = e.an.GPSAudioIMU.Mode()
	if e.imuMon.Attacked() {
		active = e.gpsAO
		e.status.ActiveMode = e.an.GPSAudioOnly.Mode()
	}
	gpsV, running := active.Current()
	e.status.GPSAttacked = gpsV.Attacked
	e.status.RunningError = running
	e.status.PeakError = gpsV.PeakError
	e.status.Threshold = gpsV.Threshold
	e.mu.Unlock()
}

func (e *Engine) bumpSkipped() {
	e.mu.Lock()
	e.status.Skipped++
	e.mu.Unlock()
}

// imuWindow returns the buffered IMU samples with time in [t0, t1) —
// the same half-open interval as dataset.Flight.TelemetryBetween.
func (e *Engine) imuWindow(t0, t1 float64) []IMUSample {
	var out []IMUSample
	for _, s := range e.imuBuf {
		if s.Time >= t1 {
			break
		}
		if s.Time >= t0 {
			out = append(out, s)
		}
	}
	return out
}

func (e *Engine) gpsWindow(t0, t1 float64) []GPSSample {
	var out []GPSSample
	for _, s := range e.gpsBuf {
		if s.Time >= t1 {
			break
		}
		if s.Time >= t0 {
			out = append(out, s)
		}
	}
	return out
}

// overlapsInvalid reports whether [start, end) intersects a gap-filled or
// non-finite sample range.
func (e *Engine) overlapsInvalid(start, end int) bool {
	for _, r := range e.invalid {
		if r.start < end && start < r.end {
			return true
		}
	}
	return false
}

// prune discards buffered audio and telemetry no window can need again:
// everything strictly before the next window's start — or, while the
// triage fast path is active, before the first window the full pipeline
// has not consumed, since an escalation replay needs the screened
// backlog intact. This (plus the starvation skip in advance and the
// fast-path backlog bound) is what bounds engine memory.
func (e *Engine) prune() {
	pruneWin := e.nextWin
	if e.fastpath() && e.triFullWin < pruneWin {
		pruneWin = e.triFullWin
	}
	t0 := float64(pruneWin) * e.sig.HopSeconds
	newBase := int(t0 * e.rate)
	if cut := newBase - e.base; cut > 0 {
		for m := range e.buf {
			e.buf[m] = append(e.buf[m][:0:0], e.buf[m][cut:]...)
		}
		e.base = newBase
	}
	keep := e.invalid[:0]
	for _, r := range e.invalid {
		if r.end > e.base {
			keep = append(keep, r)
		}
	}
	e.invalid = keep
	cutIMU := 0
	for cutIMU < len(e.imuBuf) && e.imuBuf[cutIMU].Time < t0 {
		cutIMU++
	}
	if cutIMU > 0 {
		e.imuBuf = append(e.imuBuf[:0:0], e.imuBuf[cutIMU:]...)
	}
	cutGPS := 0
	for cutGPS < len(e.gpsBuf) && e.gpsBuf[cutGPS].Time < t0 {
		cutGPS++
	}
	if cutGPS > 0 {
		e.gpsBuf = append(e.gpsBuf[:0:0], e.gpsBuf[cutGPS:]...)
	}
}

// finalize assembles the report with the batch pipeline's stage-2
// selection and cause attribution. A stream that screened at least one
// window and never escalated finalizes with the cheap path-independent
// benign report; a zero-window or errored fast-path stream escalates
// first so the report matches the triage-disabled engine exactly.
func (e *Engine) finalize() (soundboost.Report, error) {
	if e.fastpath() {
		if e.err == nil && e.nextWin > e.triFullWin {
			triageFastReports.Inc()
			e.mu.Lock()
			e.status.IMUAttacked = false
			e.status.GPSAttacked = false
			e.status.ActiveMode = e.an.GPSAudioIMU.Mode()
			e.status.Threshold = e.an.GPSAudioIMU.Threshold()
			e.mu.Unlock()
			return soundboost.FastBenignReport(e.cfg.FlightName, e.an), nil
		}
		e.escalate()
	}
	imuV := e.imuMon.Verdict()
	gps := e.gpsAI
	mode := e.an.GPSAudioIMU.Mode()
	if imuV.Attacked {
		gps = e.gpsAO
		mode = e.an.GPSAudioOnly.Mode()
	}
	gpsV, gpsErr := gps.Verdict()
	if gpsErr != nil && e.err == nil {
		e.err = gpsErr
	}
	report := soundboost.Report{
		Flight:    e.cfg.FlightName,
		IMU:       imuV,
		GPS:       gpsV,
		GPSMode:   mode,
		Precision: e.an.Precision(),
	}
	switch {
	case imuV.Attacked && gpsV.Attacked:
		report.Cause = soundboost.CauseIMUAndGPS
	case imuV.Attacked:
		report.Cause = soundboost.CauseIMU
	case gpsV.Attacked:
		report.Cause = soundboost.CauseGPS
	default:
		report.Cause = soundboost.CauseNone
	}
	e.mu.Lock()
	e.status.IMUAttacked = imuV.Attacked
	e.status.GPSAttacked = gpsV.Attacked
	e.status.ActiveMode = mode
	e.status.PeakError = gpsV.PeakError
	e.status.Threshold = gpsV.Threshold
	e.mu.Unlock()
	return report, e.err
}

func finiteTime(t float64) bool { return !math.IsNaN(t) && !math.IsInf(t, 0) }

func finiteQuat(q mathx.Quat) bool {
	return !math.IsNaN(q.W+q.X+q.Y+q.Z) && !math.IsInf(q.W+q.X+q.Y+q.Z, 0)
}
