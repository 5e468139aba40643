package stream

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"soundboost/internal/acoustics"
	"soundboost/internal/chaos"
	soundboost "soundboost/internal/core"
	"soundboost/internal/dsp"
	"soundboost/internal/faults"
	"soundboost/internal/kalman"
	"soundboost/internal/mavbus"
)

// maxGapFillSeconds caps how much audio silence a single timestamp jump
// may inject: a frame claiming to start further ahead than this is
// treated as malformed rather than allocated as a gap, so one corrupt
// timestamp cannot balloon the audio store.
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
// flights the service sees, so real streams fast-path end to end. The
// audio a fast-path stream holds is therefore at most
// ceil((maxFastpathBacklogWindows·hop + window)·rate / blockLen) + 1
// blocks per mic (DESIGN.md, "Ordering and loss").
const maxFastpathBacklogWindows = 1 << 10

// sampleRange is a half-open range [start, end) of absolute sample
// indices whose content is gap-filled or otherwise untrustworthy.
type sampleRange struct{ start, end int }

// Status is a point-in-time snapshot of the engine for live display.
type Status struct {
	// LastWindowEnd is the end time (s) of the newest processed window.
	LastWindowEnd float64
	// Windows counts fully processed windows; Skipped counts windows
	// dropped for gaps or rejection.
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
// and GPSSample messages, buffers the admitted rows, and hands each
// window's signature and rows to a core Run, the same window reduction
// and monitors Analyzer.Analyze runs; on an ordered, lossless stream
// the final Report equals the batch one.
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

	// Audio: filtered samples [base, written) per mic (the store may
	// hold more of the block base falls in), plus the invalid
	// (gap-filled / non-finite) ranges still overlapping them.
	lp      *dsp.Biquad4 // nil when the signature has no low-pass
	audio   blockStore
	base    int
	written int
	invalid []sampleRange

	// Admitted telemetry buffers, time-sorted, with high-water marks.
	imu rows[IMUSample]
	gps rows[GPSSample]

	// nextWin is the index of the next unprocessed signature window
	// (start time nextWin*HopSeconds, exactly as batch WindowStarts).
	nextWin int

	// Triage fast path. While active (the analyzer has a tier and the
	// stream has not escalated), ready windows are screened by the cheap
	// tier instead of running the full pipeline, and every full-pipeline
	// input from window triFullWin onward is retained so that any doubt
	// can escalate by replaying the screened backlog — reproducing, bit
	// for bit, the engine state the full pipeline would have reached. Escalation is permanent for the
	// stream; a stream that never escalates finalizes with the cheap
	// path-independent benign report.
	triFullWin   int
	triEscalated bool

	// run is the two-stage RCA the full pipeline feeds window by window.
	run *soundboost.Run

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
		an:   an,
		cfg:  cfg.withDefaults(),
		sig:  sig,
		rate: sampleRate,
		imu:  rows[IMUSample]{wm: math.Inf(-1), at: func(s IMUSample) float64 { return s.Time }},
		gps:  rows[GPSSample]{wm: math.Inf(-1), at: func(s GPSSample) float64 { return s.Time }},
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
	e.run = an.NewRun()
	live, _ := e.run.Live()
	e.status.show(live)
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
// Call it once, after the last Ingest. A stream that screened at least
// one window and never escalated finalizes with the cheap
// path-independent benign report; a zero-window or errored fast-path
// stream escalates first so the report matches the triage-disabled
// engine exactly. Otherwise the run builds the report Analyze builds.
// Finish returns the engine's audio blocks to the shared pool.
func (e *Engine) Finish() (soundboost.Report, error) {
	e.advance(true)
	var report soundboost.Report
	if e.fastpath() && e.err == nil && e.nextWin > e.triFullWin {
		triageFastReports.Inc()
		report = soundboost.FastBenignReport(e.cfg.FlightName, e.an)
	} else {
		e.escalate()
		var err error
		report, err = e.run.Report(e.cfg.FlightName)
		if err != nil && e.err == nil {
			e.err = err
		}
	}
	e.audio.release()
	e.mu.Lock()
	e.status.show(report)
	e.mu.Unlock()
	return report, e.err
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
	}
}

// appendSample low-passes one sample per mic and stores it at the
// write head.
func (e *Engine) appendSample(x [acoustics.NumMics]float64) {
	if e.lp != nil {
		x = e.lp.Process(x)
	}
	e.audio.put(e.written, x)
	e.written++
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
	if !soundboost.AdmitIMU(s.Time, s.Accel, s.Att) {
		telemetryNaN.Inc()
		e.imu.pass(s.Time)
		return
	}
	if e.imu.add(s, e.decided()) {
		e.escalate()
		e.imu.evict()
	}
}

// onGPS ingests one GPS fix like onIMU; the first admitted fix seeds
// both KF variants, as in batch Analyze.
func (e *Engine) onGPS(s GPSSample) {
	telemetryGPS.Inc()
	if !soundboost.AdmitGPS(s.Time, s.Pos, s.Vel) {
		telemetryNaN.Inc()
		e.gps.pass(s.Time)
		return
	}
	if err := e.run.SeedGPS(s.Vel); err != nil && e.err == nil {
		e.err = err
	}
	if e.gps.add(s, e.decided()) {
		e.escalate()
		e.gps.evict()
	}
}

// decided is the start time of the first undecided window: a late row
// before it has no window left to join.
func (e *Engine) decided() float64 { return float64(e.nextWin) * e.sig.HopSeconds }

// rows is one telemetry stream's buffer, time-sorted, with its
// high-water mark (the latest time ingested).
type rows[T any] struct {
	buf []T
	wm  float64
	at  func(T) float64 // the row's time
}

// add files s in time order. A late row whose windows were already
// decided (it is older than decided) is dropped. add reports whether
// the buffer is over its cap: evicting a row the escalation replay
// might need would break replay exactness, so the caller leaves the
// fast path first (which prunes the backlog), then calls evict.
func (r *rows[T]) add(s T, decided float64) (full bool) {
	if t := r.at(s); t >= r.wm {
		r.buf = append(r.buf, s)
		r.wm = t
	} else {
		telemetryReordered.Inc()
		if t < decided {
			return false
		}
		i := len(r.buf)
		for i > 0 && r.at(r.buf[i-1]) > t {
			i--
		}
		r.buf = slices.Insert(r.buf, i, s)
	}
	return len(r.buf) > maxTelemetryBuffer
}

// pass moves the high-water mark to a row that was not admitted: the
// stream has still reached its time, so a window ending before it need
// not wait for the next admitted row — which, for a GPS that never
// gets a finite fix, never comes. A non-finite time says nothing.
func (r *rows[T]) pass(t float64) {
	if t > r.wm && !math.IsInf(t, 1) {
		r.wm = t
	}
}

// evict drops the oldest row while the buffer is still over its cap.
func (r *rows[T]) evict() {
	if len(r.buf) > maxTelemetryBuffer {
		r.buf = r.buf[1:]
		telemetryEvicted.Inc()
	}
}

// between returns the buffered rows with time in [t0, t1) — the same
// half-open interval as dataset.Flight.TelemetryBetween — as a view
// valid until the next add or cut.
func (r *rows[T]) between(t0, t1 float64) []T {
	hi := r.from(t1)
	return r.buf[r.from(t0):hi:hi]
}

// cut discards the rows before t, shifting the rest down in place.
func (r *rows[T]) cut(t float64) {
	if n := r.from(t); n > 0 {
		r.buf = r.buf[:copy(r.buf, r.buf[n:])]
	}
}

// from returns the index of the first row at or after t.
func (r *rows[T]) from(t float64) int {
	return sort.Search(len(r.buf), func(i int) bool { return r.at(r.buf[i]) >= t })
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
			telReady := e.imu.wm >= endT && e.gps.wm >= endT
			if !telReady {
				lag := float64(e.written)/e.rate - endT
				lagGauge.Set(lag)
				if lag <= e.cfg.MaxLagSeconds {
					break // wait for telemetry to catch up
				}
				// Telemetry starved beyond the horizon: decide the window
				// now with the rows that arrived, so the audio store stays
				// bounded. In a time-ordered stream those are all the rows
				// it will ever get, as batch Analyze reads them; a row
				// arriving later misses it. Starvation is doubt — the fast
				// path hands the stream to the full pipeline first.
				e.escalate()
				windowsStarved.Inc()
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
func (e *Engine) fastpath() bool { return e.an.Triage != nil && !e.triEscalated }

// screenWindow runs the triage tier over one ready window; false means
// the window — and with it the stream — must escalate. A pending engine
// error or a dropout overlap is doubt here; the analyzer's screen adds
// its own (missing IMU rows, unusable features).
func (e *Engine) screenWindow(t0 float64, start, total int) bool {
	if e.err != nil || e.overlapsInvalid(start, start+total) {
		return false
	}
	endT := t0 + e.sig.WindowSeconds
	return e.an.ScreenWindow(e.audio.view(0, start, total), e.rate, e.imu.between(t0, endT), e.gps.between(t0, endT)).Benign
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
// through Run.Add. Live processing passes winIdx = e.nextWin; an
// escalation replay passes the historical index.
func (e *Engine) processWindow(winIdx int, t0 float64, start, total int) {
	if e.overlapsInvalid(start, start+total) {
		windowsSkippedGap.Inc()
		e.bumpSkipped()
		return
	}
	span := featureTimer.Start()
	var chans [acoustics.NumMics][]float64
	for m := range chans {
		chans[m] = e.audio.view(m, start, total)
	}
	feat := e.sig.AcousticWindow(chans, e.rate)
	span.Stop()
	endT := t0 + e.sig.WindowSeconds
	if !e.run.Add(winIdx, t0, feat, e.imu.between(t0, endT), e.gps.between(t0, endT)) {
		// Too short a window, or one without IMU rows, which the batch
		// window pass drops too.
		windowsRejected.Inc()
		e.bumpSkipped()
		return
	}
	windowsEmitted.Inc()

	live, running := e.run.Live()
	e.mu.Lock()
	e.status.Windows++
	e.status.LastWindowEnd = endT
	e.status.RunningError = running
	e.status.show(live)
	e.mu.Unlock()
}

// show sets the verdict fields from a (live or final) report.
func (s *Status) show(r soundboost.Report) {
	s.IMUAttacked = r.IMU.Attacked
	s.GPSAttacked = r.GPS.Attacked
	s.ActiveMode = r.GPSMode
	s.PeakError = r.GPS.PeakError
	s.Threshold = r.GPS.Threshold
}

func (e *Engine) bumpSkipped() {
	e.mu.Lock()
	e.status.Skipped++
	e.mu.Unlock()
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
// backlog intact. Audio goes back in whole blocks, so the store keeps
// the rest of the block base falls in. This (plus deciding starved
// windows in advance and the fast-path backlog bound) is what bounds
// engine memory.
func (e *Engine) prune() {
	pruneWin := e.nextWin
	if e.fastpath() && e.triFullWin < pruneWin {
		pruneWin = e.triFullWin
	}
	t0 := float64(pruneWin) * e.sig.HopSeconds
	newBase := int(t0 * e.rate)
	if newBase > e.base {
		e.audio.cut(newBase)
		e.base = newBase
	}
	keep := e.invalid[:0]
	for _, r := range e.invalid {
		if r.end > e.base {
			keep = append(keep, r)
		}
	}
	e.invalid = keep
	e.imu.cut(t0)
	e.gps.cut(t0)
}
