package sweep

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"soundboost/internal/attack"
	soundboost "soundboost/internal/core"
	"soundboost/internal/dataset"
	"soundboost/internal/kalman"
	"soundboost/internal/obs"
	"soundboost/internal/parallel"
	"soundboost/internal/server"
)

// Sweep-wide metrics (gated by obs.Enable, served via -debug-addr).
var (
	trialsRun     = obs.Default.Counter("sweep.trials")
	trialsCorrect = obs.Default.Counter("sweep.trials.correct")
	trialRetries  = obs.Default.Counter("sweep.retries")
)

// Config assembles one sweep. Zero values take the documented defaults
// via normalized(); the exported fields map one-to-one onto the
// `soundboost sweep` flags.
type Config struct {
	// Analyzer is the calibrated analyzer self-hosted cells derive
	// from. Required unless Addr is set.
	Analyzer *soundboost.Analyzer
	// Addr, when set, targets a running server at this base URL
	// (e.g. "http://127.0.0.1:8713") instead of self-hosting. The
	// server owns its analyzer, so the KFModes and Margins axes must be
	// empty — those cells would silently not vary anything.
	Addr string
	// KFModes lists the KF variants whose GPS detector each margin is
	// applied to (default: audio+imu). Self-hosted only.
	KFModes []kalman.Mode
	// Margins lists GPS threshold margins to sweep (default: 1.1, the
	// calibration default). Self-hosted only.
	Margins []float64
	// Triage lists the triage-tier settings to sweep (true = screen
	// windows through the analyzer's KNN tier, false = full pipeline on
	// every window). Default: whatever the analyzer carries — [true]
	// when it has a tier, [false] when it does not, so the default grid
	// shape is unchanged. Self-hosted only; true requires an analyzer
	// with a trained tier.
	Triage []bool
	// ChunkSeconds lists flight seconds per frames request (default: 2).
	ChunkSeconds []float64
	// FrameSeconds lists audio frame lengths (default: 0.05).
	FrameSeconds []float64
	// Attacks lists attack families (default: benign, gps-drift).
	Attacks []string
	// Intensities lists attack magnitude scale factors (default: 1).
	Intensities []float64
	// Reps is the number of flights per attack x intensity cell
	// (default 1; wind cycles calm/breezy/gusty per rep).
	Reps int
	// Seconds is the flight duration (default 20; minimum 12 so the
	// attack window fits after the detector's alignment phase).
	Seconds float64
	// Seed pins the whole sweep: flight synthesis and retry backoff
	// draws all derive from it, so the same seed reproduces the same
	// records byte for byte.
	Seed int64
	// Preset selects the synthesis rates (PresetFast or PresetPaper;
	// default fast). It must match the analyzer's training corpus.
	Preset string
	// Concurrency bounds trials in flight at once (default 4).
	Concurrency int
	// Timings records wall-clock phase timings per trial. Off by
	// default: wall time is nondeterministic and would break the
	// byte-identity contract.
	Timings bool
	// Logf, when set, receives progress lines (sent to stderr by the
	// CLI so stdout stays diffable).
	Logf func(format string, a ...any)
}

// Result is a finished sweep: the per-trial records in grid order plus
// their rollup.
type Result struct {
	Records []Record
	Rollup  Rollup
}

// normalized returns a validated copy with defaults applied.
func (c Config) normalized() (Config, error) {
	if c.Addr == "" {
		if c.Analyzer == nil {
			return c, fmt.Errorf("sweep: self-hosted sweep needs an analyzer (or set Addr)")
		}
		if len(c.KFModes) == 0 {
			c.KFModes = []kalman.Mode{kalman.ModeAudioIMU}
		}
		if len(c.Margins) == 0 {
			c.Margins = []float64{1.1}
		}
		for _, m := range c.KFModes {
			if m != kalman.ModeAudioOnly && m != kalman.ModeAudioIMU {
				return c, fmt.Errorf("sweep: KF variant must be %q or %q, got %q",
					kalman.ModeAudioOnly, kalman.ModeAudioIMU, m)
			}
		}
		for _, m := range c.Margins {
			if m <= 0 {
				return c, fmt.Errorf("sweep: margin must be positive, got %g", m)
			}
		}
		if len(c.Triage) == 0 {
			c.Triage = []bool{c.Analyzer.Triage != nil}
		}
		for _, t := range c.Triage {
			if t && c.Analyzer.Triage == nil {
				return c, fmt.Errorf("sweep: triage=true cells need an analyzer with a trained triage tier (calibrate with -triage)")
			}
		}
	} else if len(c.KFModes) != 0 || len(c.Margins) != 0 || len(c.Triage) != 0 {
		return c, fmt.Errorf("sweep: the kf/margin/triage axes sweep the analyzer's calibration, which an external server owns — drop them or self-host")
	}
	if len(c.ChunkSeconds) == 0 {
		c.ChunkSeconds = []float64{2}
	}
	if len(c.FrameSeconds) == 0 {
		c.FrameSeconds = []float64{0.05}
	}
	if len(c.Attacks) == 0 {
		c.Attacks = []string{benign, attack.FamilyGPSDrift}
	}
	if len(c.Intensities) == 0 {
		c.Intensities = []float64{1}
	}
	for _, v := range c.ChunkSeconds {
		if v <= 0 {
			return c, fmt.Errorf("sweep: chunk seconds must be positive, got %g", v)
		}
	}
	for _, v := range c.FrameSeconds {
		if v <= 0 {
			return c, fmt.Errorf("sweep: frame seconds must be positive, got %g", v)
		}
	}
	for _, a := range c.Attacks {
		if a != benign && !slices.Contains(attack.Families, a) {
			return c, fmt.Errorf("sweep: unknown attack family %q (want %s or one of %v)", a, benign, attack.Families)
		}
	}
	for _, v := range c.Intensities {
		if v <= 0 {
			return c, fmt.Errorf("sweep: intensity must be positive, got %g", v)
		}
	}
	if c.Reps <= 0 {
		c.Reps = 1
	}
	if c.Seconds == 0 {
		c.Seconds = 20
	}
	if c.Seconds < 12 {
		return c, fmt.Errorf("sweep: flights must be at least 12 s (attack window starts after the 5 s alignment phase), got %g", c.Seconds)
	}
	if c.Preset == "" {
		c.Preset = PresetFast
	}
	if c.Preset != PresetFast && c.Preset != PresetPaper {
		return c, fmt.Errorf("sweep: preset must be %q or %q, got %q", PresetFast, PresetPaper, c.Preset)
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 4
	}
	return c, nil
}

func (c *Config) logf(format string, a ...any) {
	if c.Logf != nil {
		c.Logf(format, a...)
	}
}

// host is one live server a subset of trials targets: either the
// external Addr or a self-hosted in-process server bound to a loopback
// port, holding the (kf, margin)-derived analyzer.
type host struct {
	base     string
	shutdown func(context.Context) error
}

// startHost brings up one in-process server over the derived analyzer,
// listening on an ephemeral loopback port — trials reach it through
// the same HTTP plane an external server exposes.
func (c *Config) startHost(analyzer *soundboost.Analyzer) (*host, error) {
	svc, err := server.New(analyzer, server.Config{
		// Concurrency bounds live sessions per host; finished sessions
		// are LRU-evicted on demand, so a small table suffices for any
		// trial count.
		MaxSessions: c.Concurrency + 2,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: svc}
	done := make(chan struct{})
	go func() { defer close(done); _ = httpSrv.Serve(ln) }()
	return &host{
		base: "http://" + ln.Addr().String(),
		shutdown: func(ctx context.Context) error {
			if err := svc.Shutdown(ctx); err != nil {
				return err
			}
			if err := httpSrv.Shutdown(ctx); err != nil {
				return err
			}
			<-done
			return nil
		},
	}, nil
}

// hostCell pairs a host with the (kf, margin, triage) params its trials
// record.
type hostCell struct {
	kf     string
	margin float64
	triage bool
	host   *host
}

// cell is one enumerated trial before it runs.
type cell struct {
	idx    int
	host   int
	flight int
	params Params
}

// Run executes the sweep: synthesize the distinct flights, bring up the
// per-(kf, margin) servers (or point at Addr), fan the trial matrix out
// under the concurrency limiter, and roll the records up. Trials are
// enumerated in a fixed nested order (kf, margin, triage, chunk, frame,
// attack, intensity, rep) and collected by index, so the output order — and
// with a fixed seed, every output byte — is deterministic regardless of
// scheduling.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	c, err := cfg.normalized()
	if err != nil {
		return nil, err
	}

	// Distinct flights, in stable key order; cells that differ only in
	// detector or transport axes share them.
	var keys []flightKey
	for _, a := range c.Attacks {
		for _, in := range c.Intensities {
			for r := 0; r < c.Reps; r++ {
				keys = append(keys, flightKey{attack: a, intensity: in, rep: r})
			}
		}
	}
	c.logf("sweep: synthesizing %d flight(s) (%.0f s, preset %s)", len(keys), c.Seconds, c.Preset)
	flights, err := parallel.MapErr(0, len(keys), func(i int) (*dataset.Flight, error) {
		return c.buildFlight(keys[i], i)
	})
	if err != nil {
		return nil, err
	}

	// Hosts: one per (kf, margin) cell self-hosted, or the external
	// server for the whole grid.
	var hosts []hostCell
	defer func() {
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for _, h := range hosts {
			if h.host.shutdown != nil {
				if err := h.host.shutdown(shutdownCtx); err != nil {
					c.logf("sweep: host shutdown: %v", err)
				}
			}
		}
	}()
	if c.Addr != "" {
		hosts = append(hosts, hostCell{kf: KFServer, margin: 0, host: &host{base: c.Addr}})
	} else {
		for _, kf := range c.KFModes {
			for _, margin := range c.Margins {
				for _, tri := range c.Triage {
					derived, err := c.Analyzer.WithGPSMargin(kf, margin)
					if err != nil {
						return nil, err
					}
					if !tri {
						derived = derived.WithoutTriage()
					}
					h, err := c.startHost(derived)
					if err != nil {
						return nil, err
					}
					hosts = append(hosts, hostCell{kf: string(kf), margin: margin, triage: tri, host: h})
				}
			}
		}
		c.logf("sweep: %d in-process server(s) up", len(hosts))
	}

	// The trial matrix, in its canonical order.
	var cells []cell
	for hi, h := range hosts {
		for _, chunk := range c.ChunkSeconds {
			for _, frame := range c.FrameSeconds {
				for ki, key := range keys {
					cells = append(cells, cell{
						idx:    len(cells),
						host:   hi,
						flight: ki,
						params: Params{
							KF: h.kf, Margin: h.margin, Triage: h.triage,
							ChunkSeconds: chunk, FrameSeconds: frame,
							Attack: key.attack, Intensity: key.intensity, Rep: key.rep,
						},
					})
				}
			}
		}
	}
	c.logf("sweep: %d trial(s) across %d host(s), concurrency %d", len(cells), len(hosts), c.Concurrency)

	// Fan out under the limiter; results land at their trial index so
	// completion order never shows in the output.
	limiter := parallel.NewLimiter("sweep", c.Concurrency)
	records := make([]Record, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for i := range cells {
		if err := limiter.Acquire(ctx); err != nil {
			errs[i] = err
			break
		}
		wg.Add(1)
		go func(cl cell) {
			defer wg.Done()
			defer limiter.Release()
			rec, err := c.runTrial(hosts[cl.host].host.base, cl.idx, cl.params, flights[cl.flight])
			if err != nil {
				errs[cl.idx] = err
				return
			}
			records[cl.idx] = rec
			trialsRun.Inc()
			if rec.Correct {
				trialsCorrect.Inc()
			}
			trialRetries.Add(rec.Retries)
		}(cells[i])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	return &Result{Records: records, Rollup: BuildRollup(records)}, nil
}
