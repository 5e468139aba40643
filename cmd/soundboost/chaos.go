package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"soundboost/api"
	"soundboost/internal/chaos"
	"soundboost/internal/dataset"
	"soundboost/internal/httpretry"
	"soundboost/internal/leakcheck"
	"soundboost/internal/obs"
	"soundboost/internal/server"
	"soundboost/internal/stream"
)

// runChaos is the deterministic fault-injection soak: it hosts the RCA
// service in-process, then drives one streaming session per chaos
// profile — message drops, duplication, reordering, payload corruption,
// stuck-at sensors, clock skew, mid-flight truncation, an engine-killing
// poison pill, and a fully hostile HTTP transport — all scheduled from
// one seed, and asserts the robustness contract:
//
//   - determinism: the same -seed produces byte-identical stdout (the
//     smoke script runs the soak twice and diffs);
//   - accounting: every injected fault is visible in the obs metrics —
//     per-profile exact reconciliations (injected NaNs vs dropped rows,
//     injected drops vs messages the engine never saw) plus
//     injected-vs-chaos.* counter equality for every kind;
//   - isolation: the poisoned session fails alone; the control session's
//     verdict stays byte-identical to the offline analyzer's;
//   - liveness: no goroutine outlives the soak (hand-rolled stack-diff
//     leak check).
//
// Faulted verdicts either match the clean verdict byte-for-byte
// ("clean-equivalent": the detector absorbed the faults) or are printed
// with the degradation reasons derived from what was injected.
func runChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	var (
		flightPath = fs.String("flight", "", "flight to soak with (.sbf)")
		seed       = fs.Int64("seed", 42, "master seed for every fault schedule")
		sessions   = fs.Int("sessions", 0, "number of chaos sessions (0 = all profiles once)")
		chunkSec   = fs.Float64("chunk", 2, "flight seconds per frames request")
		journalDir = fs.String("journal", "", "exercise the session journal in this directory (empty = off)")
	)
	af := addAnalyzerFlags(fs)
	rt := addRuntimeFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := rt.apply(); err != nil {
		return err
	}
	if *flightPath == "" {
		return fmt.Errorf("-flight is required")
	}
	analyzer, err := af.load()
	if err != nil {
		return err
	}
	flight, err := dataset.LoadFile(*flightPath)
	if err != nil {
		return err
	}
	obs.Enable() // the soak's accounting reads the obs registry

	// The clean verdict every chaos verdict is measured against. Sessions
	// carry per-profile labels, so the flight name is blanked on both
	// sides — the comparison is about the analysis, not the label.
	clean, err := analyzer.Analyze(flight)
	if err != nil {
		return err
	}
	cleanReport := api.ReportFromCore(clean)
	cleanReport.Flight = ""
	cleanWire, err := json.Marshal(cleanReport)
	if err != nil {
		return err
	}

	profiles := chaosProfiles(*seed)
	if *sessions > 0 && *sessions < len(profiles) {
		profiles = profiles[:*sessions]
	}

	baseline := leakcheck.Snapshot()

	// In-process service on a loopback port: the soak exercises the real
	// HTTP plane, not handler calls. Message-plane injectors are handed
	// to sessions by flight label, registered just before each create —
	// sessions are created sequentially, so the mapping is unambiguous.
	injectors := make(map[string]*chaos.Injector)
	svc, err := server.New(analyzer, server.Config{
		MaxSessions: len(profiles) + 1,
		JournalDir:  *journalDir,
		SessionInjector: func(id, flightLabel string) *chaos.Injector {
			return injectors[flightLabel] // nil (no faults) for unknown labels
		},
		Logf: func(format string, a ...any) { fmt.Fprintf(os.Stderr, "serve: "+format+"\n", a...) },
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: svc}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); _ = httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	fmt.Printf("chaos soak: seed %d, %d profile(s), flight %q\n", *seed, len(profiles), flight.Name)
	failures := 0
	for i, p := range profiles {
		label := fmt.Sprintf("chaos-%02d-%s", i, p.name)
		if p.msg != nil {
			// Hand the profile's injector to the session about to be
			// created under this label.
			injectors[label] = p.msg
		}
		res := runChaosProfile(base, flight, p, i, label, *chunkSec, cleanWire)
		for _, line := range res.lines {
			fmt.Println(line)
		}
		if !res.ok {
			failures++
		}
	}

	// Tear the service down and prove nothing leaked.
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("listener: %w", err)
	}
	<-serveDone
	if extra := leakcheck.Wait(baseline, 10*time.Second); len(extra) != 0 {
		fmt.Printf("FAIL goroutine-leak: %d goroutine(s) survived the soak\n", len(extra))
		for _, g := range extra {
			fmt.Fprintln(os.Stderr, g+"\n")
		}
		failures++
	} else {
		fmt.Println("ok goroutine-leak: all goroutines accounted for")
	}

	// Process-wide chaos.* counters must equal the sum of every
	// injector's exact counts — the obs plane lost nothing.
	fmt.Print(reconcileChaosCounters(profiles, injectorsOf(profiles)))
	if failures > 0 {
		return fmt.Errorf("chaos soak: %d check(s) failed", failures)
	}
	fmt.Println("chaos soak: OK")
	return nil
}

// chaosProfile is one session's schedule plus the assertions it earns.
type chaosProfile struct {
	name string
	// msg is the message-plane schedule (nil = clean); built once so the
	// injector's exact counts survive for the final reconciliation.
	msg *chaos.Injector
	// http is the client-transport schedule (nil = clean).
	http *chaos.HTTPConfig
	// expectFailed marks the profile whose session must die (poison) —
	// and whose death must not disturb anyone else.
	expectFailed bool
	// exact names an observed-side counter reconciliation to run, keyed
	// by profile (see runChaosProfile).
	exact string
}

// noSleep keeps the soak wall-clock-free: injected latency is counted,
// not waited for.
func noSleep(time.Duration) {}

// chaosProfiles builds the fixed battery. Every schedule derives its
// seed from the master seed plus a distinct offset, so one -seed pins
// the whole battery.
func chaosProfiles(seed int64) []*chaosProfile {
	inj := func(off int64, cfg chaos.Config) *chaos.Injector {
		cfg.Seed = seed + off
		cfg.Sleep = noSleep
		return chaos.NewInjector(cfg, stream.CorruptPayload)
	}
	return []*chaosProfile{
		{name: "control"},
		{name: "lossy-link", exact: "received", msg: inj(1, chaos.Config{
			PerTopic: map[string]chaos.Rates{
				stream.TopicIMU:   {Drop: 0.05},
				stream.TopicGPS:   {Drop: 0.05},
				stream.TopicAudio: {Drop: 0.02},
			},
		})},
		{name: "dup-reorder", exact: "received", msg: inj(2, chaos.Config{
			PerTopic: map[string]chaos.Rates{
				stream.TopicIMU: {Dup: 0.04, Reorder: 0.04},
				stream.TopicGPS: {Dup: 0.04, Reorder: 0.04},
			},
		})},
		{name: "nan-telemetry", exact: "nan-telemetry", msg: inj(3, chaos.Config{
			PerTopic: map[string]chaos.Rates{
				stream.TopicIMU: {NaN: 0.05},
				stream.TopicGPS: {NaN: 0.05},
			},
		})},
		{name: "nan-audio", exact: "nan-audio", msg: inj(4, chaos.Config{
			PerTopic: map[string]chaos.Rates{stream.TopicAudio: {NaN: 0.1}},
		})},
		{name: "corrupt-audio", msg: inj(5, chaos.Config{
			PerTopic: map[string]chaos.Rates{
				stream.TopicAudio: {Truncate: 0.02, BitFlip: 0.02, Freeze: 0.01},
			},
		})},
		{name: "clock-skew", msg: inj(6, chaos.Config{
			Default:       chaos.Rates{},
			SkewPerSecond: 0.002,
			JitterSeconds: 0.001,
			PerTopic: map[string]chaos.Rates{
				stream.TopicIMU: {}, stream.TopicGPS: {},
			},
		})},
		{name: "mid-flight-cutoff", exact: "received", msg: inj(7, chaos.Config{
			CutoffSeconds: 12,
		})},
		{name: "poison-pill", expectFailed: true, msg: inj(8, chaos.Config{
			PoisonAfter: 500,
		})},
		// Rates are deliberately brutal: the data path is only ~a dozen
		// requests, so mild rates leave whole fault kinds unexercised.
		// The 20-attempt retry budget still converges at these odds.
		{name: "hostile-http", http: &chaos.HTTPConfig{
			Seed:             seed + 9,
			ResetRate:        0.25,
			DropResponseRate: 0.15,
			Error5xxRate:     0.20,
			SlowRate:         0.15,
			LatencyRate:      0.15,
			Latency:          time.Millisecond,
			Sleep:            noSleep,
		}},
	}
}

// injectorsOf collects the non-nil message injectors for reconciliation.
func injectorsOf(profiles []*chaosProfile) []*chaos.Injector {
	var out []*chaos.Injector
	for _, p := range profiles {
		if p.msg != nil {
			out = append(out, p.msg)
		}
	}
	return out
}

// streamDelta snapshots the observed-side stream counters.
type streamDelta struct {
	frames, imu, gps, telemetryNaN, nonFinite int64
	panicked                                  int64
}

func readStreamCounters() streamDelta {
	c := func(name string) int64 { return obs.Default.Counter(name).Value() }
	return streamDelta{
		frames:       c("stream.frames"),
		imu:          c("stream.telemetry.imu"),
		gps:          c("stream.telemetry.gps"),
		telemetryNaN: c("stream.telemetry.nan_dropped"),
		nonFinite:    c("stream.audio.nonfinite_samples"),
		panicked:     c("server.sessions.panicked"),
	}
}

func (a streamDelta) sub(b streamDelta) streamDelta {
	return streamDelta{
		frames:       a.frames - b.frames,
		imu:          a.imu - b.imu,
		gps:          a.gps - b.gps,
		telemetryNaN: a.telemetryNaN - b.telemetryNaN,
		nonFinite:    a.nonFinite - b.nonFinite,
		panicked:     a.panicked - b.panicked,
	}
}

// chaosResult is one profile's outcome, rendered as deterministic lines.
type chaosResult struct {
	ok    bool
	lines []string
}

func (r *chaosResult) failf(format string, a ...any) {
	r.ok = false
	r.lines = append(r.lines, fmt.Sprintf("FAIL "+format, a...))
}

func (r *chaosResult) logf(format string, a ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, a...))
}

// runChaosProfile drives one session through one schedule and checks its
// contract.
func runChaosProfile(base string, flight *dataset.Flight, p *chaosProfile, idx int, label string, chunkSec float64, cleanWire []byte) *chaosResult {
	res := &chaosResult{ok: true}
	before := readStreamCounters()

	hc := http.DefaultClient
	var tr *chaos.Transport
	if p.http != nil {
		tr = chaos.NewTransport(nil, *p.http)
		hc = &http.Client{Transport: tr}
	}
	// Generous retry budget: the hostile-http profile must converge, and
	// determinism cannot depend on how many times it has to try. Sleeps
	// are disabled — backoff is counted by the PRNG, not waited out.
	client := httpretry.New(hc, 20, time.Millisecond, int64(idx)+1)
	client.Sleep = noSleep
	// Status polls bypass the fault schedule: their count depends on
	// engine drain timing, and nondeterministic poll traffic would drag
	// the transport's PRNG — and its injected counts — along with it.
	// Faults hit the data path (create + frames + report), where they
	// prove something.
	poll := httpretry.New(http.DefaultClient, 20, time.Millisecond, int64(idx)+101)
	poll.Sleep = noSleep

	outcome, err := driveChaosSession(client, poll, base, flight, label, chunkSec, p)
	if err != nil {
		res.failf("%s: %v", label, err)
		return res
	}
	after := readStreamCounters()
	d := after.sub(before)
	counts := map[chaos.Kind]int64{}
	if p.msg != nil {
		counts = p.msg.Counts()
	}

	// Render the verdict line: profile, injected fault counts (stable
	// order), outcome.
	faults := ""
	var total int64
	for _, k := range chaos.Kinds {
		if counts[k] > 0 {
			faults += fmt.Sprintf(" %s=%d", k, counts[k])
			total += counts[k]
		}
	}
	if faults == "" {
		faults = " none"
	}
	res.logf("%s: injected%s", label, faults)
	if tr != nil {
		hcounts := tr.Counts()
		line := ""
		for _, k := range chaos.HTTPKinds {
			line += fmt.Sprintf(" %s=%d", k, hcounts[k])
		}
		res.logf("%s: transport%s", label, line)
	}

	switch {
	case p.expectFailed:
		if outcome.state != api.SessionFailed {
			res.failf("%s: expected a failed session, got state %q", label, outcome.state)
		} else {
			res.logf("%s: session failed in isolation (cause: %s)", label, outcome.failCause)
		}
		if d.panicked != 1 {
			res.failf("%s: sessions.panicked delta = %d, want 1", label, d.panicked)
		}
	case outcome.state != api.SessionDone:
		res.failf("%s: session ended %q, want done", label, outcome.state)
	default:
		if string(outcome.report) == string(cleanWire) {
			res.logf("%s: verdict clean-equivalent", label)
		} else if total == 0 && p.http == nil {
			res.failf("%s: verdict diverged with no injected faults:\n  clean: %s\n  chaos: %s",
				label, cleanWire, outcome.report)
		} else if p.http != nil && p.msg == nil {
			// HTTP faults never touch payloads; retries + sequence-numbered
			// idempotency must make the transport chaos invisible.
			res.failf("%s: verdict diverged under HTTP-only faults:\n  clean: %s\n  chaos: %s",
				label, cleanWire, outcome.report)
		} else {
			res.logf("%s: verdict degraded (%s) by %s", label, degradationReasons(counts), outcome.report)
		}
	}

	// Observed-side exact reconciliations.
	switch p.exact {
	case "nan-telemetry":
		if want := counts[chaos.KindCorruptNaN]; d.telemetryNaN != want {
			res.failf("%s: telemetry.nan_dropped delta = %d, want %d (every injected NaN row must be dropped)",
				label, d.telemetryNaN, want)
		} else {
			res.logf("%s: accounting exact: %d injected NaN row(s) == %d dropped", label, want, d.telemetryNaN)
		}
	case "nan-audio":
		// The audio mutator poisons exactly one sample per injected fault.
		if want := counts[chaos.KindCorruptNaN]; d.nonFinite != want {
			res.failf("%s: audio.nonfinite_samples delta = %d, want %d", label, d.nonFinite, want)
		} else {
			res.logf("%s: accounting exact: %d injected NaN sample(s) == %d zeroed", label, want, d.nonFinite)
		}
	case "received":
		offered := outcome.offered
		want := offered - counts[chaos.KindDrop] - counts[chaos.KindCutoff] + counts[chaos.KindDup]
		got := d.frames + d.imu + d.gps
		if got != want {
			res.failf("%s: engine received %d message(s), want %d (offered %d - dropped %d - cutoff %d + dup %d)",
				label, got, want, offered, counts[chaos.KindDrop], counts[chaos.KindCutoff], counts[chaos.KindDup])
		} else {
			res.logf("%s: accounting exact: received %d == offered %d - lost %d + dup %d",
				label, got, offered, counts[chaos.KindDrop]+counts[chaos.KindCutoff], counts[chaos.KindDup])
		}
	}
	return res
}

// sessionOutcome is what one driven session ended as.
type sessionOutcome struct {
	state     string
	failCause string
	report    []byte // canonical JSON of the api.Report (done only)
	offered   int64  // messages offered to the injector (pre-fault)
}

// driveChaosSession streams the flight through one chaos session and
// waits for a terminal state. client (possibly riding a chaos transport)
// carries the data path; poll is a clean client for status waiting.
func driveChaosSession(client, poll *httpretry.Client, base string, flight *dataset.Flight, label string, chunkSec float64, p *chaosProfile) (sessionOutcome, error) {
	var out sessionOutcome
	var created api.SessionResponse
	body, err := json.Marshal(api.SessionRequest{
		Flight:       label,
		SampleRateHz: flight.Audio.SampleRate,
	})
	if err != nil {
		return out, err
	}
	if err := client.Do("POST", base+"/v1/sessions", body, &created); err != nil {
		return out, err
	}
	sessURL := base + "/v1/sessions/" + created.ID

	reqs, err := api.ChunkFlight(flight, 0.05, chunkSec)
	if err != nil {
		return out, err
	}
	for i := range reqs {
		out.offered += int64(len(reqs[i].Audio) + len(reqs[i].IMU) + len(reqs[i].GPS))
	}
	for i, r := range reqs {
		raw, err := json.Marshal(r)
		if err != nil {
			return out, err
		}
		var resp api.FramesResponse
		if err := client.Do("POST", sessURL+"/frames", raw, &resp); err != nil {
			if p.expectFailed {
				break // the poisoned engine died under us — expected
			}
			return out, fmt.Errorf("frames %d/%d: %w", i+1, len(reqs), err)
		}
	}

	// Wait for the terminal state (done or failed); polls are not
	// printed, so their count cannot break output determinism.
	var status api.SessionStatus
	deadline := time.Now().Add(60 * time.Second)
	for {
		if err := poll.Do("GET", sessURL+"/status", nil, &status); err != nil {
			return out, err
		}
		if status.State == api.SessionDone || status.State == api.SessionFailed {
			break
		}
		if time.Now().After(deadline) {
			return out, fmt.Errorf("session %s stuck in state %q", created.ID, status.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	out.state = status.State
	out.failCause = status.FailCause
	if status.State == api.SessionDone {
		var report api.Report
		if err := client.Do("GET", sessURL+"/report", nil, &report); err != nil {
			return out, err
		}
		report.Flight = "" // per-profile label; the comparison is on the analysis
		if out.report, err = json.Marshal(report); err != nil {
			return out, err
		}
	}
	return out, nil
}

// degradationReasons names the injected fault families, in stable order
// — the explicit reason a verdict is allowed to differ from clean.
func degradationReasons(counts map[chaos.Kind]int64) string {
	names := map[chaos.Kind]string{
		chaos.KindDrop:       "messages dropped",
		chaos.KindDup:        "messages duplicated",
		chaos.KindReorder:    "messages reordered",
		chaos.KindCorruptNaN: "payloads NaN-poisoned",
		chaos.KindTruncate:   "frames truncated",
		chaos.KindBitFlip:    "bits flipped",
		chaos.KindFreeze:     "sensors frozen",
		chaos.KindRetime:     "clocks skewed",
		chaos.KindLatency:    "bursty latency",
		chaos.KindCutoff:     "stream cut mid-flight",
		chaos.KindPoison:     "engine poisoned",
	}
	reason := ""
	for _, k := range chaos.Kinds {
		if counts[k] > 0 {
			if reason != "" {
				reason += ", "
			}
			reason += names[k]
		}
	}
	if reason == "" {
		reason = "unknown"
	}
	return reason
}

// reconcileChaosCounters checks that the process-wide chaos.injected.*
// counters equal the sum of every injector's exact per-kind counts (plus
// the HTTP transports'): no injected fault escaped the metrics.
func reconcileChaosCounters(profiles []*chaosProfile, injectors []*chaos.Injector) string {
	want := map[chaos.Kind]int64{}
	for _, in := range injectors {
		for k, v := range in.Counts() {
			want[k] += v
		}
	}
	// HTTP transports are owned by runChaosProfile's clients; their
	// injected counts are already process-wide in obs, so reconcile only
	// the message plane exactly and report the HTTP counters as-is.
	out := ""
	ok := true
	for _, k := range chaos.Kinds {
		got := obs.Default.Counter("chaos.injected." + string(k)).Value()
		if got != want[k] {
			out += fmt.Sprintf("FAIL chaos.injected.%s = %d, want %d\n", k, got, want[k])
			ok = false
		}
	}
	httpTotal := int64(0)
	for _, k := range chaos.HTTPKinds {
		v := obs.Default.Counter("chaos.injected." + string(k)).Value()
		if v > 0 {
			out += fmt.Sprintf("chaos.injected.%s = %d\n", k, v)
			httpTotal += v
		}
	}
	hostile := false
	for _, p := range profiles {
		if p.http != nil {
			hostile = true
		}
	}
	if hostile && httpTotal == 0 {
		out += "FAIL hostile-http profile ran but no HTTP faults were injected\n"
		ok = false
	}
	if ok {
		out += "ok chaos accounting: every injected fault is in the obs registry\n"
	}
	return out
}
