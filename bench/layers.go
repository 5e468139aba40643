package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sort"
	"time"

	"soundboost/api"
	soundboost "soundboost/internal/core"
	"soundboost/internal/dataset"
	"soundboost/internal/dsp"
	"soundboost/internal/fleet"
	"soundboost/internal/journal"
	"soundboost/internal/mavbus"
	"soundboost/internal/obs"
	"soundboost/internal/stream"
)

// Per-layer metrics come from the traced run: spans the benchmark
// records around its own calls, deltas of the program's obs registry,
// and "outside" timings — the benchmark calling a layer's public entry
// point itself on the same input (api.DecodeStrict on a chunk body, a
// journal append into a scratch store, an unpaced stream replay) to
// price a layer the handler span cannot split.

// maxUnattributed is the share of outside Analyze time the obs deltas
// may leave unexplained before an offline traced run fails.
const maxUnattributed = 0.10

// coreTimers maps layer metrics to the obs timers whose time they
// report, per flight-second analysed.
var coreTimers = []struct{ metric, timer string }{
	{"core.analyze_ms", "core.rca.analyze"},
	{"triage.screen_ms", "core.triage.screen"},
	{"core.imu_detect_ms", "core.rca.imu.detect"},
	{"core.gps_detect_ms", "core.rca.gps.detect"},
	{"core.filter_ms", "core.extract.filter"},
	{"core.signature_window_ms", "core.signature.window"},
	{"core.predict_ms", "core.predict"},
	{"dsp.fft_ms", "dsp.fft.transform"},
}

// timerMS and count are registry deltas between two snapshots.
func timerMS(b, a obs.Snapshot, name string) float64 {
	return (a.Timers[name].Sum - b.Timers[name].Sum) * 1e3
}

func count(b, a obs.Snapshot, name string) float64 {
	if t, ok := a.Timers[name]; ok {
		return float64(t.Count - b.Timers[name].Count)
	}
	return float64(a.Counters[name] - b.Counters[name])
}

// coreLayers records the core, triage, dsp and nn rows — identical
// definitions on every workload — for flightSecs analysed between the
// two snapshots. On served workloads they cover the batch uploads the
// server analyses; the stream engine has its own row.
func coreLayers(m *measurement, b, a obs.Snapshot, flightSecs float64) {
	for _, x := range coreTimers {
		m.layer(x.metric, ratio(timerMS(b, a, x.timer), flightSecs), "ms/flight-s")
	}
	m.layer("triage.fastpath_frac", ratio(count(b, a, "core.rca.reports_fastpath"), count(b, a, "core.triage.screen")), "ratio")
	m.layer("core.signature.windows", ratio(count(b, a, "core.signature.window"), flightSecs), "1/flight-s")
	m.layer("dsp.fft.transforms", ratio(count(b, a, "dsp.fft.transform"), flightSecs), "1/flight-s")
	m.layer("nn.infer.calls", ratio(count(b, a, "nn.infer.calls"), flightSecs), "1/flight-s")
	m.layer("dsp.arena_peak_bytes", float64(dsp.ArenaPeakBytes()), "B")
	m.layer("dsp.fft.plans_built", float64(a.Counters["dsp.fft.plans_built"]), "count")
	m.layer("obs.registry_size", float64(len(a.Counters)+len(a.Gauges)+len(a.Histograms)+len(a.Timers)), "count")
}

// offlineLayers records the offline per-layer table from the traced
// passes: outside Analyze spans, the escalated flights' distinct
// signature windows, and registry snapshots around the passes.
func offlineLayers(m *measurement, spans []span, escStarts, flightSecs, headRate, tracedRate float64, b, a obs.Snapshot) {
	coreLayers(m, b, a, flightSecs)
	m.layer("core.signature_passes", ratio(count(b, a, "core.signature.window"), escStarts), "ratio")
	m.layer("obs.overhead_frac", ratio(headRate-tracedRate, headRate), "ratio")
	var outside float64
	for _, s := range spans {
		outside += s.dur() / 1e3
	}
	attributed := timerMS(b, a, "core.triage.screen") + timerMS(b, a, "core.rca.imu.detect") + timerMS(b, a, "core.rca.gps.detect")
	unattributed := (outside - attributed) / outside
	m.layer("trace.unattributed_frac", unattributed, "ratio")
	if unattributed > maxUnattributed {
		m.checkf("trace: %.1f%% of Analyze time is not covered by screen, IMU-detect and GPS-detect (limit %.0f%%)",
			100*unattributed, 100*maxUnattributed)
		m.failed++
	}
}

// windowStarts is len(Extractor.WindowStarts(win)): the distinct
// signature windows one pass over the flight computes.
func windowStarts(f *dataset.Flight, sig soundboost.SignatureConfig) (int, error) {
	ex, err := soundboost.NewExtractor(f.Audio, sig)
	if err != nil {
		return 0, err
	}
	return len(ex.WindowStarts(sig.WindowSeconds)), nil
}

// outsideSamples bounds how many traced chunks are re-decoded and
// re-journaled outside the server.
const outsideSamples = 24

// servedTrace derives the served per-layer table.
type servedTrace struct {
	m        *measurement
	an       *soundboost.Analyzer
	tr       traffic
	plan     *schedule
	gw       *fleet.Gateway
	run      *servedRun
	scratch  string
	traced   []outcome
	before   obs.Snapshot
	after    obs.Snapshot
	spans    []span // handler spans; report adds the client spans
	headAcks []float64
}

func (t *servedTrace) report() error {
	m := t.m
	entry, servingNodes := "server", []string{"server"}
	if t.gw != nil {
		entry, servingNodes = "gateway", []string{"r0", "r1", "r2"}
	}

	// Client spans for the traced chunks, then every span indexed by
	// name. Handler spans nest in the span that caused them: the entry
	// node's in the client span of the same session, and in a fleet the
	// owner's frames span (on the replica Gateway.Placement names) and
	// the follower appends (keyed by gateway session id) in the gateway
	// span that forwarded them.
	var late, tracedAcks []float64
	var chunkBytes, chunkSecs float64
	for _, o := range t.traced {
		if o.err != nil || o.req.Kind != kindFrames {
			continue
		}
		chunkBytes += float64(len(t.tr[t.plan.Sessions[o.req.Session].variant()].chunks[o.req.Chunk]))
		chunkSecs += chunkInterval.Seconds()
		late = append(late, ms(o.late()))
		tracedAcks = append(tracedAcks, ms(o.latency()))
		t.spans = append(t.spans, span{
			ID: len(t.spans) + 1, Name: "client.frames", Session: t.run.sess[o.req.Session].id,
			Start: us(o.sent), End: us(o.done),
		})
	}
	byName := map[string][]*span{}
	for i := range t.spans {
		byName[t.spans[i].Name] = append(byName[t.spans[i].Name], &t.spans[i])
	}
	spansOf := func(route string, nodes []string) []*span {
		var out []*span
		for _, n := range nodes {
			out = append(out, byName[n+"."+route]...)
		}
		return out
	}
	client := byName["client.frames"]
	entryFrames := byName[entry+".frames"]
	serving := spansOf("frames", servingNodes)
	nest(client, entryFrames, func(c, h *span) bool { return c.Session == h.Session })
	if t.gw != nil {
		owner := map[string]string{}
		for _, g := range entryFrames {
			if r, ok := t.gw.Placement(g.Session); ok {
				owner[g.Session] = r
			}
		}
		nest(entryFrames, serving, func(g, o *span) bool { return owner[g.Session] == o.Node })
		nest(entryFrames, spansOf("journal_append", servingNodes), func(g, a *span) bool { return g.Session == a.Session })
	}
	self := selfTimes(t.spans)
	sumDur := func(ss []*span) (sum float64) {
		for _, s := range ss {
			sum += s.dur()
		}
		return sum
	}
	meanMS := func(ss []*span) float64 { return ratio(sumDur(ss)/1e3, float64(len(ss))) }

	var transport float64
	for _, c := range client {
		transport += self[c.ID]
	}
	m.layer("loadgen.send_late_p90_ms", quantileOr0(late, 0.9), "ms")
	m.layer("api.bytes_per_flight_s", ratio(chunkBytes, chunkSecs), "B")
	m.layer("http.transport_ms", ratio(transport/1e3, float64(len(client))), "ms")

	if t.gw != nil {
		appends := spansOf("journal_append", servingNodes)
		var gwSelf, appendBytes float64
		for _, g := range entryFrames {
			gwSelf += self[g.ID]
		}
		for _, a := range appends {
			appendBytes += float64(a.Bytes)
		}
		nGw := float64(len(entryFrames))
		m.layer("fleet.gateway_self_ms", ratio(gwSelf/1e3, nGw), "ms")
		m.layer("fleet.owner_frames_ms", meanMS(serving), "ms")
		m.layer("fleet.replication_append_ms", ratio(sumDur(appends)/1e3, nGw), "ms")
		m.layer("fleet.replication_bytes_per_flight_s", ratio(appendBytes, chunkSecs), "B")
		m.layer("fleet.replication.errors", count(t.before, t.after, "fleet.replication.errors"), "count")
		m.layer("fleet.replication.behind", t.after.Gauges["fleet.replication.behind"], "count")
		perReplica := map[string]float64{}
		for _, s := range t.run.sess {
			if r, ok := t.gw.Placement(s.id); ok {
				perReplica[r]++
			}
		}
		var most, total float64
		for _, n := range perReplica {
			most, total = max(most, n), total+n
		}
		m.layer("fleet.session_skew", ratio(most*float64(len(servingNodes)), total), "ratio")
	}
	framesMS := meanMS(serving)
	m.layer("server.frames_ms", framesMS, "ms")
	coreLayers(m, t.before, t.after, chunkSecs)

	decodeMS, journalMS, err := t.outsideChunks()
	if err != nil {
		return err
	}
	m.layer("api.decode_ms", decodeMS, "ms")
	m.layer("journal.append_ms", journalMS, "ms")
	m.layer("server.frames_unattributed_frac", ratio(framesMS-decodeMS-journalMS, framesMS), "ratio")

	engine, err := t.outsideEngine()
	if err != nil {
		return err
	}
	m.layer("stream.engine_ms_per_flight_s", engine, "ms")
	m.layer("stream.windows.screened", count(t.before, t.after, "stream.windows.screened"), "count")
	m.layer("stream.triage.escalations", count(t.before, t.after, "stream.triage.escalations"), "count")

	m.layer("server.report_wait_ms", meanMS(spansOf("report", servingNodes)), "ms")
	m.layer("server.flights_ms", meanMS(spansOf("flights", servingNodes)), "ms")
	var batch, ttv []float64
	for _, o := range t.traced {
		switch {
		case o.err != nil:
		case o.req.Kind == kindBatch:
			batch = append(batch, ms(o.latency()))
		case o.req.Kind == kindReport:
			ttv = append(ttv, ms(o.latency()))
		}
	}
	m.layer("server.batch_p50_ms", quantileOr0(batch, 0.5), "ms")
	m.layer("verdict_p50_ms", quantileOr0(ttv, 0.5), "ms")
	loadMS, err := t.outsideLoad()
	if err != nil {
		return err
	}
	m.layer("dataset.load_ms", loadMS, "ms")

	var s429, s5xx, retries, shed float64
	for _, s := range t.spans {
		if s.Node == entry {
			switch {
			case s.Status == 429:
				s429++
			case s.Status >= 500:
				s5xx++
			}
		}
	}
	for _, c := range t.run.clients {
		retries += float64(c.hc.Retries())
	}
	for _, s := range t.run.sess {
		shed += float64(s.shed)
	}
	m.layer("server.http_429", s429, "count")
	m.layer("server.http_5xx", s5xx, "count")
	m.layer("httpretry.retries", retries, "count")
	m.layer("server.shed_frames", shed, "count")

	m.layer("latency_p50_ms", quantileOr0(t.headAcks, 0.5), "ms")
	headP50, tracedP50 := median(t.headAcks), median(tracedAcks)
	m.layer("obs.overhead_frac", ratio(tracedP50-headP50, headP50), "ratio")
	residual := sumDur(serving) - float64(len(serving))*(decodeMS+journalMS)*1e3
	m.layer("trace.unattributed_frac", ratio(residual, sumDur(client)), "ratio")
	m.spans = t.spans
	return nil
}

// nest sets each child's parent to the first parent span that contains
// it and satisfies match.
func nest(parents, children []*span, match func(p, c *span) bool) {
	sort.Slice(parents, func(i, j int) bool { return parents[i].Start < parents[j].Start })
	for _, c := range children {
		for _, p := range parents {
			if p.Start > c.Start {
				break
			}
			if c.End <= p.End && match(p, c) {
				c.Parent = p.ID
				break
			}
		}
	}
}

// ratio is a per-layer quotient, 0 when the traced window held nothing
// to divide by (a layer off the workload's path, or a run too short).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantileOr0 is a per-layer percentile, whatever the sample supports;
// 0 when the traced window held no sample (a run too short to land).
func quantileOr0(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, _ := percentile(xs, q)
	return v
}

// outsideChunks decodes and journals up to outsideSamples traced chunk
// bodies, evenly spaced, the way the frames handler does, and returns
// the mean milliseconds of each step per chunk.
func (t *servedTrace) outsideChunks() (decodeMS, journalMS float64, err error) {
	var frames []outcome
	for _, o := range t.traced {
		if o.req.Kind == kindFrames {
			frames = append(frames, o)
		}
	}
	if len(frames) == 0 {
		return 0, 0, fmt.Errorf("bench: traced run sent no chunks")
	}
	store, err := journal.Open(t.scratch)
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(t.scratch)
	n := min(outsideSamples, len(frames))
	for k := 0; k < n; k++ {
		o := frames[k*len(frames)/n]
		body := t.tr[t.plan.Sessions[o.req.Session].variant()].chunks[o.req.Chunk]
		start := time.Now()
		var req api.FramesRequest
		if err := api.DecodeStrict(bytes.NewReader(body), &req); err != nil {
			return 0, 0, err
		}
		decodeMS += ms(time.Since(start))
		sj, err := store.Session(fmt.Sprintf("scratch-%d", k))
		if err != nil {
			return 0, 0, err
		}
		start = time.Now()
		err = sj.AppendChunk(req)
		journalMS += ms(time.Since(start))
		sj.Remove()
		if err != nil {
			return 0, 0, err
		}
	}
	return decodeMS / float64(n), journalMS / float64(n), nil
}

// outsideEngine replays each flight streamed in the traced window
// through a fresh engine, unpaced, and returns engine milliseconds per
// flight-second, weighted by the chunks the window streamed.
func (t *servedTrace) outsideEngine() (float64, error) {
	perSecond := map[variant]float64{}
	var total, secs float64
	for _, o := range t.traced {
		if o.req.Kind != kindFrames || o.err != nil {
			continue
		}
		v := t.plan.Sessions[o.req.Session].variant()
		if _, ok := perSecond[v]; !ok {
			c, err := replayMS(t.an, t.tr[v].flight)
			if err != nil {
				return 0, err
			}
			perSecond[v] = c / t.tr[v].seconds()
		}
		total += perSecond[v] * chunkInterval.Seconds()
		secs += chunkInterval.Seconds()
	}
	if secs == 0 {
		return 0, fmt.Errorf("bench: traced run streamed no chunks")
	}
	return total / secs, nil
}

// replayMS times stream.New + Attach + Run over an unpaced replay.
func replayMS(an *soundboost.Analyzer, f *dataset.Flight) (float64, error) {
	start := time.Now()
	bus := mavbus.NewBus(0)
	eng, err := stream.New(an, f.Audio.SampleRate, stream.WithFlightName(f.Name))
	if err != nil {
		return 0, err
	}
	if err := eng.Attach(bus); err != nil {
		return 0, err
	}
	replayErr := make(chan error, 1)
	go func() {
		replayErr <- stream.Replay(context.Background(), bus, f, stream.ReplayConfig{FrameSeconds: frameSeconds})
		bus.Close()
	}()
	_, err = eng.Run(context.Background())
	if rerr := <-replayErr; rerr != nil {
		return 0, rerr
	}
	return ms(time.Since(start)), err
}

// outsideLoad decodes the .sbf bodies of the traced uploads and returns
// the mean milliseconds per upload.
func (t *servedTrace) outsideLoad() (float64, error) {
	var total, n float64
	for _, o := range t.traced {
		if o.req.Kind != kindBatch {
			continue
		}
		start := time.Now()
		if _, err := dataset.Load(bytes.NewReader(t.tr[t.plan.Sessions[o.req.Session].variant()].sbf)); err != nil {
			return 0, err
		}
		total += ms(time.Since(start))
		n++
	}
	if n == 0 {
		return 0, nil
	}
	return total / n, nil
}
