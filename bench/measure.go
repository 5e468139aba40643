package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are printed by every -trace 0 run; see README.md for
// what each means on each workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"flight_s_per_s", "flight-s/s"},
	{"latency_p80_ms", "ms"},
	{"heap_peak_mb", "MB"},
	{"alloc_mb_per_flight_s", "MB"},
}

// perLayerMetrics are printed by every -trace 1 run. A row whose layer
// is not on a workload's path reads 0 there.
var perLayerMetrics = []metricDef{
	{"latency_p50_ms", "ms"},
	{"verdict_p50_ms", "ms"},
	{"core.analyze_ms", "ms/flight-s"},
	{"triage.screen_ms", "ms/flight-s"},
	{"triage.fastpath_frac", "ratio"},
	{"core.imu_detect_ms", "ms/flight-s"},
	{"core.gps_detect_ms", "ms/flight-s"},
	{"core.filter_ms", "ms/flight-s"},
	{"core.signature_window_ms", "ms/flight-s"},
	{"core.predict_ms", "ms/flight-s"},
	{"dsp.fft_ms", "ms/flight-s"},
	{"core.signature.windows", "1/flight-s"},
	{"dsp.fft.transforms", "1/flight-s"},
	{"nn.infer.calls", "1/flight-s"},
	{"core.signature_passes", "ratio"},
	{"dsp.arena_peak_bytes", "B"},
	{"dsp.fft.plans_built", "count"},
	{"loadgen.send_late_p90_ms", "ms"},
	{"api.bytes_per_flight_s", "B"},
	{"http.transport_ms", "ms"},
	{"server.frames_ms", "ms"},
	{"api.decode_ms", "ms"},
	{"journal.append_ms", "ms"},
	{"server.frames_unattributed_frac", "ratio"},
	{"stream.engine_ms_per_flight_s", "ms"},
	{"stream.windows.screened", "count"},
	{"stream.triage.escalations", "count"},
	{"server.report_wait_ms", "ms"},
	{"server.flights_ms", "ms"},
	{"server.batch_p50_ms", "ms"},
	{"dataset.load_ms", "ms"},
	{"server.http_429", "count"},
	{"server.http_5xx", "count"},
	{"httpretry.retries", "count"},
	{"server.shed_frames", "count"},
	{"obs.registry_size", "count"},
	{"fleet.gateway_self_ms", "ms"},
	{"fleet.owner_frames_ms", "ms"},
	{"fleet.replication_append_ms", "ms"},
	{"fleet.replication_bytes_per_flight_s", "B"},
	{"fleet.replication.errors", "count"},
	{"fleet.replication.behind", "count"},
	{"fleet.session_skew", "ratio"},
	{"obs.overhead_frac", "ratio"},
	{"trace.unattributed_frac", "ratio"},
}

// fillLayers zero-fills the rows the workload does not exercise.
func fillLayers(layers map[string]metric) {
	for _, d := range perLayerMetrics {
		if _, ok := layers[d.name]; !ok {
			layers[d.name] = metric{0, d.unit}
		}
	}
}

// setupRuns is how many times a run builds its analyzer (and servers);
// setup_s is the median.
const setupRuns = 3

// measurement collects one run's metrics, operation counts and
// validity checks.
type measurement struct {
	setup     []float64
	endToEnd  map[string]metric
	layers    map[string]metric
	attempted int
	failed    int
	// notes describe failed operations; checks are run-validity
	// problems (an unsupported percentile, a growing backlog, a trace
	// that does not reconcile).
	notes  []string
	checks []string
	// spans are the traced run's spans, written beside the result.
	spans []span
}

func newMeasurement() *measurement {
	return &measurement{endToEnd: map[string]metric{}, layers: map[string]metric{}}
}

func (m *measurement) e2e(name string, v float64, unit string) {
	m.endToEnd[name] = metric{v, unit}
}

func (m *measurement) layer(name string, v float64, unit string) {
	m.layers[name] = metric{v, unit}
}

// quantile records the q-quantile of xs in ms, flagging the run when
// the sample does not support it.
func (m *measurement) quantile(name string, xs []float64, q float64) {
	v, ok := percentile(xs, q)
	if !ok {
		m.checkf("%s: %d samples do not support p%g", name, len(xs), 100*q)
	}
	m.e2e(name, v, "ms")
}

// tally counts every sent request as an attempted operation and each
// one that returned an error — a non-2xx answer after retries, a shed
// frame, a report that differs from the reference — as failed.
func (m *measurement) tally(outs []outcome) {
	for _, o := range outs {
		m.attempted++
		if o.err != nil {
			m.failed++
			m.notef("%s session %d due %s: %v", o.req.Kind, o.req.Session, o.req.Due, o.err)
		}
	}
}

func (m *measurement) notef(format string, a ...any) {
	const keep = 20
	if len(m.notes) < keep {
		m.notes = append(m.notes, fmt.Sprintf(format, a...))
	}
}

func (m *measurement) checkf(format string, a ...any) {
	m.checks = append(m.checks, fmt.Sprintf(format, a...))
}

// timeSetups runs build setupRuns times, each after a collection so
// earlier garbage is not charged to it, tearing down every build but
// the last, and records the median as setup_s.
func (m *measurement) timeSetups(build func() (teardown func(), err error)) error {
	for i := 0; i < setupRuns; i++ {
		runtime.GC()
		start := time.Now()
		teardown, err := build()
		d := time.Since(start)
		if err != nil {
			return err
		}
		m.setup = append(m.setup, d.Seconds())
		if i < setupRuns-1 {
			teardown()
		}
	}
	m.e2e("setup_s", median(m.setup), "s")
	return nil
}

// memSampler tracks the peak live heap — the bytes the collector found
// reachable at the end of a cycle, read every 100 ms — and the bytes
// allocated while it runs. The live heap, unlike HeapInuse, does not
// swing with where in its cycle the collector happens to be sampled.
type memSampler struct {
	stopc, done chan struct{}
	alloc0      uint64
	peak        uint64
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startMemSampler() *memSampler {
	s := &memSampler{stopc: make(chan struct{}), done: make(chan struct{}), peak: liveHeap()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.alloc0 = ms.TotalAlloc
	go func() {
		defer close(s.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-t.C:
				s.peak = max(s.peak, liveHeap())
			}
		}
	}()
	return s
}

// stop ends sampling and records heap_peak_mb and
// alloc_mb_per_flight_s for the flight-seconds analysed meanwhile.
func (s *memSampler) stop(m *measurement, flightSecs float64) {
	close(s.stopc)
	<-s.done
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.e2e("heap_peak_mb", float64(max(s.peak, liveHeap()))/1e6, "MB")
	m.e2e("alloc_mb_per_flight_s", float64(ms.TotalAlloc-s.alloc0)/1e6/flightSecs, "MB")
}

// at runs fn once t0+d is reached, on its own goroutine. The returned
// func cancels fn if it has not started and waits for it if it has.
func at(t0 time.Time, d time.Duration, fn func()) (wait func()) {
	cancel, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		timer := time.NewTimer(time.Until(t0.Add(d)))
		defer timer.Stop()
		select {
		case <-timer.C:
			fn()
		case <-cancel:
		}
	}()
	return func() {
		close(cancel)
		<-done
	}
}
