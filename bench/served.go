package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"soundboost/api"
	soundboost "soundboost/internal/core"
	"soundboost/internal/fleet"
	"soundboost/internal/httpretry"
	"soundboost/internal/obs"
	"soundboost/internal/server"
)

// Served workloads: the pool flights streamed by N drones, open loop,
// into real loopback HTTP listeners — one journaled server.New, or a
// fleet.New gateway over three journaled replicas with Replication 2.

// Offered load, frozen by calibration (see README.md): N drones stream
// N flight-seconds per second, a quarter to a third of what two
// closed-loop senders sustain on the 2-CPU reference host, whose speed
// drifts. At half, queueing amplified those swings until chunk-ack
// latency varied by a third from run to run.
const (
	serveDrones = 11
	fleetDrones = 4
)

// warmup is discarded at the start of a served run, while every drone
// opens its first session.
const warmup = 2 * time.Second

// node is one HTTP listener the benchmark started.
type node struct {
	name string
	base string
	hs   *http.Server
	done chan struct{}
	srv  *server.Server // nil for the gateway
}

func listen(name string, h http.Handler, rec *recorder) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("bench: listen: %w", err)
	}
	n := &node{name: name, base: "http://" + ln.Addr().String(), hs: &http.Server{Handler: rec.wrap(name, h)}, done: make(chan struct{})}
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return n, nil
}

// stack is the system under test: its replicas and the node clients
// talk to (the server itself, or the gateway).
type stack struct {
	entry    *node
	replicas []*node
	gw       *fleet.Gateway
	closed   bool
}

func startStack(an *soundboost.Analyzer, fleetMode bool, dir string, rec *recorder) (*stack, error) {
	st := &stack{}
	names := []string{"server"}
	if fleetMode {
		names = []string{"r0", "r1", "r2"}
	}
	var reps []fleet.Replica
	for _, name := range names {
		jdir := filepath.Join(dir, name)
		srv, err := server.New(an, server.Config{JournalDir: jdir})
		if err != nil {
			st.close()
			return nil, err
		}
		n, err := listen(name, srv, rec)
		if err != nil {
			_ = srv.Shutdown(context.Background())
			st.close()
			return nil, err
		}
		n.srv = srv
		st.replicas = append(st.replicas, n)
		reps = append(reps, fleet.Replica{Name: name, BaseURL: n.base, JournalDir: jdir})
	}
	st.entry = st.replicas[0]
	if fleetMode {
		gw, err := fleet.New(fleet.Config{Replicas: reps, Replication: 2, Seed: 1})
		if err != nil {
			st.close()
			return nil, err
		}
		st.gw = gw
		if st.entry, err = listen("gateway", gw, rec); err != nil {
			st.close()
			return nil, err
		}
	}
	if err := waitHealthy(st.entry.base); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// waitHealthy polls GET /v1/healthz until the node reports "ok".
func waitHealthy(base string) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var h api.Health
		resp, err := hc.Get(base + "/" + api.Version + "/healthz")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err == nil && h.Status == "ok" {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: %s never became healthy (status %q, err %v)", base, h.Status, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// close drains replicas first (closing every open session, so the
// gateway's own drain finds them terminal), then the gateway, then the
// listeners.
func (st *stack) close() {
	if st.closed {
		return
	}
	st.closed = true
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for _, n := range st.replicas {
		_ = n.srv.Shutdown(ctx) // a straggler engine is abandoned at the deadline
	}
	if st.gw != nil {
		_ = st.gw.Shutdown(ctx)
	}
	nodes := st.replicas
	if st.gw != nil && st.entry != nil {
		nodes = append(nodes, st.entry)
	}
	for _, n := range nodes {
		_ = n.hs.Close()
		<-n.done
	}
}

// planTraffic loads the pool, lays out the schedule and encodes the
// traffic it flies, all before the clock starts.
func planTraffic(rc *runConfig, an *soundboost.Analyzer, drones int, horizon time.Duration) (*schedule, traffic, error) {
	pool, err := rc.corpus.loadPool()
	if err != nil {
		return nil, nil, err
	}
	reqs, err := chunkPool(pool)
	if err != nil {
		return nil, nil, err
	}
	counts := make([]int, len(reqs))
	for i, r := range reqs {
		counts[i] = len(r)
	}
	plan := makeSchedule(rc.seed, drones, counts, poolBenign, horizon)
	tr, err := buildTraffic(pool, reqs, &plan, an)
	return &plan, tr, err
}

// session is the client's view of one scheduled session; only its
// sender touches it.
type session struct {
	id     string
	broken bool // create or a chunk failed: the rest is not sent
	shed   int
}

// errShed marks a frames ack reporting dropped bus messages.
var errShed = errors.New("bench: server shed frames")

// client sends one lane's requests on its own keep-alive connection.
type client struct {
	hc   *httpretry.Client
	base string
	tr   traffic
	plan *schedule
	sess []session
}

func newClient(base string, tr traffic, plan *schedule, seed int64, sess []session) *client {
	transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{
		hc:   httpretry.New(&http.Client{Transport: transport}, 3, 100*time.Millisecond, seed),
		base: base + "/" + api.Version, tr: tr, plan: plan, sess: sess,
	}
}

func (c *client) skip(r request) bool {
	return r.Kind != kindCreate && r.Kind != kindBatch && c.sess[r.Session].broken
}

func (c *client) do(r request) error {
	t := c.tr[c.plan.Sessions[r.Session].variant()]
	s := &c.sess[r.Session]
	switch r.Kind {
	case kindCreate:
		var resp api.SessionResponse
		if err := c.hc.Do("POST", c.base+"/sessions", t.open, &resp); err != nil {
			s.broken = true
			return err
		}
		s.id = resp.ID
	case kindFrames:
		var resp api.FramesResponse
		if err := c.hc.Do("POST", c.base+"/sessions/"+s.id+"/frames", t.chunks[r.Chunk], &resp); err != nil {
			s.broken = true
			return err
		}
		s.shed = resp.Shed
		if resp.Shed > 0 {
			return errShed
		}
	case kindReport:
		var rep api.Report
		if err := c.hc.Do("GET", c.base+"/sessions/"+s.id+"/report", nil, &rep); err != nil {
			return err
		}
		if rep != t.ref {
			return fmt.Errorf("bench: session %s report %+v, want %+v", s.id, rep, t.ref)
		}
	case kindBatch:
		var resp api.FlightResponse
		if err := c.hc.Do("POST", c.base+"/flights", t.sbf, &resp); err != nil {
			return err
		}
		if resp.Report != t.ref {
			return fmt.Errorf("bench: batch report %+v, want %+v", resp.Report, t.ref)
		}
	}
	return nil
}

// servedRun is one run's raw record.
type servedRun struct {
	outs    []outcome
	clients []*client
	sess    []session
}

// drivePlan runs the schedule against base — the two senders and the
// uploader, each on its own connection — and returns every outcome.
// Unpaced, it sends session traffic back to back and no uploads.
func drivePlan(t0 time.Time, base string, tr traffic, plan *schedule, seed int64, paced bool, stop time.Duration) *servedRun {
	run := &servedRun{sess: make([]session, len(plan.Sessions))}
	lanes := plan.Senders[:]
	if paced {
		lanes = append(lanes, plan.Uploads)
	}
	outs := make([][]outcome, len(lanes))
	var wg sync.WaitGroup
	for k, reqs := range lanes {
		c := newClient(base, tr, plan, seed+int64(k), run.sess)
		run.clients = append(run.clients, c)
		wg.Add(1)
		go func(k int, reqs []request) {
			defer wg.Done()
			outs[k] = drive(t0, reqs, paced, stop, c.do, c.skip)
		}(k, reqs)
	}
	wg.Wait()
	for _, o := range outs {
		run.outs = append(run.outs, o...)
	}
	return run
}

func runServed(rc *runConfig, fleetMode bool) (*measurement, error) {
	m := newMeasurement()
	var st *stack
	var an *soundboost.Analyzer
	setup := 0
	err := m.timeSetups(func() (func(), error) {
		setup++
		a, err := buildAnalyzer(rc.corpus)
		if err != nil {
			return nil, err
		}
		s, err := startStack(a, fleetMode, filepath.Join(rc.tmp, fmt.Sprintf("setup%d", setup)), rc.rec)
		an, st = a, s
		return func() { s.close() }, err
	})
	if err != nil {
		return nil, err
	}
	defer st.close()
	rc.corpus.releaseSetup()
	drones := serveDrones
	if fleetMode {
		drones = fleetDrones
	}
	horizon := warmup + rc.seconds
	plan, tr, err := planTraffic(rc, an, drones, horizon)
	if err != nil {
		return nil, err
	}
	rc.fingerprintf("served drones=%d horizon=%s %+v", drones, horizon, *plan)

	headEnd := horizon
	if rc.trace {
		headEnd = warmup + rc.seconds/2
	}
	var before obs.Snapshot
	var mem *memSampler
	obs.Disable()
	t0 := time.Now()
	rc.rec.t0 = t0
	waits := []func(){at(t0, warmup, func() { mem = startMemSampler() })}
	if rc.trace {
		waits = append(waits, at(t0, headEnd, func() {
			before = obs.Default.Snapshot()
			obs.Enable()
			rc.rec.on.Store(true)
		}))
	}
	run := drivePlan(t0, st.entry.base, tr, plan, rc.seed, true, horizon)
	for _, wait := range waits {
		wait()
	}
	rc.rec.on.Store(false)
	obs.Disable()
	after := obs.Default.Snapshot()

	head := window(run.outs, warmup, headEnd)
	m.tally(run.outs)
	// Achieved rate: flight-seconds acknowledged for chunks due in the
	// window, over the wall time from the window's start to the last of
	// those acks. A server that falls behind stretches the denominator.
	var acked time.Duration
	last := warmup
	var acks []float64
	for _, o := range head {
		if o.err == nil && o.req.Kind == kindFrames {
			acked += chunkInterval
			last = max(last, o.done)
			acks = append(acks, ms(o.latency()))
		}
	}
	rate := acked.Seconds() / (last - warmup).Seconds()
	mem.stop(m, acked.Seconds())
	span := (headEnd - warmup).Seconds()
	offered := float64(countDue(*plan, kindFrames, warmup, headEnd)) * chunkInterval.Seconds() / span
	if rate < 0.98*offered {
		m.checkf("achieved %.3f flight-s/s < 0.98 × offered %.3f: the backlog grows", rate, offered)
	}

	if !rc.trace {
		m.e2e("flight_s_per_s", rate, "flight-s/s")
		m.quantile("latency_p80_ms", acks, 0.8)
		return m, nil
	}

	st.close() // quiesce before the outside measurements below
	t := &servedTrace{
		m: m, an: an, tr: tr, plan: plan, gw: st.gw, scratch: filepath.Join(rc.tmp, "scratch"),
		traced: window(run.outs, headEnd, horizon), before: before, after: after,
		spans: rc.rec.snapshot(), headAcks: acks, run: run,
	}
	return m, t.report()
}

// window returns the outcomes due in [from, to).
func window(outs []outcome, from, to time.Duration) []outcome {
	var w []outcome
	for _, o := range outs {
		if o.req.Due >= from && o.req.Due < to {
			w = append(w, o)
		}
	}
	return w
}

func countDue(plan schedule, kind reqKind, from, to time.Duration) int {
	n := 0
	for _, reqs := range plan.Senders {
		for _, r := range reqs {
			if r.Kind == kind && r.Due >= from && r.Due < to {
				n++
			}
		}
	}
	return n
}

// runCapacity streams pool flights closed loop — two drones, one per
// sender, each sending its next request as soon as the last returns,
// without uploads — and prints the flight-seconds acknowledged per
// second. Offered rates are calibrated to about half of it.
func runCapacity(rc *runConfig, fleetMode bool, w io.Writer) error {
	an, err := buildAnalyzer(rc.corpus)
	if err != nil {
		return err
	}
	st, err := startStack(an, fleetMode, filepath.Join(rc.tmp, "capacity"), rc.rec)
	if err != nil {
		return err
	}
	defer st.close()
	rc.corpus.releaseSetup()
	plan, tr, err := planTraffic(rc, an, senders, 100*rc.seconds)
	if err != nil {
		return err
	}
	t0 := time.Now()
	run := drivePlan(t0, st.entry.base, tr, plan, rc.seed, false, rc.seconds)
	wall := time.Since(t0).Seconds()
	acked, failed := 0.0, 0
	for _, o := range run.outs {
		if o.err != nil {
			failed++
		} else if o.req.Kind == kindFrames {
			acked += chunkInterval.Seconds()
		}
	}
	fmt.Fprintf(w, "closed-loop capacity: %.3f flight-s/s over %.1f s (%d requests, %d failed)\n",
		acked/wall, wall, len(run.outs), failed)
	return nil
}
