package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"soundboost/api"
	"soundboost/internal/chaos"
	"soundboost/internal/obs"
	"soundboost/internal/server"
	"soundboost/internal/testfix"
)

// withObs turns metric recording on for one test and restores the
// prior state afterwards — the fleet.* counters asserted below are
// no-ops while obs is disabled.
func withObs(t *testing.T) {
	t.Helper()
	prev := obs.Enabled()
	obs.Enable()
	t.Cleanup(func() {
		if !prev {
			obs.Disable()
		}
	})
}

// singleNodeGolden computes the byte-identity oracle for a flight: the
// report a plain single-node server produces for the same chunking.
func singleNodeGolden(t *testing.T, nBatches int, flightIdx int) []byte {
	t.Helper()
	fx := testfix.Get(t)
	single, err := server.New(fx.Analyzer, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		single.Shutdown(ctx)
	})
	return reportBytes(t, single, fx.Calib[flightIdx], nBatches)
}

// abandon simulates the gateway process dying: background loops stop
// (the lease is never renewed again) but no session is drained — the
// shape a standby takes over from. The already-cancelled context makes
// Shutdown bail out of the drain immediately.
func abandon(t *testing.T, g *Gateway) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := g.Shutdown(ctx); err == nil {
		t.Fatal("abandoning drain with open sessions: want context error, got nil")
	}
}

// TestFleetFollowerCopyFailover is the ISSUE's hardest failure mode:
// SIGKILL the owning replica AND destroy its journal directory
// mid-flight. The live export and the disk fallback are both gone, so
// the gateway must rebuild the session from a follower's replicated
// journal copy — and the verdict must still be byte-identical to a
// single-node run.
func TestFleetFollowerCopyFailover(t *testing.T) {
	withObs(t)
	fx := testfix.Get(t)
	flight := fx.Calib[0]
	want := singleNodeGolden(t, 6, 0)

	// Replication 2 (the default): owner plus one follower copy. The
	// hour-long probe interval forces the lazy path — the failing frames
	// request itself must drive the follower-backed migration.
	g, reps := startFleet(t, 3, Config{ProbeInterval: time.Hour, Retries: 1})

	reqs, err := testfix.Frames(flight, 6)
	if err != nil {
		t.Fatal(err)
	}
	base, gwID := openVia(t, g, flight)
	k := len(reqs) / 2
	for _, r := range reqs[:k] {
		decode[api.FramesResponse](t, hdo(t, g, "POST", base+"/frames", r), http.StatusOK)
	}

	owner, ok := g.Placement(gwID)
	if !ok {
		t.Fatalf("no placement for %s", gwID)
	}
	fromFollowerBefore := failoverFromFollower.Value()
	faultPlane := chaos.NewFleet()
	for _, r := range reps {
		if r.name == owner {
			faultPlane.Kill(r.name, r.kill)
			if err := faultPlane.Wipe(r.name, r.journalDir); err != nil {
				t.Fatalf("wipe journal dir: %v", err)
			}
		}
	}
	if faultPlane.Counts()[chaos.KindReplicaKill] != 1 || faultPlane.Counts()[chaos.KindJournalWipe] != 1 {
		t.Fatalf("faults not recorded: %v", faultPlane.Counts())
	}

	// The client resends its last unacked chunk: transport failure, live
	// export dead, journal dir empty — the follower copy carries the
	// acknowledged prefix, so the resend comes back Duplicate.
	resent := decode[api.FramesResponse](t, hdo(t, g, "POST", base+"/frames", reqs[k-1]), http.StatusOK)
	if !resent.Duplicate {
		t.Fatalf("resend after kill+wipe: %+v, want Duplicate (acknowledged prefix lost)", resent)
	}
	if after, _ := g.Placement(gwID); after == owner {
		t.Fatalf("session still placed on killed replica %s", owner)
	}
	if got := failoverFromFollower.Value(); got != fromFollowerBefore+1 {
		t.Errorf("fleet.failover.from_follower = %d, want %d (journal must have come from a follower copy)",
			got, fromFollowerBefore+1)
	}

	for _, r := range reqs[k:] {
		decode[api.FramesResponse](t, hdo(t, g, "POST", base+"/frames", r), http.StatusOK)
	}
	w := hdo(t, g, "GET", base+"/report", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("report after follower-copy failover: %d: %s", w.Code, w.Body.String())
	}
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Errorf("post-failover report differs from unsharded run:\nsingle: %s\nfleet:  %s", want, w.Body.Bytes())
	}
}

// TestFleetRejoinRebalance partitions a replica, lets its sessions
// evacuate, heals it, and requires the rejoin drain to move back ONLY
// the sessions whose ring-home is the recovered replica — everything
// else stays put — with no verdict flipping anywhere.
func TestFleetRejoinRebalance(t *testing.T) {
	withObs(t)
	fx := testfix.Get(t)
	flight := fx.Calib[0]
	want := singleNodeGolden(t, 4, 0)

	faultPlane := chaos.NewFleet()
	g, reps := startFleet(t, 3, Config{
		ProbeInterval: 15 * time.Millisecond,
		Retries:       1,
		Transport:     faultPlane.Transport(nil),
	})
	reqs, err := testfix.Frames(flight, 4)
	if err != nil {
		t.Fatal(err)
	}

	type sess struct {
		base, id, home, placed string
	}
	var sessions []sess
	for i := 0; i < 8; i++ {
		base, id := openVia(t, g, flight)
		for _, r := range reqs[:2] {
			decode[api.FramesResponse](t, hdo(t, g, "POST", base+"/frames", r), http.StatusOK)
		}
		c := g.candidates(id)
		if len(c) == 0 {
			t.Fatalf("no ring home for %s", id)
		}
		home := c[0]
		placed, _ := g.Placement(id)
		if placed != home {
			t.Fatalf("session %s placed on %s, home %s: all replicas healthy, placement should be home", id, placed, home)
		}
		sessions = append(sessions, sess{base: base, id: id, home: home, placed: placed})
	}

	// Partition the first session's home replica — the victim.
	victim := sessions[0].home
	var victimRep *replica
	for _, r := range reps {
		if r.name == victim {
			victimRep = r
		}
	}
	faultPlane.Partition(victimRep.host())
	deadline := time.Now().Add(15 * time.Second)
	for _, s := range sessions {
		if s.home != victim {
			continue
		}
		for {
			if rep, _ := g.Placement(s.id); rep != victim {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("session %s never evacuated from partitioned %s", s.id, victim)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Heal: the prober marks the victim back up and the rejoin drain
	// returns its ring-home sessions.
	movedBefore := rebalanceMoved.Value()
	faultPlane.Heal(victimRep.host())
	for _, s := range sessions {
		if s.home != victim {
			continue
		}
		for {
			if rep, _ := g.Placement(s.id); rep == victim {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("session %s (home %s) never rebalanced back after heal", s.id, victim)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if moved := rebalanceMoved.Value() - movedBefore; moved == 0 {
		t.Error("fleet.rebalance.moved did not advance across a rejoin")
	}

	// Only ring-home sessions moved: everything homed elsewhere is
	// exactly where it started.
	for _, s := range sessions {
		if s.home == victim {
			continue
		}
		if rep, _ := g.Placement(s.id); rep != s.placed {
			t.Errorf("session %s (home %s) moved %s -> %s during a rejoin that was not its own",
				s.id, s.home, s.placed, rep)
		}
	}

	// Verdicts don't flip: every stream finishes and matches the
	// single-node golden, whether it moved twice, once, or never.
	for _, s := range sessions {
		for _, r := range reqs[2:] {
			decode[api.FramesResponse](t, hdo(t, g, "POST", s.base+"/frames", r), http.StatusOK)
		}
		w := hdo(t, g, "GET", s.base+"/report", nil)
		if w.Code != http.StatusOK {
			t.Fatalf("report for %s after rejoin: %d: %s", s.id, w.Code, w.Body.String())
		}
		if !bytes.Equal(w.Body.Bytes(), want) {
			t.Errorf("session %s report differs from unsharded run after rejoin:\nsingle: %s\nfleet:  %s",
				s.id, want, w.Body.Bytes())
		}
	}
}

// TestGatewayStandbyTakeover kills the primary gateway mid-stream and
// promotes a warm standby from the routing-state checkpoint: the lease
// goes stale, the standby rebuilds every placement, and the client
// finishes the SAME session through the new gateway — resumed ack
// state, byte-identical verdict.
func TestGatewayStandbyTakeover(t *testing.T) {
	withObs(t)
	fx := testfix.Get(t)
	flight := fx.Calib[1]
	want := singleNodeGolden(t, 5, 1)

	reps := []*replica{startReplica(t, "r1"), startReplica(t, "r2")}
	cfg := Config{
		StatePath:     filepath.Join(t.TempDir(), "gateway.state"),
		LeaseInterval: 20 * time.Millisecond,
		LeaseTTL:      120 * time.Millisecond,
		ProbeInterval: time.Hour,
		Retries:       1,
		RetryBase:     time.Millisecond,
		Logf:          t.Logf,
	}
	for _, r := range reps {
		cfg.Replicas = append(cfg.Replicas, Replica{Name: r.name, BaseURL: r.ts.URL, JournalDir: r.journalDir})
	}
	primary, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	reqs, err := testfix.Frames(flight, 5)
	if err != nil {
		t.Fatal(err)
	}
	base, gwID := openVia(t, primary, flight)
	k := len(reqs) / 2
	for _, r := range reqs[:k] {
		decode[api.FramesResponse](t, hdo(t, primary, "POST", base+"/frames", r), http.StatusOK)
	}

	takeoversBefore := standbyTakeovers.Value()
	faultPlane := chaos.NewFleet()
	faultPlane.KillGateway(func() { abandon(t, primary) })
	if faultPlane.Counts()[chaos.KindGatewayKill] != 1 {
		t.Fatal("gateway kill not recorded")
	}

	sb, err := NewStandby(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if err := sb.WaitLease(wctx); err != nil {
		t.Fatalf("standby never saw the lease expire: %v", err)
	}
	g2, err := sb.Takeover()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := g2.Shutdown(ctx); err != nil {
			t.Errorf("standby gateway shutdown: %v", err)
		}
	})
	if got := standbyTakeovers.Value(); got != takeoversBefore+1 {
		t.Errorf("fleet.standby.takeovers = %d, want %d", got, takeoversBefore+1)
	}

	// The restored route already knows the acknowledged prefix: the
	// client's resend of its last chunk is answered Duplicate, and the
	// stream finishes through the standby with the golden verdict.
	resent := decode[api.FramesResponse](t, hdo(t, g2, "POST", base+"/frames", reqs[k-1]), http.StatusOK)
	if !resent.Duplicate {
		t.Fatalf("resend through standby: %+v, want Duplicate (ack state lost across takeover)", resent)
	}
	if _, ok := g2.Placement(gwID); !ok {
		t.Fatalf("standby lost placement for %s", gwID)
	}
	for _, r := range reqs[k:] {
		decode[api.FramesResponse](t, hdo(t, g2, "POST", base+"/frames", r), http.StatusOK)
	}
	w := hdo(t, g2, "GET", base+"/report", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("report through standby: %d: %s", w.Code, w.Body.String())
	}
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Errorf("post-takeover report differs from unsharded run:\nsingle: %s\nfleet:  %s", want, w.Body.Bytes())
	}
}

// TestGatewayParkedSession restores a checkpoint whose only session has
// lost its replica, its disk, and every follower: the session parks
// instead of vanishing, and requests answer 503 + Retry-After until a
// revive could succeed.
func TestGatewayParkedSession(t *testing.T) {
	withObs(t)
	fx := testfix.Get(t)
	flight := fx.Calib[0]
	rep := startReplica(t, "r1")
	cfg := Config{
		Replicas:      []Replica{{Name: rep.name, BaseURL: rep.ts.URL, JournalDir: rep.journalDir}},
		StatePath:     filepath.Join(t.TempDir(), "gateway.state"),
		LeaseInterval: 20 * time.Millisecond,
		ProbeInterval: time.Hour,
		Retries:       1,
		RetryBase:     time.Millisecond,
		Logf:          t.Logf,
	}
	primary, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := testfix.Frames(flight, 3)
	if err != nil {
		t.Fatal(err)
	}
	base, gwID := openVia(t, primary, flight)
	decode[api.FramesResponse](t, hdo(t, primary, "POST", base+"/frames", reqs[0]), http.StatusOK)
	abandon(t, primary)

	// Replica, disk, and (with a single replica) any follower copy: gone.
	rep.kill()
	if err := os.RemoveAll(rep.journalDir); err != nil {
		t.Fatal(err)
	}

	parkedBefore := sessionsParked.Value()
	g2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := g2.Shutdown(ctx); err != nil {
			t.Errorf("gateway shutdown with parked session: %v", err)
		}
	})
	if got := sessionsParked.Value(); got != parkedBefore+1 {
		t.Errorf("fleet.sessions.parked = %v, want %v", got, parkedBefore+1)
	}

	w := hdo(t, g2, "POST", base+"/frames", reqs[1])
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("frames to parked session: status %d, want 503 (body %s)", w.Code, w.Body.String())
	}
	if ra := w.Header().Get("Retry-After"); ra == "" {
		t.Error("parked 503 carries no Retry-After header")
	}
	var apiErr api.Error
	if err := json.Unmarshal(w.Body.Bytes(), &apiErr); err != nil || apiErr.Code != api.CodeUpstream {
		t.Errorf("parked error = %+v (%v), want code %q", apiErr, err, api.CodeUpstream)
	}
	// The session is parked, not forgotten: still tracked, still
	// addressable, same answer on the read side.
	if _, ok := g2.Placement(gwID); !ok {
		t.Error("parked session dropped from routing")
	}
	if w := hdo(t, g2, "GET", base+"/status", nil); w.Code != http.StatusServiceUnavailable {
		t.Errorf("status of parked session: %d, want 503", w.Code)
	}
}

// TestStateCheckpointRoundTrip covers the checkpoint file contract:
// every placement lands in the fsync'd state file with a monotonic
// epoch, and the lease file beside it keeps changing while the primary
// is alive.
func TestStateCheckpointRoundTrip(t *testing.T) {
	fx := testfix.Get(t)
	flight := fx.Calib[0]
	statePath := filepath.Join(t.TempDir(), "gateway.state")
	g, _ := startFleet(t, 2, Config{StatePath: statePath, LeaseInterval: 15 * time.Millisecond})

	reqs, err := testfix.Frames(flight, 3)
	if err != nil {
		t.Fatal(err)
	}
	base1, id1 := openVia(t, g, flight)
	decode[api.FramesResponse](t, hdo(t, g, "POST", base1+"/frames", reqs[0]), http.StatusOK)
	base2, id2 := openVia(t, g, flight)

	st, err := loadState(statePath)
	if err != nil {
		t.Fatal(err)
	}
	if st.SchemaVersion != api.Version {
		t.Errorf("state schema_version = %q, want %q", st.SchemaVersion, api.Version)
	}
	if st.NextID != 2 || len(st.Routes) != 2 {
		t.Fatalf("state has next_id %d, %d routes; want 2 and 2", st.NextID, len(st.Routes))
	}
	for i, wantID := range []string{id1, id2} {
		rs := st.Routes[i]
		if rs.GwID != wantID {
			t.Errorf("route %d gw_id = %q, want %q (sorted order)", i, rs.GwID, wantID)
		}
		placed, _ := g.Placement(rs.GwID)
		if rs.Replica != placed {
			t.Errorf("route %s checkpointed on %s, live placement %s", rs.GwID, rs.Replica, placed)
		}
		if rs.BackendID == "" || rs.Request.Flight != flight.Name {
			t.Errorf("route %s missing backend id or request: %+v", rs.GwID, rs)
		}
		if rs.Parked {
			t.Errorf("route %s checkpointed parked", rs.GwID)
		}
	}

	// Epoch moves with every placement change.
	base3, _ := openVia(t, g, flight)
	st2, err := loadState(statePath)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Epoch <= st.Epoch {
		t.Errorf("epoch did not advance across a placement: %d -> %d", st.Epoch, st2.Epoch)
	}

	// The lease keeps renewing while the primary lives.
	l1, err := os.ReadFile(leasePath(statePath))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		l2, err := os.ReadFile(leasePath(statePath))
		if err == nil && !bytes.Equal(l1, l2) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("lease file never renewed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Close everything so the cleanup drain finishes.
	for _, b := range []string{base1, base2, base3} {
		hdo(t, g, "POST", b+"/frames", api.FramesRequest{Close: true})
	}
}

// TestLoadStateEitherEncoding reads a checkpoint written compact, as
// checkpoint writes it, and one written indented, as older gateways
// wrote it: a standby must take over from either.
func TestLoadStateEitherEncoding(t *testing.T) {
	want := State{SchemaVersion: api.Version, Epoch: 7, NextID: 3, Routes: []RouteState{
		{GwID: "g-00000003", Replica: "r2", BackendID: "s-1", Followers: []string{"r1"}, Request: api.SessionRequest{Flight: "f"}},
	}}
	compact, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for _, raw := range [][]byte{compact, indented} {
		path := filepath.Join(t.TempDir(), "gateway.state")
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := loadState(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("loadState(%s) = %+v, want %+v", raw, got, want)
		}
	}
}

// TestJitteredInterval pins the probe-jitter contract: every draw lands
// within ±25% of the period, the sequence is deterministic under a
// fixed seed, and a period too small to jitter passes through intact.
func TestJitteredInterval(t *testing.T) {
	d := 100 * time.Millisecond
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		v := jitteredInterval(rng, d)
		if v < d-d/4 || v > d+d/4 {
			t.Fatalf("draw %d: %v outside [%v, %v]", i, v, d-d/4, d+d/4)
		}
	}
	a, b := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		if av, bv := jitteredInterval(a, d), jitteredInterval(b, d); av != bv {
			t.Fatalf("draw %d: same seed diverged (%v vs %v)", i, av, bv)
		}
	}
	if v := jitteredInterval(rng, 1); v != 1 {
		t.Errorf("degenerate period jittered: %v", v)
	}
}

// TestProbeShutdownCancelsInflight pins the probe-leak fix: a probe
// parked in a replica that never answers must be context-cancelled by
// Shutdown, not waited out. The package-level leakcheck catches the
// goroutine if the cancellation regresses; the elapsed bound below
// catches Shutdown stalling on the probe's own 1s HTTP timeout.
func TestProbeShutdownCancelsInflight(t *testing.T) {
	probing := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case probing <- struct{}{}:
		default:
		}
		<-r.Context().Done()
	}))
	t.Cleanup(ts.Close)

	g, err := New(Config{
		Replicas:      []Replica{{Name: "r1", BaseURL: ts.URL}},
		ProbeInterval: 10 * time.Millisecond,
		Retries:       1,
		RetryBase:     time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-probing:
	case <-time.After(5 * time.Second):
		t.Fatal("no probe ever reached the replica")
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := g.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with a probe in flight: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("shutdown took %v: the in-flight probe was waited out, not cancelled", elapsed)
	}
}
