package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"time"

	"soundboost/api"
	"soundboost/internal/httpretry"
	"soundboost/internal/journal"
)

// Replica is one `soundboost serve` backend behind the gateway.
type Replica struct {
	// Name keys the replica on the hash ring and in metrics
	// (fleet.routed.<name>).
	Name string
	// BaseURL is the replica's HTTP root, e.g. "http://127.0.0.1:8801".
	BaseURL string
	// JournalDir, when set, is the replica's journal directory as seen
	// from the gateway process. It is the failover source of last resort:
	// when the replica is dead (no live export possible), the gateway
	// reads the session's write-ahead log straight from disk and replays
	// it onto a successor.
	JournalDir string
}

// Config tunes the gateway. The zero value of each field selects the
// default noted on it.
type Config struct {
	// Replicas is the fleet (at least one; names must be unique).
	Replicas []Replica
	// ProbeInterval is the health-check cadence (default 500ms).
	ProbeInterval time.Duration
	// Retries / RetryBase tune the forwarding client's retry budget
	// (defaults 3 / 100ms). 429s from a replica honor its Retry-After.
	Retries   int
	RetryBase time.Duration
	// Seed makes the forwarding client's backoff jitter reproducible.
	Seed int64
	// Transport overrides the forwarding/probe transport (chaos partition
	// injection in tests; nil = http.DefaultTransport).
	Transport http.RoundTripper
	// Replication is the total number of durable journal copies per
	// session, the serving owner included (default 2: owner plus one
	// follower; 1 disables replication). See replication.go.
	Replication int
	// StatePath, when set, enables gateway high availability: routing
	// state is checkpointed to this file on every placement change, a
	// lease file beside it is renewed every LeaseInterval, and a warm
	// standby (NewStandby) can take over from the checkpoint when the
	// lease goes stale. A restarted primary recovers from its own
	// checkpoint the same way.
	StatePath string
	// LeaseInterval is the primary's lease renew cadence (default 250ms);
	// LeaseTTL is how long a standby waits without a renewal before
	// taking over (default 8× LeaseInterval). TTL must comfortably exceed
	// the interval or a slow disk causes a false takeover.
	LeaseInterval time.Duration
	LeaseTTL      time.Duration
	// Logf receives one line per routing event (default: silent).
	Logf func(format string, a ...any)
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 3
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 100 * time.Millisecond
	}
	if c.Replication <= 0 {
		c.Replication = 2
	}
	if c.LeaseInterval <= 0 {
		c.LeaseInterval = 250 * time.Millisecond
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 8 * c.LeaseInterval
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

const (
	// downAfter / upAfter are the health hysteresis: consecutive failed
	// probes before mark-down, consecutive good probes before mark-up.
	downAfter = 2
	upAfter   = 2
	// rebalanceLimit caps sessions drained back per rejoin event and
	// rebalancePace is the pause between moves: together they bound how
	// hard a recovering replica is hit.
	rebalanceLimit = 32
	rebalancePace  = 10 * time.Millisecond
	// maxBodyBytes caps request bodies: a batch flight carries raw audio.
	maxBodyBytes = 256 << 20
)

// maxRoutes bounds the gateway's route table. Past it, creating a
// session drops the least-recently-used finished route, as a replica
// LRU-evicts its done sessions; routes still streaming are never
// dropped. Without it every session ever opened would stay in memory
// and in every checkpoint.
const maxRoutes = 256

// route is the gateway's record of one placed session: which replica
// holds it and under what backend id. Its mutex serializes forwarding
// and failover per session, so a migration never interleaves with a
// chunk post for the same session.
type route struct {
	gwID string
	// used (the last lookup) and done (a report read succeeded, or a
	// status read said done or failed) pick the route to evict; both are
	// guarded by Gateway.mu.
	used time.Time
	done bool

	mu        sync.Mutex
	replica   string
	backendID string
	lastSeq   int // highest acknowledged client Seq seen through this gateway

	// req is the original SessionRequest — what failover replays a
	// zero-chunk session from, and what replication stamps on every
	// follower copy so a future owner can rebuild the engine.
	req api.SessionRequest
	// followers / repSeq / repAcked / prevLag drive journal replication
	// (see replication.go): the follower set, the owner-acknowledged
	// chunk count, each follower's acked high-water mark, and the last
	// published lag (for the replication gauges).
	followers []string
	repSeq    int
	repAcked  map[string]int
	prevLag   int
	// needReseed schedules a full follower reseed: set after a takeover
	// (marks died with the old process) or a follower gap 409.
	needReseed bool
	// parked marks a restored session no replica could serve at takeover:
	// requests answer 503 + Retry-After and retry the revive.
	parked bool
}

// Gateway re-serves the single-node /v1 surface over a fleet of
// replicas. A session goes to the first healthy replica in its id's
// ring order (see candidates); batch flights round-robin over healthy
// replicas. When a replica dies or drains mid-session, the gateway
// migrates the session: it fetches the session's journal (live export,
// or the journal directory when the replica is gone) and replays it
// through a successor's normal publish path — the engine is
// deterministic, so the successor converges to the byte-identical
// verdict. The route records where each session lives; the ring is
// fixed and Health alone says which replicas take work.
type Gateway struct {
	cfg      Config
	replicas map[string]Replica
	names    []string // replica names, sorted: the batch round-robin order
	ring     *Ring
	health   *Health
	client   *httpretry.Client
	// repClient is the replication append path: a tighter retry budget
	// than client forwarding, because a follower append runs inside the
	// client's frames request and replication is best-effort anyway.
	repClient *httpretry.Client
	probeHC   *http.Client
	mux       *http.ServeMux

	mu       sync.Mutex
	routes   map[string]*route
	placed   map[string]RouteState // checkpoint mirror (see state.go)
	epoch    int
	nextID   int
	rrFlight int // round-robin cursor for batch flights
	draining bool

	// stateMu serializes checkpoint writers so state-file epochs land in
	// order. Lock order: stateMu before g.mu; neither is ever taken while
	// the other side holds a route lock it might wait on.
	stateMu sync.Mutex

	wg          sync.WaitGroup // in-flight evacuations, rebalances, lease loop
	probeStop   chan struct{}
	probeDone   chan struct{}
	probeCtx    context.Context // cancelled at Shutdown: no probe blocks in dial
	probeCancel context.CancelFunc
}

// New builds a gateway over the fleet, restores any routing-state
// checkpoint at Config.StatePath (warm-standby takeover and primary
// restart both land here), and starts its health probe and lease loops.
// Callers must Shutdown to stop it.
func New(cfg Config) (*Gateway, error) {
	g, err := newGateway(cfg)
	if err != nil {
		return nil, err
	}
	if g.cfg.StatePath != "" {
		if err := g.restore(); err != nil {
			// A checkpoint that cannot be parsed must not brick the
			// gateway: new sessions matter more than a corrupt file.
			g.logf("state restore failed, starting fresh: %v", err)
		}
		g.verifyRestored()
	}
	g.start()
	return g, nil
}

// newGateway constructs the gateway without starting any goroutine, so
// restore can verify placements before the first probe or lease tick.
func newGateway(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("fleet: no replicas configured")
	}
	g := &Gateway{
		cfg:       cfg,
		replicas:  make(map[string]Replica, len(cfg.Replicas)),
		routes:    make(map[string]*route),
		placed:    make(map[string]RouteState),
		probeStop: make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	g.probeCtx, g.probeCancel = context.WithCancel(context.Background())
	for _, r := range cfg.Replicas {
		if r.Name == "" || r.BaseURL == "" {
			return nil, fmt.Errorf("fleet: replica needs name and base URL: %+v", r)
		}
		if _, dup := g.replicas[r.Name]; dup {
			return nil, fmt.Errorf("fleet: duplicate replica name %q", r.Name)
		}
		g.replicas[r.Name] = r
		g.names = append(g.names, r.Name)
	}
	slices.Sort(g.names)
	g.ring = NewRing(g.names)
	g.health = NewHealth(g.names, downAfter, upAfter)
	replicasUp.Set(float64(len(g.names)))
	hc := &http.Client{Transport: cfg.Transport}
	g.client = httpretry.New(hc, cfg.Retries, cfg.RetryBase, cfg.Seed)
	g.client.Logf = cfg.Logf
	repRetries := 1
	if cfg.Retries < 1 {
		repRetries = cfg.Retries
	}
	g.repClient = httpretry.New(hc, repRetries, cfg.RetryBase, cfg.Seed+1)
	g.repClient.Logf = cfg.Logf
	// Probe timeout is tied to the cadence but floored at 1s: a loaded
	// replica answering healthz slowly is degraded, not dead, and a
	// too-tight timeout would flap it down spuriously.
	probeTimeout := 2 * cfg.ProbeInterval
	if probeTimeout < time.Second {
		probeTimeout = time.Second
	}
	g.probeHC = &http.Client{Transport: cfg.Transport, Timeout: probeTimeout}
	g.mux = g.routesMux()
	return g, nil
}

// start launches the gateway's background loops and, when HA is on,
// writes the first checkpoint + lease of this process life so a standby
// sees a live primary immediately.
func (g *Gateway) start() {
	go g.probeLoop()
	if g.cfg.StatePath != "" {
		g.checkpoint()
		g.wg.Add(1)
		go g.leaseLoop()
	}
}

func (g *Gateway) logf(format string, a ...any) { g.cfg.Logf(format, a...) }

func (g *Gateway) base(replica string) string { return g.replicas[replica].BaseURL }

// backend addresses rt's session on the replica currently holding it.
func (g *Gateway) backend(rt *route) *httpretry.Session {
	return g.client.SessionAt(g.base(rt.replica), rt.backendID)
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	g.mux.ServeHTTP(w, r)
}

func (g *Gateway) routesMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /"+api.Version+"/flights", g.handleFlights)
	mux.HandleFunc("POST /"+api.Version+"/sessions", g.handleSessionCreate)
	mux.HandleFunc("POST /"+api.Version+"/sessions/{id}/frames", g.handleFrames)
	mux.HandleFunc("GET /"+api.Version+"/sessions/{id}/report", g.handleReport)
	mux.HandleFunc("GET /"+api.Version+"/sessions/{id}/status", g.handleStatus)
	mux.HandleFunc("GET /"+api.Version+"/sessions/{id}/journal", g.handleJournal)
	mux.HandleFunc("GET /"+api.Version+"/healthz", g.handleHealthz)
	return mux
}

// --- health probing ---

// jitteredInterval spreads one probe period ±25% around d using the
// caller's seeded rng, so N gateways (or one gateway's restarts) don't
// probe every replica in lockstep.
func jitteredInterval(rng *rand.Rand, d time.Duration) time.Duration {
	span := int64(d) / 2
	if span <= 0 {
		return d
	}
	return d - d/4 + time.Duration(rng.Int63n(span+1))
}

// probeLoop polls every replica's /v1/healthz on the configured cadence
// (jittered ±25%, seeded by Config.Seed) and folds the outcomes through
// the hysteretic health tracker. A replica that transitions down stops
// being a placement candidate and its sessions evacuate; one that
// recovers is a candidate again and rebalance drains its ring-home
// sessions back (bounded — see rebalance).
func (g *Gateway) probeLoop() {
	defer close(g.probeDone)
	rng := rand.New(rand.NewSource(g.cfg.Seed))
	t := time.NewTimer(jitteredInterval(rng, g.cfg.ProbeInterval))
	defer t.Stop()
	for {
		select {
		case <-g.probeStop:
			return
		case <-t.C:
		}
		for name, rep := range g.replicas {
			err := g.probe(rep)
			transitioned, up := g.health.Observe(name, err)
			if !transitioned {
				continue
			}
			healthTransitions.Inc()
			if up {
				g.logf("replica %s up", name)
				// Drain the rejoined replica's ring-home sessions back to
				// it, bounded by the rebalance limit and pace.
				g.wg.Add(1)
				go func(name string) {
					defer g.wg.Done()
					g.rebalance(name)
				}(name)
			} else {
				g.logf("replica %s down: %v", name, err)
				// Evacuate proactively: sessions on a draining replica
				// migrate while it can still serve journal exports; a dead
				// replica's sessions migrate from its journal directory
				// (or follower copies) without waiting for client traffic
				// to trip over it.
				g.wg.Add(1)
				go func(name string) {
					defer g.wg.Done()
					g.evacuate(name)
				}(name)
			}
			replicasUp.Set(float64(g.health.UpCount()))
		}
		t.Reset(jitteredInterval(rng, g.cfg.ProbeInterval))
	}
}

// probe performs one health check. A replica that answers but reports
// "draining" is treated as failing: it must stop receiving new sessions,
// and its open sessions fail over on their next request. The request
// rides probeCtx, so Shutdown cancels a probe blocked in dial instead
// of leaving its goroutine behind.
func (g *Gateway) probe(rep Replica) error {
	h, err := g.healthz(g.probeCtx, rep)
	if err == nil && h.Status != "ok" {
		err = fmt.Errorf("healthz status %q", h.Status)
	}
	return err
}

// healthz reads rep's /v1/healthz answer.
func (g *Gateway) healthz(ctx context.Context, rep Replica) (api.Health, error) {
	var h api.Health
	req, err := http.NewRequestWithContext(ctx, "GET", rep.BaseURL+"/"+api.Version+"/healthz", nil)
	if err != nil {
		return h, err
	}
	resp, err := g.probeHC.Do(req)
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return h, fmt.Errorf("healthz decode: %w", err)
	}
	return h, nil
}

// rebalance drains sessions whose ring-home — first healthy candidate —
// is the rejoined replica back to it via the normal journal-replay
// migration: only ring-home sessions move (everything else stays put),
// at most rebalanceLimit of them per rejoin, paced by rebalancePace.
// Terminal sessions are left where they are: moving one recomputes a
// verdict already served.
func (g *Gateway) rebalance(name string) {
	rebalanceEvents.Inc()
	rts := g.routeList()
	moved := 0
	for _, rt := range rts {
		if c := g.candidates(rt.gwID); len(c) == 0 || c[0] != name {
			continue
		}
		if moved >= rebalanceLimit {
			rebalanceSkipped.Inc()
			continue
		}
		if !g.health.Up(name) {
			return // went down again mid-drain
		}
		rt.mu.Lock()
		if rt.replica == name || rt.parked {
			rt.mu.Unlock()
			continue
		}
		if st, err := g.backend(rt).Status(); err == nil &&
			(st.State == api.SessionDone || st.State == api.SessionFailed) {
			rebalanceSkipped.Inc()
			rt.mu.Unlock()
			continue
		}
		err := func() error {
			exp, err := g.exportJournal(rt)
			if err != nil {
				return err
			}
			return g.migrateLocked(rt, name, exp)
		}()
		if err != nil {
			rebalanceSkipped.Inc()
			g.logf("session %s rebalance to %s failed: %v", rt.gwID, name, err)
		} else {
			rebalanceMoved.Inc()
			moved++
			g.logf("session %s rebalanced home to %s", rt.gwID, name)
		}
		rt.mu.Unlock()
		select {
		case <-g.probeStop:
			return
		case <-time.After(rebalancePace):
		}
	}
}

// --- placement and failover ---

// failoverWorthy reports whether a forwarding error means the replica
// (not the request) is the problem: a transport failure, a replica
// mid-drain, or a replica that restarted without the session. API-level
// answers (409 conflict, 422, 429, a failed session's 500) are the
// service speaking and must surface to the client unchanged.
func failoverWorthy(err error) bool {
	var se *httpretry.StatusError
	if !errors.As(err, &se) {
		return true // transport-level: the replica never answered
	}
	switch se.Code {
	case api.CodeShuttingDown, api.CodeNotFound:
		// Draining replica, or a replica that came back empty-handed
		// after a crash (the journal still has the session).
		return true
	}
	return false
}

// candidates returns key's ring order without the replicas that are
// down or in skip. It is the one placement walk: session create, the
// failover successor, the follower set and the rejoin home all take
// from its front.
func (g *Gateway) candidates(key string, skip ...string) []string {
	var out []string
	for _, name := range g.ring.Successors(key) {
		if g.health.Up(name) && !slices.Contains(skip, name) {
			out = append(out, name)
		}
	}
	return out
}

// exportJournal fetches the session's durable journal for migration,
// in degrading order of freshness: from the replica itself while it can
// still answer (the drain case); straight from its journal directory
// when the process is gone (the SIGKILL case); and from the freshest
// follower copy when the disk is gone too (the journal-dir-wipe case).
// A journal dir that answers "empty journal" means the session never
// got durable state — creation crashed before the first meta landed —
// so the original request replays as a clean zero-chunk session.
func (g *Gateway) exportJournal(rt *route) (api.SessionJournal, error) {
	exp, liveErr := g.liveExport(rt)
	if liveErr == nil {
		return exp, nil
	}
	if dir := g.replicas[rt.replica].JournalDir; dir != "" {
		exp, dirErr := g.dirExport(rt, dir)
		if dirErr == nil {
			return exp, nil
		}
		if errors.Is(dirErr, journal.ErrEmptyJournal) {
			g.logf("session %s: empty journal on %s, replaying as new", rt.gwID, rt.replica)
			return api.SessionJournal{
				SchemaVersion: api.Version,
				ID:            rt.backendID,
				Request:       rt.req,
				State:         api.SessionOpen,
			}, nil
		}
		g.logf("session %s: journal dir read failed (%v), trying follower copies", rt.gwID, dirErr)
	}
	exp, folErr := g.followerExport(rt)
	if folErr == nil {
		failoverFromFollower.Inc()
		g.logf("session %s: journal served from follower copy (%d chunk(s))", rt.gwID, len(exp.Chunks))
		return exp, nil
	}
	return exp, fmt.Errorf("fleet: no journal source for %s: live: %v; followers: %v", rt.gwID, liveErr, folErr)
}

// dirExport reads the session's journal straight off the replica's
// journal directory. Empty journals surface as journal.ErrEmptyJournal
// (note: a wiped-and-recreated dir reads as plain not-found instead —
// no meta AND no chunk log — which correctly falls through to the
// follower copies).
func (g *Gateway) dirExport(rt *route, dir string) (api.SessionJournal, error) {
	var exp api.SessionJournal
	st, err := journal.Open(dir)
	if err != nil {
		return exp, fmt.Errorf("fleet: journal dir for %s: %w", rt.replica, err)
	}
	rec, err := st.LoadSession(rt.backendID)
	if err != nil {
		return exp, fmt.Errorf("fleet: journal read for %s/%s: %w", rt.replica, rt.backendID, err)
	}
	if rec.Corrupt != "" {
		return exp, fmt.Errorf("fleet: journal for %s/%s unreadable: %s", rt.replica, rt.backendID, rec.Corrupt)
	}
	return api.SessionJournal{
		SchemaVersion: api.Version,
		ID:            rt.backendID,
		Request:       rec.Meta.Req,
		State:         rec.Meta.State,
		LastSeq:       rec.Meta.LastSeq,
		FailCause:     rec.Meta.FailCause,
		Chunks:        rec.Chunks,
	}, nil
}

// failoverLocked migrates rt's session to a successor replica: mark the
// current one down, export the journal (live → disk → follower copy),
// and replay onto the first healthy successor. Caller holds rt.mu.
func (g *Gateway) failoverLocked(rt *route) error {
	failoverAttempts.Inc()
	from := rt.replica
	// React faster than the probe cadence: the forwarding failure that
	// got us here is evidence enough to stop placing new sessions there.
	if g.health.MarkDown(from) {
		healthTransitions.Inc()
		replicasUp.Set(float64(g.health.UpCount()))
		g.logf("replica %s down (forwarding failure)", from)
	}
	exp, err := g.exportJournal(rt)
	if err != nil {
		failoverFailed.Inc()
		return err
	}
	successors := g.candidates(rt.gwID, from)
	if len(successors) == 0 {
		failoverFailed.Inc()
		return fmt.Errorf("fleet: no healthy successor for session %s", rt.gwID)
	}
	target := successors[0]
	if err := g.migrateLocked(rt, target, exp); err != nil {
		failoverFailed.Inc()
		return err
	}
	failoverSuccess.Inc()
	g.logf("session %s failed over %s -> %s (%d chunk(s) replayed, last_seq %d)",
		rt.gwID, from, target, len(exp.Chunks), exp.LastSeq)
	return nil
}

// migrateLocked re-homes rt's session onto target from an exported
// journal: open a fresh backend session with the original request,
// replay every acknowledged chunk through target's normal publish path
// (the engine is deterministic, so the verdict is byte-identical),
// point the route at target, re-seed the follower set, and checkpoint
// the new placement. Failover and rejoin rebalancing share it. Caller
// holds rt.mu.
func (g *Gateway) migrateLocked(rt *route, target string, exp api.SessionJournal) error {
	from := rt.replica
	sess, err := g.client.OpenSession(g.base(target), exp.Request)
	if err != nil {
		return fmt.Errorf("fleet: successor %s rejected session: %w", target, err)
	}
	for _, c := range exp.Chunks {
		if _, err := sess.Post(c); err != nil {
			return fmt.Errorf("fleet: replay chunk %d onto %s: %w", c.Seq, target, err)
		}
		failoverChunks.Inc()
	}
	// The successor's stream state is now exactly what the CLIENT asked
	// for: a journaled Close chunk re-closed it during replay; absent
	// one, it stays open even if the exported state was terminal — a
	// close the client never requested (drain, idle timeout) must not
	// lock the migrated session against a client mid-upload. The client
	// finishes the stream, or the successor's janitor re-times it out.
	rt.replica, rt.backendID = target, sess.ID
	if rt.req.Flight == "" && rt.req.SampleRateHz == 0 {
		rt.req = exp.Request
	}
	// The old follower set may now include the new owner (or the dead
	// replica): recompute it and bring every copy to the export's
	// high-water mark. The export is the authoritative chunk list here —
	// fresher than whatever the copies held, never staler than from.
	rt.followers = g.pickFollowers(rt, target, from)
	rt.repAcked = make(map[string]int, len(rt.followers))
	g.seedFollowersLocked(rt, exp)
	g.recordPlacement(rt)
	return nil
}

// evacuate migrates every session currently routed to a downed replica.
// Run by the probe loop on a mark-down transition, so sessions move off
// a draining replica while its journal-export endpoint still answers,
// and off a dead one without waiting for client traffic to trip over it.
func (g *Gateway) evacuate(name string) {
	rts := g.routeList()
	for _, rt := range rts {
		rt.mu.Lock()
		// Re-check under the route lock: a frames request may have
		// already migrated it.
		if rt.replica == name {
			if err := g.failoverLocked(rt); err != nil {
				g.logf("session %s evacuation from %s failed: %v", rt.gwID, name, err)
			}
		}
		rt.mu.Unlock()
	}
}

// Placement reports which replica currently holds a gateway session —
// observability for operators and the fleet tests.
func (g *Gateway) Placement(gwID string) (replica string, ok bool) {
	rt, ok := g.lookupRoute(gwID)
	if !ok {
		return "", false
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.replica, true
}

// forward sends one request for rt's session, failing over (once) when
// the replica itself is the problem. Caller holds rt.mu.
func (g *Gateway) forwardLocked(rt *route, method, suffix string, body []byte, out any) error {
	err := g.backend(rt).Do(method, suffix, body, out)
	if err == nil || !failoverWorthy(err) {
		return err
	}
	if ferr := g.failoverLocked(rt); ferr != nil {
		return fmt.Errorf("%w (failover: %v)", err, ferr)
	}
	return g.backend(rt).Do(method, suffix, body, out)
}

// --- handlers ---

func (g *Gateway) lookupRoute(id string) (*route, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	rt, ok := g.routes[id]
	if ok {
		rt.used = time.Now()
	}
	return rt, ok
}

// routeList snapshots the route table.
func (g *Gateway) routeList() []*route {
	g.mu.Lock()
	defer g.mu.Unlock()
	rts := make([]*route, 0, len(g.routes))
	for _, rt := range g.routes {
		rts = append(rts, rt)
	}
	return rts
}

// routeFor looks up the request's session, answering 404 not_found for
// an unknown (or evicted) id.
func (g *Gateway) routeFor(w http.ResponseWriter, r *http.Request) (*route, bool) {
	rt, ok := g.lookupRoute(r.PathValue("id"))
	if !ok {
		g.writeError(w, http.StatusNotFound, api.CodeNotFound, fmt.Sprintf("unknown session %q", r.PathValue("id")))
	}
	return rt, ok
}

// evictLocked drops least-recently-used finished routes from the table
// and the checkpoint mirror until a new route fits under maxRoutes. The
// caller holds g.mu, and hands the victims to release once it is
// unlocked.
func (g *Gateway) evictLocked() []*route {
	var victims []*route
	for len(g.routes) >= maxRoutes {
		var victim *route
		for _, rt := range g.routes {
			if rt.done && (victim == nil || rt.used.Before(victim.used)) {
				victim = rt
			}
		}
		if victim == nil {
			break
		}
		delete(g.routes, victim.gwID)
		delete(g.placed, victim.gwID)
		victims = append(victims, victim)
	}
	return victims
}

// release frees what evicted routes hold outside the table, their
// replication lag, after waiting out any request that found one before
// its eviction.
func (g *Gateway) release(victims []*route) {
	for _, rt := range victims {
		rt.mu.Lock()
		replicationLags.move(rt.prevLag, 0)
		rt.prevLag = 0
		rt.mu.Unlock()
		routesEvicted.Inc()
		g.logf("session %s evicted (LRU, route table full)", rt.gwID)
	}
}

// healthyOrder returns the healthy replicas in name order starting at
// the round-robin cursor — the batch-flight placement order.
func (g *Gateway) healthyOrder() []string {
	g.mu.Lock()
	start := g.rrFlight
	g.rrFlight++
	g.mu.Unlock()
	var out []string
	for i := range g.names {
		name := g.names[(start+i)%len(g.names)]
		if g.health.Up(name) {
			out = append(out, name)
		}
	}
	return out
}

// handleFlights forwards a batch upload to a healthy replica,
// round-robin, advancing to the next on transport failure.
func (g *Gateway) handleFlights(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	draining := g.draining
	g.mu.Unlock()
	if draining {
		g.writeError(w, http.StatusServiceUnavailable, api.CodeShuttingDown, "gateway: shutting down")
		return
	}
	// The upload's pooled buffer goes back once the last PostFlight
	// sending it has returned.
	sbf, err := api.ReadUpload(r)
	if err != nil {
		g.writeError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	defer sbf.Release()
	var lastErr error
	for _, name := range g.healthyOrder() {
		out, err := g.client.PostFlight(g.base(name), sbf.Bytes())
		if err == nil {
			routedTo(name).Inc()
			g.writeJSON(w, http.StatusOK, out)
			return
		}
		lastErr = err
		if !failoverWorthy(err) {
			g.writeUpstreamError(w, err)
			return
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no healthy replicas")
	}
	g.writeError(w, http.StatusServiceUnavailable, api.CodeUpstream, fmt.Sprintf("gateway: %v", lastErr))
}

// handleSessionCreate places a session: the gateway allocates its own id
// (the hash key) and opens the backend session on the id's first
// candidate. The client only ever sees the gateway id.
func (g *Gateway) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req api.SessionRequest
	if err := api.DecodeStrict(r.Body, &req); err != nil {
		g.writeError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	g.mu.Lock()
	if g.draining {
		g.mu.Unlock()
		g.writeError(w, http.StatusServiceUnavailable, api.CodeShuttingDown, "gateway: shutting down")
		return
	}
	g.nextID++
	gwID := fmt.Sprintf("g-%08d", g.nextID)
	g.mu.Unlock()

	// A replica that refuses with an API-level answer (429 capacity, 422)
	// speaks for the fleet — surface it; only replica-level failures
	// advance to the next candidate.
	var lastErr error
	for _, name := range g.candidates(gwID) {
		sess, err := g.client.OpenSession(g.base(name), req)
		if err == nil {
			rt := &route{gwID: gwID, replica: name, backendID: sess.ID, req: req, repAcked: make(map[string]int)}
			rt.followers = g.pickFollowers(rt, name, "")
			g.mu.Lock()
			victims := g.evictLocked()
			g.routes[gwID] = rt
			g.notePlacementLocked(rt)
			g.mu.Unlock()
			g.release(victims)
			g.checkpoint()
			sessionsRouted.Inc()
			routedTo(name).Inc()
			g.logf("session %s -> %s/%s (flight %q)", gwID, name, sess.ID, req.Flight)
			g.writeJSON(w, http.StatusCreated, api.SessionResponse{
				SchemaVersion: api.Version,
				ID:            gwID,
				State:         sess.State,
			})
			return
		}
		lastErr = err
		if !failoverWorthy(err) {
			g.writeUpstreamError(w, err)
			return
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no healthy replicas")
	}
	g.writeError(w, http.StatusServiceUnavailable, api.CodeUpstream, fmt.Sprintf("gateway: %v", lastErr))
}

// handleFrames forwards a chunk to the session's replica, migrating the
// session first if that replica is gone. The chunk itself rides the
// sequence-number contract: after a mid-flight failover the replay
// restored every acknowledged chunk, so the client's in-flight resend is
// either the next expected Seq (accepted) or an already-replayed one
// (acknowledged as duplicate).
func (g *Gateway) handleFrames(w http.ResponseWriter, r *http.Request) {
	rt, ok := g.routeFor(w, r)
	if !ok {
		return
	}
	// The gateway reads no sample: it checks the chunk, and the owner
	// (which decodes it) and the followers get the client's bytes. Its
	// pooled buffer goes back once the forward, a failover re-forward
	// included, and the replication have returned.
	var chunk api.CheckedChunk
	if err := api.DecodeRequest(r, &chunk); err != nil {
		g.writeError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	defer chunk.Release()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if !g.ensureLiveLocked(rt, w) {
		return
	}
	var out api.FramesResponse
	if err := g.forwardLocked(rt, "POST", "/frames", chunk.Bytes(), &out); err != nil {
		g.writeUpstreamError(w, err)
		return
	}
	if chunk.Seq > rt.lastSeq {
		rt.lastSeq = chunk.Seq
	}
	// Stream the accepted chunk to the session's followers before the
	// client's ack: once the 200 lands, the chunk survives losing the
	// owner and its disk (best-effort per follower — see replication.go).
	g.replicateLocked(rt, chunk, out.Duplicate)
	g.writeJSON(w, http.StatusOK, out)
}

// ensureLiveLocked clears a parked route before serving it: each
// request retries the revive, and failure answers 503 + Retry-After —
// degraded, not lost. Caller holds rt.mu; a false return means the
// response has been written.
func (g *Gateway) ensureLiveLocked(rt *route, w http.ResponseWriter) bool {
	if !rt.parked {
		return true
	}
	if err := g.reviveLocked(rt); err != nil {
		w.Header().Set("Retry-After", "1")
		g.writeError(w, http.StatusServiceUnavailable, api.CodeUpstream,
			fmt.Sprintf("gateway: session %s parked (no replica can serve it yet): %v", rt.gwID, err))
		return false
	}
	return true
}

// handleReport forwards a report read, failing the session over first if
// its replica died before serving the verdict — the journal replay
// reproduces it on the successor. A served report retires the route.
func (g *Gateway) handleReport(w http.ResponseWriter, r *http.Request) {
	var out json.RawMessage
	g.forwardRead(w, r, "/report", &out, g.retire)
}

// handleStatus forwards a status read and rewrites the backend session
// id to the gateway's — clients address sessions only by gateway id. A
// finished session's status retires the route.
func (g *Gateway) handleStatus(w http.ResponseWriter, r *http.Request) {
	var st api.SessionStatus
	g.forwardRead(w, r, "/status", &st, func(rt *route) {
		st.ID = rt.gwID
		if st.State == api.SessionDone || st.State == api.SessionFailed {
			g.retire(rt)
		}
	})
}

// handleJournal forwards a journal export, rewriting the id like status.
func (g *Gateway) handleJournal(w http.ResponseWriter, r *http.Request) {
	var exp api.SessionJournal
	g.forwardRead(w, r, "/journal", &exp, func(rt *route) { exp.ID = rt.gwID })
}

// forwardRead serves a session read: it forwards GET suffix to the
// session's replica (reviving a parked route, failing over a dead
// replica), decodes the answer into out, lets after adjust it, and
// writes it.
func (g *Gateway) forwardRead(w http.ResponseWriter, r *http.Request, suffix string, out any, after func(rt *route)) {
	rt, ok := g.routeFor(w, r)
	if !ok {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if !g.ensureLiveLocked(rt, w) {
		return
	}
	if err := g.forwardLocked(rt, "GET", suffix, nil, out); err != nil {
		g.writeUpstreamError(w, err)
		return
	}
	after(rt)
	g.writeJSON(w, http.StatusOK, out)
}

// retire makes a finished session's route evictable.
func (g *Gateway) retire(rt *route) {
	g.mu.Lock()
	rt.done = true
	g.mu.Unlock()
}

// handleHealthz reports fleet-level liveness: "ok" while every replica
// is up, "degraded" when some are down, "draining" during shutdown.
// Occupancy aggregates the up replicas' own healthz answers.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	draining := g.draining
	sessions := 0
	for _, rt := range g.routes {
		if !rt.done {
			sessions++
		}
	}
	g.mu.Unlock()
	status := "ok"
	if g.health.UpCount() < len(g.replicas) {
		status = "degraded"
	}
	if draining {
		status = "draining"
	}
	agg := api.Health{
		SchemaVersion:  api.Version,
		Status:         status,
		ActiveSessions: sessions,
	}
	for name, rep := range g.replicas {
		if !g.health.Up(name) {
			continue
		}
		if h, err := g.healthz(r.Context(), rep); err == nil {
			agg.SessionCap += h.SessionCap
			agg.JobsInFlight += h.JobsInFlight
			agg.JobCap += h.JobCap
		}
	}
	g.writeJSON(w, http.StatusOK, agg)
}

// --- lifecycle ---

// Shutdown drains the gateway: new sessions and batch flights are
// refused (503 shutting_down), the probe loop stops, and existing
// sessions keep flowing — frames, failover, and report reads continue —
// until every tracked session reaches a terminal state or ctx expires.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.mu.Lock()
	already := g.draining
	g.draining = true
	g.mu.Unlock()
	open := g.routeList()
	if !already {
		g.probeCancel() // unblock any probe stuck in dial
		close(g.probeStop)
		<-g.probeDone
		g.wg.Wait() // let in-flight evacuations, rebalances, lease renewals settle
		g.checkpoint()
		g.logf("drain: %d tracked session(s)", len(open))
	}
	for {
		pending := 0
		for _, rt := range open {
			rt.mu.Lock()
			if rt.parked {
				// No replica can serve it; nothing a drain can wait on.
				rt.mu.Unlock()
				continue
			}
			st, err := g.backend(rt).Status()
			rt.mu.Unlock()
			if err == nil && st.State != api.SessionDone && st.State != api.SessionFailed {
				pending++
			}
		}
		if pending == 0 {
			g.logf("drain: complete")
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// --- response plumbing ---

func (g *Gateway) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (g *Gateway) writeError(w http.ResponseWriter, status int, code, msg string) {
	g.writeJSON(w, status, api.Error{Code: code, Error: msg})
}

// writeUpstreamError relays a forwarding failure: an API-level answer
// from the replica passes through with its original status and code (the
// gateway is transparent to the service's own error contract); a
// transport-level failure becomes 503 upstream_unavailable.
func (g *Gateway) writeUpstreamError(w http.ResponseWriter, err error) {
	var se *httpretry.StatusError
	if errors.As(err, &se) {
		g.writeError(w, se.Status, se.Code, se.Message)
		return
	}
	g.writeError(w, http.StatusServiceUnavailable, api.CodeUpstream, fmt.Sprintf("gateway: %v", err))
}
