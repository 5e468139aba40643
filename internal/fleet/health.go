package fleet

import "sync"

// Health tracks replica liveness with hysteresis: a replica is marked
// down only after downAfter consecutive probe failures and marked up
// again only after upAfter consecutive successes, so one dropped probe
// does not evacuate a replica and one lucky probe does not resurrect a
// flapping one. Health is passive — the gateway's probe loop feeds it
// observations and acts on the reported transitions — which keeps the
// state machine clock-free and directly testable.
type Health struct {
	mu        sync.Mutex
	states    map[string]*replicaHealth
	downAfter int
	upAfter   int
}

type replicaHealth struct {
	up        bool
	failures  int // consecutive, while up
	successes int // consecutive, while down
}

// NewHealth tracks the named replicas, all initially up. Thresholds
// <= 0 select 2.
func NewHealth(names []string, downAfter, upAfter int) *Health {
	if downAfter <= 0 {
		downAfter = 2
	}
	if upAfter <= 0 {
		upAfter = 2
	}
	h := &Health{
		states:    make(map[string]*replicaHealth, len(names)),
		downAfter: downAfter,
		upAfter:   upAfter,
	}
	for _, n := range names {
		h.states[n] = &replicaHealth{up: true}
	}
	return h
}

// Observe records one probe outcome (err == nil is a success) and
// reports whether the replica transitioned, and to which state.
func (h *Health) Observe(name string, err error) (transitioned, up bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st, ok := h.states[name]
	if !ok {
		return false, false
	}
	if err == nil {
		st.failures = 0
		if st.up {
			return false, true
		}
		st.successes++
		if st.successes >= h.upAfter {
			st.up = true
			st.successes = 0
			return true, true
		}
		return false, false
	}
	st.successes = 0
	if !st.up {
		return false, false
	}
	st.failures++
	if st.failures >= h.downAfter {
		st.up = false
		st.failures = 0
		return true, false
	}
	return false, true
}

// MarkDown forces a replica down immediately — the gateway calls it when
// a forwarded request (not just a probe) hits a transport failure, so
// routing reacts faster than the probe cadence. Reports whether this
// call performed the transition.
func (h *Health) MarkDown(name string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	st, ok := h.states[name]
	if !ok || !st.up {
		return false
	}
	st.up = false
	st.failures = 0
	st.successes = 0
	return true
}

// Up reports a replica's current state (unknown replicas are down).
func (h *Health) Up(name string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	st, ok := h.states[name]
	return ok && st.up
}

// UpCount returns how many replicas are currently up.
func (h *Health) UpCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, st := range h.states {
		if st.up {
			n++
		}
	}
	return n
}
