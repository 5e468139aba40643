package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded by the benchmark's own code: around every public
// call it makes, and in the http.Handler wrapper it installs in front of
// every server it starts. They live in memory and are written as JSON
// when the run ends. Spans inside the program are out of scope.

// span is one timed call. Times are microseconds since the run start.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Name    string  `json:"name"`
	Node    string  `json:"node,omitempty"`
	Session string  `json:"session,omitempty"`
	Start   float64 `json:"start_us"`
	End     float64 `json:"end_us"`
	Status  int     `json:"status,omitempty"`
	Bytes   int64   `json:"bytes,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// recorder collects spans while on.
type recorder struct {
	t0 time.Time
	on atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newRecorder(t0 time.Time) *recorder { return &recorder{t0: t0} }

func (r *recorder) us(t time.Time) float64 { return float64(t.Sub(r.t0)) / float64(time.Microsecond) }

// add stores s under the next id.
func (r *recorder) add(s span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// wrap records a span around every request h serves while the recorder
// is on, named "<node>.<route>".
func (r *recorder) wrap(node string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(sw, req)
		end := time.Now()
		route, session := routeOf(req.URL.Path)
		r.add(span{
			Name: node + "." + route, Node: node, Session: session,
			Start: r.us(start), End: r.us(end), Status: sw.status, Bytes: req.ContentLength,
		})
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// routeOf names a /v1 route and extracts its session id.
func routeOf(path string) (route, session string) {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case len(parts) == 2 && parts[1] == "sessions":
		return "create", ""
	case len(parts) == 2:
		return parts[1], ""
	case len(parts) >= 4 && parts[1] == "sessions":
		return strings.Join(parts[3:], "_"), parts[2]
	}
	return "other", ""
}

// covered returns how much of [lo, hi] the intervals cover, counting
// overlaps once.
func covered(lo, hi float64, ivs [][2]float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total, cur := 0.0, lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// selfTimes returns each span's duration minus the part its children
// cover, keyed by span id.
func selfTimes(spans []span) map[int]float64 {
	kids := map[int][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

func writeSpans(path string, spans []span) error {
	raw, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
