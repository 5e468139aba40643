// Package httpretry is the fault-tolerant /v1 client shared by every
// path that talks to the RCA service (push, the chaos soak, the sweep
// runner and the fleet gateway). Session and PostFlight spell the /v1
// routes. Underneath, Client.Do retries with exponential backoff and
// seeded jitter on transport errors and on retryable statuses (429 and
// the gateway-ish 502/503/504), a server-supplied Retry-After overrides
// the computed backoff, and bodies are held as []byte so every resend
// is byte-identical. Do returns only once the transport has closed every
// request body it was handed, so the caller owns its bytes again — the
// fleet gateway forwards bodies from pooled buffers and recycles them
// straight after. A plain 500 is never retried — the server uses it for
// permanent outcomes (session_failed), where a retry can only waste the
// budget.
//
// Retrying a frames post is safe because chunks carry sequence numbers:
// a resend whose original ack was lost comes back Duplicate, not
// double-published.
package httpretry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"soundboost/api"
)

// Client retries JSON round trips against the /v1 service.
type Client struct {
	// Sleep waits out one backoff delay; override (e.g. with a no-op) to
	// keep deterministic drivers wall-clock-free.
	Sleep func(time.Duration)
	// Logf receives one line per retry (default: silent).
	Logf func(format string, a ...any)

	hc      *http.Client
	retries int
	base    time.Duration
	max     time.Duration
	// rngMu guards rng: one Client is shared across goroutines (the
	// gateway fans one client out per replica, sweeps run trials in
	// parallel), and rand.Rand is not safe for concurrent use. The mutex
	// serializes draws so the seeded sequence itself stays intact —
	// deterministic drivers that retry serially still see the exact
	// seeded draw order.
	rngMu   sync.Mutex
	rng     *rand.Rand
	retried atomic.Int64
	now     func() time.Time // injectable for Retry-After date tests
}

// New builds a client retrying up to retries times with backoff starting
// at base (jittered, capped at 30×base). seed makes the jitter sequence
// reproducible for the deterministic drivers (chaos soak, sweeps).
func New(hc *http.Client, retries int, base time.Duration, seed int64) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	if retries < 0 {
		retries = 0
	}
	if base <= 0 {
		base = 200 * time.Millisecond
	}
	return &Client{
		hc:      hc,
		retries: retries,
		base:    base,
		max:     30 * base,
		rng:     rand.New(rand.NewSource(seed)),
		Sleep:   time.Sleep,
		Logf:    func(string, ...any) {},
		now:     time.Now,
	}
}

// Retries returns the number of retried attempts so far — the count of
// round trips beyond each request's first. Sweep trial records report it.
func (c *Client) Retries() int64 { return c.retried.Load() }

// retryableStatus reports whether a status is worth retrying.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// Do round-trips one JSON request with retries. body may be nil; out may
// be nil to discard the response.
//
// Do returns only after the transport has closed every request body it
// was handed, on every attempt: success, error and retry alike. A
// RoundTripper may read and close the body after it has returned the
// response, so without this wait the caller could not tell when the
// transport is done with body's bytes. Once Do returns, the caller may
// reuse body at once. The request declares len(body) as its
// Content-Length, so the body is never sent chunked.
func (c *Client) Do(method, url string, body []byte, out any) error {
	for attempt := 0; ; attempt++ {
		retryAfter, permanent, err := c.attempt(method, url, body, out)
		if err == nil {
			return nil
		}
		if permanent || attempt >= c.retries {
			// Always report how many round trips were burned — a
			// first-attempt failure reads "after 1 attempt", not a bare
			// error that hides whether the budget was even used.
			return fmt.Errorf("%w (after %s)", err, plural(attempt+1, "attempt"))
		}
		// Always draw the jitter so the PRNG consumption order — and with
		// it every seeded driver's output — does not depend on which
		// attempts carried a Retry-After header.
		delay := c.backoff(attempt)
		if retryAfter >= 0 {
			delay = retryAfter
		}
		c.retried.Add(1)
		c.Logf("retry %d/%d for %s %s in %s: %v", attempt+1, c.retries, method, url, delay, err)
		c.Sleep(delay)
	}
}

// attempt performs one round trip. permanent reports a failure retries
// cannot help. retryAfter is the server's Retry-After translated to a
// wait: -1 when absent or unparseable (use the computed backoff), 0 or
// more to honor the server's ask — an explicit `Retry-After: 0` means
// "retry immediately", which is distinct from no header at all.
func (c *Client) attempt(method, url string, body []byte, out any) (retryAfter time.Duration, permanent bool, err error) {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return -1, true, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if len(body) > 0 {
		// Every reader handed to the transport — the body and any
		// GetBody gives for a replay on a stale connection — counts in
		// sent until the transport closes it, and the attempt waits for
		// all of them, after the response body is closed.
		var sent sync.WaitGroup
		open := func() (io.ReadCloser, error) {
			sent.Add(1)
			b := &sentBody{done: sent.Done}
			b.Reset(body)
			return b, nil
		}
		req.Body, _ = open()
		req.GetBody = open
		req.ContentLength = int64(len(body))
		defer sent.Wait()
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return -1, false, err // transport failure: connection reset, refused, dropped response
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return -1, false, fmt.Errorf("%s: reading response: %w", url, err)
	}
	if resp.StatusCode/100 == 2 {
		if out == nil {
			return -1, true, nil
		}
		if err := json.Unmarshal(raw, out); err != nil {
			return -1, true, fmt.Errorf("%s: %w", url, err)
		}
		return -1, true, nil
	}
	apiErr := api.Error{Code: fmt.Sprintf("http_%d", resp.StatusCode), Error: string(raw)}
	var decoded api.Error
	if json.Unmarshal(raw, &decoded) == nil && decoded.Error != "" {
		apiErr = decoded
	}
	err = &StatusError{Status: resp.StatusCode, Code: apiErr.Code, Message: apiErr.Error, URL: url}
	if !retryableStatus(resp.StatusCode) {
		return -1, true, err
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if d, ok := parseRetryAfter(s, c.now()); ok {
			if d > c.max {
				d = c.max // a server may ask for minutes; the retry budget won't survive that
			}
			return d, false, err
		}
	}
	return -1, false, err
}

// sentBody is one request body in the transport's hands: it reads the
// caller's bytes and calls done on its first Close.
type sentBody struct {
	bytes.Reader
	done func()
	once sync.Once
}

func (b *sentBody) Close() error {
	b.once.Do(b.done)
	return nil
}

// parseRetryAfter decodes both RFC 9110 forms of Retry-After: a
// non-negative decimal count of seconds, or an HTTP-date (RFC 1123 and
// the obsolete variants net/http accepts). A date in the past — the
// server said "now" — and an explicit 0 both mean retry immediately.
// Negative seconds and anything unparseable are rejected so the caller
// falls back to computed backoff.
func parseRetryAfter(s string, now time.Time) (time.Duration, bool) {
	s = strings.TrimSpace(s)
	if secs, err := strconv.Atoi(s); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(s); err == nil {
		d := t.Sub(now)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}

// backoff computes the jittered exponential delay for one attempt:
// half the window deterministic, half uniform random, capped at max.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.base << uint(attempt)
	if d > c.max || d <= 0 {
		d = c.max
	}
	c.rngMu.Lock()
	jitter := time.Duration(c.rng.Int63n(int64(d/2) + 1))
	c.rngMu.Unlock()
	return d/2 + jitter
}

// plural formats "1 attempt" / "3 attempts".
func plural(n int, noun string) string {
	if n == 1 {
		return fmt.Sprintf("%d %s", n, noun)
	}
	return fmt.Sprintf("%d %ss", n, noun)
}

// StatusError is a non-2xx API response surfaced as an error: the HTTP
// status plus the decoded api.Error body. Callers that must distinguish
// "the service answered with an error" from "the request never got an
// answer" (transport failure, *url.Error) unwrap it with errors.As — the
// fleet gateway does exactly that to decide between surfacing a
// replica's verdict and failing the session over.
type StatusError struct {
	Status  int    // HTTP status code
	Code    string // api.Error.Code (or synthesized "http_<status>")
	Message string // api.Error.Error
	URL     string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("%s: %s (%s)", e.URL, e.Message, e.Code)
}
