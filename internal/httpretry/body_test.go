package httpretry

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// lateTransport answers each attempt with the next scripted status at
// once, and reads and closes the request body later, on another
// goroutine — what the RoundTripper contract allows. With replay set, it
// also takes a second reader from GetBody, as net/http does to resend a
// request on a stale keep-alive connection, and reads and closes that
// one late too. It records what each late reader read, just before
// closing it.
type lateTransport struct {
	statuses []int
	replay   bool

	mu    sync.Mutex
	calls int
	reads [][]byte
}

func (lt *lateTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	lt.mu.Lock()
	status := lt.statuses[min(lt.calls, len(lt.statuses)-1)]
	lt.calls++
	lt.mu.Unlock()
	body := req.Body
	if lt.replay {
		req.Body.Close()
		var err error
		if body, err = req.GetBody(); err != nil {
			return nil, err
		}
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		b, _ := io.ReadAll(body)
		lt.mu.Lock()
		lt.reads = append(lt.reads, b)
		lt.mu.Unlock()
		body.Close()
	}()
	return &http.Response{
		StatusCode: status,
		Header:     http.Header{},
		Body:       io.NopCloser(strings.NewReader(`{"code":"x","error":"scripted"}`)),
		Request:    req,
	}, nil
}

// TestDoWaitsForBodyClose: Do returns only after the transport has
// closed every request body it was handed — on a 2xx, on a permanent
// error, across a retried attempt, and for the readers GetBody gives.
// Each late reader read the whole body, and the caller may overwrite
// the body the moment Do returns.
func TestDoWaitsForBodyClose(t *testing.T) {
	for _, tc := range []struct {
		name     string
		statuses []int
		replay   bool
		wantErr  bool
	}{
		{"ok", []int{http.StatusOK}, false, false},
		{"permanent", []int{http.StatusBadRequest}, false, true},
		{"retried", []int{http.StatusServiceUnavailable, http.StatusOK}, false, false},
		{"replayed", []int{http.StatusOK}, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lt := &lateTransport{statuses: tc.statuses, replay: tc.replay}
			c := New(&http.Client{Transport: lt}, 3, time.Millisecond, 1)
			c.Sleep = func(time.Duration) {}
			body := []byte(`{"seq":1,"close":true}`)
			want := bytes.Clone(body)
			if err := c.Do("POST", "http://replica.invalid/v1/x", body, nil); (err != nil) != tc.wantErr {
				t.Fatalf("Do: %v, want error %v", err, tc.wantErr)
			}
			clear(body) // the caller's to reuse now
			lt.mu.Lock()
			defer lt.mu.Unlock()
			if len(lt.reads) != len(tc.statuses) {
				t.Fatalf("Do returned with %d of %d request bodies closed", len(lt.reads), len(tc.statuses))
			}
			for i, got := range lt.reads {
				if !bytes.Equal(got, want) {
					t.Errorf("attempt %d read %q, want %q", i+1, got, want)
				}
			}
		})
	}
}

// TestDoDeclaresContentLength: the request carries its body's length,
// so nothing is sent chunked — a replica presizes its read buffer from
// Content-Length.
func TestDoDeclaresContentLength(t *testing.T) {
	type seen struct {
		length   int64
		encoding []string
		body     string
	}
	got := make(chan seen, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		got <- seen{r.ContentLength, r.TransferEncoding, string(b)}
		ok(w)
	}))
	t.Cleanup(srv.Close)
	body := `{"seq":1,"close":true}`
	if err := New(nil, 0, time.Millisecond, 1).Do("POST", srv.URL, []byte(body), nil); err != nil {
		t.Fatal(err)
	}
	s := <-got
	if s.length != int64(len(body)) || len(s.encoding) != 0 || s.body != body {
		t.Fatalf("server saw Content-Length %d, Transfer-Encoding %v, body %q; want %d, none, %q",
			s.length, s.encoding, s.body, len(body), body)
	}
}
