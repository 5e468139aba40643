package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"

	"soundboost/api"
)

// TestConcurrentJournalBodies posts distinct chunk bodies into
// concurrent sessions, and the same chunks as concurrent follower
// appends: every journal line must be byte-equal to the chunk posted.
// Both handlers return a body's buffer to the shared pool once it is
// journalled. A buffer recycled before its journal write shows here as
// a failed append, a re-encoded line, or another body's bytes in a
// line, and under -race as a write to a buffer still being read.
func TestConcurrentJournalBodies(t *testing.T) {
	const n = 6
	fx := getFixture(t)
	s := newTestServer(t, Config{JournalDir: t.TempDir(), MaxSessions: n})

	type stream struct {
		base, follower string
		req            api.SessionRequest
		bodies         [][]byte
	}
	streams := make([]stream, n)
	for i := range streams {
		f := fx.calib[i%len(fx.calib)]
		reqs, err := framesFromFlight(f, 4+i) // distinct chunk boundaries per stream
		if err != nil {
			t.Fatal(err)
		}
		st := &streams[i]
		st.base = openSession(t, s, f)
		st.follower = fmt.Sprintf("g-%08d", i+1)
		st.req = api.SessionRequest{Flight: f.Name, SampleRateHz: f.Audio.SampleRate}
		for _, r := range reqs {
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			// A space before each key: the body is not json.Marshal's,
			// so a line re-encoded from the decoded chunk differs too.
			st.bodies = append(st.bodies, bytes.ReplaceAll(b, []byte(`,"`), []byte(`, "`)))
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2*n)
	post := func(path string, body func(k int, chunk []byte) []byte, chunks [][]byte) {
		defer wg.Done()
		for k, c := range chunks {
			if w := do(nil, s, "POST", path, bytes.NewReader(body(k, c))); w.Code != http.StatusOK {
				errs <- fmt.Errorf("%s chunk %d: status %d: %s", path, k+1, w.Code, w.Body)
				return
			}
		}
	}
	for _, st := range streams {
		wg.Add(2)
		go post(st.base+"/frames", func(_ int, c []byte) []byte { return c }, st.bodies)
		req, err := json.Marshal(st.req)
		if err != nil {
			t.Fatal(err)
		}
		go post("/v1/sessions/"+st.follower+"/journal/append", func(k int, c []byte) []byte {
			return fmt.Appendf(nil, `{"schema_version":%q,"seq":%d,"request":%s,"chunk":%s}`, api.Version, k+1, req, c)
		}, st.bodies)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for _, st := range streams {
		for _, path := range []string{
			s.journal.ChunksPath(strings.TrimPrefix(st.base, "/v1/sessions/")),
			s.followers.ChunksPath(st.follower),
		} {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
			if len(lines) != len(st.bodies) {
				t.Fatalf("%s: %d lines, want %d", path, len(lines), len(st.bodies))
			}
			for k, line := range lines {
				if !bytes.Equal(line, st.bodies[k]) {
					t.Errorf("%s line %d is not the chunk posted (%d bytes, posted %d)", path, k+1, len(line), len(st.bodies[k]))
				}
			}
		}
	}
}
