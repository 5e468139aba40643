package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"soundboost/internal/testfix"
)

// TestGatewayConcurrentBodies posts distinct chunk bodies into six
// sessions through the gateway at once, with Replication 2: every line
// of every owner and follower journal must be the chunk posted. The
// gateway checks each chunk in a pooled buffer, forwards those bytes to
// the owner and splices them into one pooled JournalAppend body for the
// follower; both buffers are recycled once the last Do sending them has
// returned. A buffer recycled any earlier shows here as a failed post,
// a missing line, or another body's bytes in a line, and under -race as
// a write to a buffer the transport is still reading.
//
// The bodies are not json.Marshal's, so a re-encoded line differs: two
// of every three are pretty-printed, which the check takes as sent (a
// journal line is the body with its newlines turned to spaces), and the
// third spells its first key "SEQ", which only encoding/json accepts —
// that chunk goes on as its json.Marshal encoding.
func TestGatewayConcurrentBodies(t *testing.T) {
	const n = 6
	fx := testfix.Get(t)
	g, reps := startFleet(t, 3, Config{Replication: 2})
	dirs := map[string]string{}
	for _, r := range reps {
		dirs[r.name] = r.journalDir
	}

	type stream struct {
		base, gwID   string
		bodies, want [][]byte
	}
	streams := make([]stream, n)
	for i := range streams {
		f := fx.Calib[i%len(fx.Calib)]
		reqs, err := testfix.Frames(f, 4+i) // distinct chunk boundaries per stream
		if err != nil {
			t.Fatal(err)
		}
		st := &streams[i]
		st.base, st.gwID = openVia(t, g, f)
		for k, r := range reqs {
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			if k%3 == 2 {
				st.bodies = append(st.bodies, append([]byte(`{"SEQ"`), b[len(`{"seq"`):]...))
				st.want = append(st.want, b)
				continue
			}
			var pretty bytes.Buffer
			if err := json.Indent(&pretty, b, "", " "); err != nil {
				t.Fatal(err)
			}
			st.bodies = append(st.bodies, pretty.Bytes())
			st.want = append(st.want, bytes.ReplaceAll(pretty.Bytes(), []byte("\n"), []byte(" ")))
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, n)
	for _, st := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, body := range st.bodies {
				if w := hdo(nil, g, "POST", st.base+"/frames", body); w.Code != http.StatusOK {
					errs <- fmt.Errorf("%s chunk %d: status %d: %s", st.gwID, k+1, w.Code, w.Body)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for _, st := range streams {
		rt, ok := g.lookupRoute(st.gwID)
		if !ok {
			t.Fatalf("no route for %s", st.gwID)
		}
		rt.mu.Lock()
		owner, backendID, followers := rt.replica, rt.backendID, rt.followers
		rt.mu.Unlock()
		if len(followers) != 1 {
			t.Fatalf("%s: followers %v, want one (Replication 2)", st.gwID, followers)
		}
		for _, path := range []string{
			filepath.Join(dirs[owner], backendID+".chunks.jsonl"),
			filepath.Join(dirs[followers[0]], "followers", st.gwID+".chunks.jsonl"),
		} {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
			if len(lines) != len(st.want) {
				t.Fatalf("%s: %d lines, want %d", path, len(lines), len(st.want))
			}
			for k, line := range lines {
				if !bytes.Equal(line, st.want[k]) {
					t.Errorf("%s line %d is not the chunk posted (%d bytes, want %d)", path, k+1, len(line), len(st.want[k]))
				}
			}
		}
	}
}
