package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"soundboost/api"
)

// fuzzLog is a valid chunk log of three lines, the middle one written
// from a pretty-printed client body (so one of its lines went through
// newline flattening).
func fuzzLog(f *testing.F) []byte {
	f.Helper()
	st, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	sj, err := st.Session("s-00000001")
	if err != nil {
		f.Fatal(err)
	}
	pretty, err := json.MarshalIndent(chunk(2, false), "", "\t")
	if err != nil {
		f.Fatal(err)
	}
	var decoded api.FramesRequest
	if err := api.DecodeStrict(bytes.NewReader(pretty), &decoded); err != nil {
		f.Fatal(err)
	}
	for _, c := range []api.FramesRequest{chunk(1, false), decoded, chunk(3, true)} {
		if err := sj.AppendChunk(c); err != nil {
			f.Fatal(err)
		}
	}
	sj.CloseChunks()
	raw, err := os.ReadFile(st.ChunksPath("s-00000001"))
	if err != nil {
		f.Fatal(err)
	}
	return raw
}

// strictDecode is the reference for whether one line is a readable
// chunk: encoding/json, strict, as the server validates bodies.
func strictDecode(line []byte) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var req api.FramesRequest
	if err := dec.Decode(&req); err != nil {
		return err
	}
	if err := dec.Decode(&struct{}{}); !errors.Is(err, io.EOF) {
		return fmt.Errorf("trailing data")
	}
	return nil
}

// FuzzReadChunkLog checks the scanner's two promises on a valid log:
//   - cut at any byte, it reports only a torn tail — never corruption —
//     and recovers every line that was complete before the cut;
//   - with one byte of a non-final line overwritten, it reports
//     corruption naming that line exactly when the line no longer
//     decodes, and otherwise recovers every line.
func FuzzReadChunkLog(f *testing.F) {
	log := fuzzLog(f)
	lines := bytes.SplitAfter(bytes.TrimSuffix(log, []byte("\n")), []byte("\n"))
	f.Add(uint32(0), uint8(0), uint32(0), byte('#'))
	f.Add(uint32(len(log)/2), uint8(1), uint32(7), byte('x'))
	f.Add(uint32(len(lines[0])-1), uint8(0), uint32(3), byte(' '))
	f.Add(uint32(len(log)), uint8(1), uint32(1), byte('\r'))
	path := filepath.Join(f.TempDir(), "s.chunks.jsonl")
	f.Fuzz(func(t *testing.T, cut uint32, line uint8, pos uint32, b byte) {

		n := int(cut) % (len(log) + 1)
		if err := os.WriteFile(path, log[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		chunks, corrupt := readChunkLog(path)
		if corrupt != "" {
			t.Fatalf("log cut at byte %d read as corrupt: %s", n, corrupt)
		}
		complete, off := 0, 0
		for _, l := range lines {
			if off+len(bytes.TrimSuffix(l, []byte("\n"))) <= n {
				complete++
			}
			off += len(l)
		}
		if len(chunks) != complete {
			t.Fatalf("log cut at byte %d: recovered %d chunks, want %d", n, len(chunks), complete)
		}
		for i, c := range chunks {
			if c.Seq != i+1 {
				t.Fatalf("log cut at byte %d: chunk %d has seq %d", n, i, c.Seq)
			}
		}

		k := int(line) % (len(lines) - 1)
		damaged := bytes.Clone(lines[k])
		at := int(pos) % (len(damaged) - 1) // never the line's own newline
		if b == '\n' {
			return // a new line break is a different log, not a damaged line
		}
		damaged[at] = b
		var out []byte
		for i, l := range lines {
			if i == k {
				l = damaged
			}
			out = append(out, l...)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		chunks, corrupt = readChunkLog(path)
		if strictDecode(bytes.TrimSuffix(damaged, []byte("\n"))) != nil {
			if want := fmt.Sprintf("line %d ", k+1); !strings.Contains(corrupt, want) || len(chunks) != k {
				t.Fatalf("line %d damaged at %d to %q: corrupt %q with %d chunks, want %q with %d",
					k+1, at, b, corrupt, len(chunks), want, k)
			}
		} else if corrupt != "" || len(chunks) != len(lines) {
			t.Fatalf("line %d changed at %d to %q but still valid: corrupt %q, %d chunks", k+1, at, b, corrupt, len(chunks))
		}
	})
}
