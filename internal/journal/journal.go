// Package journal is the durable session-state format shared by the RCA
// service and the fleet gateway: a per-session write-ahead chunk log plus
// an atomically-rewritten meta snapshot. `internal/server` writes it to
// survive crashes (see DESIGN.md "Crash-safe session journal");
// `internal/fleet` reads it back as the transfer format when a session
// migrates or fails over between replicas — the chunk log replayed
// through a fresh engine's normal publish path reproduces the original
// verdict byte-identically.
//
// Two files per session under one directory:
//
//   - <id>.meta.json — the session's identity and lifecycle: the original
//     SessionRequest, current state, highest accepted sequence number,
//     failure cause, and (once finished) the final report. Rewritten
//     atomically (temp file + rename) on every transition, so the file is
//     always a complete, parseable snapshot.
//   - <id>.chunks.jsonl — the write-ahead chunk log: each accepted
//     FramesRequest appended as one JSON line and fsynced BEFORE the
//     chunk is published to the session bus (and so before the client
//     sees its 200). A torn trailing line — the crash arriving mid-write
//     — is treated as end-of-log: the chunk was never acknowledged, so
//     the client will resend it. A malformed line anywhere BEFORE the
//     tail is different: those chunks were acknowledged, so losing them
//     silently would change the verdict — the load surfaces it as a
//     corruption cause and the session must be recovered as failed.
package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"soundboost/api"
)

// ErrEmptyJournal marks a session journal that exists on disk but holds
// no usable state: a zero-byte (or whitespace-only) meta snapshot, or a
// chunk log with no meta beside it. Both are the debris of a crash
// landing inside session creation — before the first atomic meta write
// completed — so nothing was ever acknowledged and nothing is lost.
// Callers must treat the session as a clean new one (recovery skips it,
// a gateway failover replays zero chunks), NOT as corrupt: corruption
// means acknowledged state is unreadable, which this is not.
var ErrEmptyJournal = errors.New("empty session journal")

// EmptyJournalError carries the session id of an empty journal so
// recovery can clean up its leftover files. It matches ErrEmptyJournal
// under errors.Is.
type EmptyJournalError struct{ ID string }

func (e *EmptyJournalError) Error() string {
	return fmt.Sprintf("journal %s: %s", e.ID, ErrEmptyJournal)
}

func (e *EmptyJournalError) Unwrap() error { return ErrEmptyJournal }

// Meta is the durable per-session snapshot.
type Meta struct {
	ID        string             `json:"id"`
	Req       api.SessionRequest `json:"request"`
	State     string             `json:"state"`
	LastSeq   int                `json:"last_seq"`
	FailCause string             `json:"fail_cause,omitempty"`
	// Report holds the final verdict once the session is done — the one
	// piece of state cheaper to persist than to recompute.
	Report *api.Report `json:"report,omitempty"`
	// Engine is the janitor's periodic progress checkpoint. Informational
	// (recovery replays the chunk log rather than trusting it): it lets an
	// operator see how far a crashed session had gotten.
	Engine api.EngineStatus `json:"engine"`
}

// Recovered is one journaled session as read back from disk.
type Recovered struct {
	Meta   Meta
	Chunks []api.FramesRequest
	// Corrupt, when non-empty, records that the chunk log is damaged
	// before its tolerated torn tail: one or more ACKNOWLEDGED chunks are
	// unreadable, so a replay cannot reproduce the session. The owner must
	// surface the session as failed with this cause rather than silently
	// replaying a truncated log.
	Corrupt string
}

// Store is one directory of session journals.
type Store struct {
	dir string
}

// Open creates (if needed) and opens a journal directory.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal dir: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// MetaPath returns the meta snapshot path for a session id.
func (s *Store) MetaPath(id string) string { return filepath.Join(s.dir, id+".meta.json") }

// ChunksPath returns the chunk-log path for a session id.
func (s *Store) ChunksPath(id string) string { return filepath.Join(s.dir, id+".chunks.jsonl") }

// Session creates (or reopens for append) a session's journal files.
func (s *Store) Session(id string) (*Session, error) {
	f, err := os.OpenFile(s.ChunksPath(id), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal chunks: %w", err)
	}
	return &Session{store: s, id: id, chunks: f}, nil
}

// Load reads every journaled session, in id order. A session whose meta
// is unreadable is skipped (reported in errs) rather than blocking the
// rest of the recovery; chunk-log damage is reported per session via
// Recovered.Corrupt (see the package comment for the torn-tail
// exception). Empty journals — a blank meta, or an orphan chunk log
// whose meta never landed — are reported as EmptyJournalError so the
// caller can clean them up as never-started sessions.
func (s *Store) Load() (sessions []Recovered, errs []error) {
	metas, err := filepath.Glob(filepath.Join(s.dir, "*.meta.json"))
	if err != nil {
		return nil, []error{err}
	}
	sort.Strings(metas)
	seen := make(map[string]bool, len(metas))
	for _, path := range metas {
		seen[strings.TrimSuffix(filepath.Base(path), ".meta.json")] = true
		rec, err := s.loadMeta(path)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		sessions = append(sessions, rec)
	}
	// Orphan chunk logs: a crash between Session() creating the chunk
	// file and the first WriteMeta leaves a log with no meta. Nothing in
	// it was ever acknowledged (meta lands before the first chunk ack),
	// so surface each as an empty journal, not silently skip the file.
	chunkLogs, err := filepath.Glob(filepath.Join(s.dir, "*.chunks.jsonl"))
	if err != nil {
		return sessions, append(errs, err)
	}
	sort.Strings(chunkLogs)
	for _, path := range chunkLogs {
		id := strings.TrimSuffix(filepath.Base(path), ".chunks.jsonl")
		if !seen[id] {
			errs = append(errs, &EmptyJournalError{ID: id})
		}
	}
	return sessions, errs
}

// LoadSession reads one journaled session by id — the fleet gateway's
// failover path, which transfers a single session rather than a whole
// replica's table. A journal that exists but holds no usable state (see
// ErrEmptyJournal) is reported as such, distinct from both a missing
// session and a corrupt one.
func (s *Store) LoadSession(id string) (Recovered, error) {
	rec, err := s.loadMeta(s.MetaPath(id))
	if err != nil && errors.Is(err, os.ErrNotExist) {
		// No meta: an orphan chunk log beside it means session creation
		// was interrupted before the first meta write — an empty journal,
		// not a missing session.
		if _, serr := os.Stat(s.ChunksPath(id)); serr == nil {
			return Recovered{}, &EmptyJournalError{ID: id}
		}
	}
	return rec, err
}

func (s *Store) loadMeta(path string) (Recovered, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Recovered{}, fmt.Errorf("journal %s: %w", filepath.Base(path), err)
	}
	if len(bytes.TrimSpace(raw)) == 0 {
		// A blank snapshot: the crash landed before the first atomic meta
		// write (or the file was truncated by something outside the
		// atomic-rename protocol). Nothing acknowledged lives here.
		return Recovered{}, &EmptyJournalError{ID: strings.TrimSuffix(filepath.Base(path), ".meta.json")}
	}
	var meta Meta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return Recovered{}, fmt.Errorf("journal %s: %w", filepath.Base(path), err)
	}
	if meta.ID == "" {
		return Recovered{}, fmt.Errorf("journal %s: missing session id", filepath.Base(path))
	}
	rec := Recovered{Meta: meta}
	rec.Chunks, rec.Corrupt = readChunkLog(s.ChunksPath(meta.ID))
	return rec, nil
}

// RemoveSession deletes a session's journal files by id — recovery's
// cleanup path for empty journals, which have no Session handle to call
// Remove on.
func (s *Store) RemoveSession(id string) {
	_ = os.Remove(s.MetaPath(id))
	_ = os.Remove(s.ChunksPath(id))
}

// readChunkLog parses a chunk log, distinguishing the tolerated torn
// tail (the final non-empty line fails to parse: the crash landed
// mid-append, nothing acknowledged was lost) from mid-log corruption
// (an earlier line fails: acknowledged chunks are gone — corrupt
// carries the cause and parsing stops at the damage). Lines are decoded
// by api.DecodeStrict, the decoder that validated them on arrival.
func readChunkLog(path string) (chunks []api.FramesRequest, corrupt string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, "" // no chunk log at all: a session that never saw frames
	}
	lines := bytes.Split(raw, []byte{'\n'})
	// Find the index of the last non-empty line so a parse failure there
	// can be classified as the torn tail.
	lastNonEmpty := -1
	for i, line := range lines {
		if len(bytes.TrimSpace(line)) > 0 {
			lastNonEmpty = i
		}
	}
	for i, line := range lines {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var req api.FramesRequest
		if err := api.DecodeStrict(bytes.NewReader(line), &req); err != nil {
			if i == lastNonEmpty {
				// Torn tail from a crash mid-append: the chunk was never
				// acknowledged, so dropping it loses nothing the client
				// believes was accepted.
				return chunks, ""
			}
			return chunks, fmt.Sprintf("chunk log corrupt at line %d (before the torn-tail window): %v", i+1, err)
		}
		chunks = append(chunks, req)
	}
	return chunks, ""
}

// Session is one session's writable handle on the journal. Meta writes
// and chunk appends are serialized by mu; the chunk file stays open for
// the session's accepting lifetime.
type Session struct {
	store *Store
	id    string

	mu     sync.Mutex
	chunks *os.File
}

// ID returns the session id this handle journals.
func (sj *Session) ID() string { return sj.id }

// WriteMeta atomically replaces the session's meta snapshot.
func (sj *Session) WriteMeta(m Meta) error {
	sj.mu.Lock()
	defer sj.mu.Unlock()
	raw, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return WriteFileAtomic(sj.store.MetaPath(sj.id), append(raw, '\n'))
}

// WriteFileAtomic replaces path with data so that a reader sees the old
// file or the new one, never a torn mix, and the replacement survives
// power loss: data goes to a temp file beside path, which is fsynced and
// renamed over path, and then the directory is fsynced so the rename
// itself is durable.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	// Best effort: not every filesystem can fsync a directory.
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// AppendChunk durably logs one accepted FramesRequest. It must return
// before the chunk is published or acknowledged — the write-ahead
// ordering is what makes "accepted" mean "survives a crash".
//
// The line is api.EncodeChunk(req): for a request decoded from a
// client's body, those very bytes, not a re-encoding. JSON allows
// newlines only as whitespace, so any in the body become spaces and the
// chunk stays one line.
func (sj *Session) AppendChunk(req api.FramesRequest) error {
	body, err := api.EncodeChunk(req)
	if err != nil {
		return err
	}
	return sj.appendLine(body)
}

// AppendChecked is AppendChunk for a chunk checked but not decoded:
// the line is c.Bytes(), the bytes AppendChunk writes for the same body
// decoded in full.
func (sj *Session) AppendChecked(c api.CheckedChunk) error {
	body := c.Bytes()
	if body == nil {
		return fmt.Errorf("journal: checked chunk holds no bytes")
	}
	return sj.appendLine(body)
}

// appendLine durably logs one chunk body as one line.
func (sj *Session) appendLine(body []byte) error {
	// One write per line, so a crash tears at most the final line.
	bp := lineBufs.Get().(*[]byte)
	defer lineBufs.Put(bp)
	line := append(append((*bp)[:0], body...), '\n')
	*bp = line
	flattenNewlines(line[:len(line)-1])
	sj.mu.Lock()
	defer sj.mu.Unlock()
	if sj.chunks == nil {
		return fmt.Errorf("journal chunk log closed")
	}
	if _, err := sj.chunks.Write(line); err != nil {
		return err
	}
	return sj.chunks.Sync()
}

// lineBufs pools AppendChunk's line buffers: a chunk body is large
// (about 0.7 MB for 0.5 s of 4-microphone 16 kHz audio) and written at
// chunk rate.
var lineBufs = sync.Pool{New: func() any { return new([]byte) }}

// flattenNewlines turns the CR and LF bytes of a JSON text into spaces.
// Outside strings they are whitespace, and inside strings JSON forbids
// them unescaped, so the text means the same.
func flattenNewlines(b []byte) {
	for _, c := range []byte{'\n', '\r'} {
		for i := 0; ; {
			j := bytes.IndexByte(b[i:], c)
			if j < 0 {
				break
			}
			i += j
			b[i] = ' '
		}
	}
}

// CloseChunks releases the chunk-log handle once the session stops
// accepting frames (the file itself stays for recovery until Remove).
func (sj *Session) CloseChunks() {
	sj.mu.Lock()
	defer sj.mu.Unlock()
	if sj.chunks != nil {
		sj.chunks.Close()
		sj.chunks = nil
	}
}

// Remove deletes the session's journal files (eviction: the session is
// gone from the table, so recovering it would resurrect a ghost).
func (sj *Session) Remove() {
	sj.CloseChunks()
	_ = os.Remove(sj.store.MetaPath(sj.id))
	_ = os.Remove(sj.store.ChunksPath(sj.id))
}
