// Package store is the crash-safe, content-addressed result store behind
// cmd/experiments' -checkpoint/-resume flags. A sweep directory holds:
//
//   - MANIFEST.json — identifies the sweep (format version, scale
//     fingerprint, seed) so a resume into a foreign directory fails fast
//     instead of silently mixing incompatible results;
//   - results.jsonl — one fsynced record per completed job, keyed by a
//     canonical content hash and carrying a SHA-256 checksum of its payload;
//   - quarantine.jsonl — records that failed validation on open (truncated
//     tails from a crash, bit flips, conflicting duplicates, lines the store
//     did not write byte for byte), kept for forensics and never replayed.
//
// The durability contract: a record is either fully present and
// checksum-valid, or it is quarantined on the next open — a killed process
// can lose at most the in-flight record, never corrupt a finished one. Open
// rewrites results.jsonl atomically (temp file, fsync, rename) whenever it
// quarantines, so recovery is idempotent: a second open quarantines nothing.
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// Version is the store format version; bumped on incompatible changes.
const Version = 1

const (
	manifestName   = "MANIFEST.json"
	recordsName    = "results.jsonl"
	quarantineName = "quarantine.jsonl"
)

// Manifest identifies the sweep a directory belongs to. Every field must
// match for a resume to proceed.
type Manifest struct {
	Version   int    `json:"version"`
	ScaleName string `json:"scale"`
	// ScaleFP fingerprints every sizing parameter of the scale (not just
	// its name), so a resume against a tweaked scale is rejected rather
	// than replaying results computed under different parameters.
	ScaleFP string `json:"scale_fingerprint"`
	Seed    int64  `json:"seed"`
}

// Record is one persisted job result. Key is the content-addressed job
// identity (hex SHA-256 over the canonical job description), ID the
// human-readable job key it was derived from, and Sum the hex SHA-256 of
// the exact Payload bytes.
type Record struct {
	Key     string          `json:"key"`
	ID      string          `json:"id"`
	Sum     string          `json:"sha256"`
	Payload json.RawMessage `json:"payload"`
}

// Verify re-checks the record's payload against its stored checksum.
func (r Record) Verify() error {
	if sum := payloadSum(r.Payload); sum != r.Sum {
		return fmt.Errorf("record %s (%s): checksum mismatch: stored %s, payload hashes to %s",
			r.Key, r.ID, r.Sum, sum)
	}
	return nil
}

func payloadSum(p []byte) string {
	s := sha256.Sum256(p)
	return hex.EncodeToString(s[:])
}

// Key derives the canonical content hash for a job from its identifying
// parts: the hex SHA-256 of every part written as "<len>:<part>|". Parts are
// length-prefixed before hashing, so no concatenation of distinct part lists
// can collide.
func Key(parts ...string) string {
	var buf [256]byte
	b := buf[:0]
	for _, p := range parts {
		b = strconv.AppendInt(b, int64(len(p)), 10)
		b = append(append(append(b, ':'), p...), '|')
	}
	sum := sha256.Sum256(b)
	var out [2 * sha256.Size]byte
	return string(hex.AppendEncode(out[:0], sum[:]))
}

// DecodeRecord parses and validates one results.jsonl line. It accepts only
// the line the store writes for a record, byte for byte:
// {"key":"<64 hex>","id":<string>,"sha256":"<64 hex>","payload":<value>}.
// Anything else, or a payload that does not hash to its checksum, is an
// error and must not be replayed. The returned Payload aliases line.
func DecodeRecord(line []byte) (Record, error) {
	// The fields in the order mustMarshal writes them. The key and checksum
	// are hex, and a canonical id escapes every quote, so no field holds the
	// separator after it.
	rest, ok := bytes.CutPrefix(line, []byte(`{"key":"`))
	key, rest, ok2 := bytes.Cut(rest, []byte(`","id":`))
	id, rest, ok3 := bytes.Cut(rest, []byte(`,"sha256":"`))
	sum, rest, ok4 := bytes.Cut(rest, []byte(`","payload":`))
	payload, ok5 := bytes.CutSuffix(rest, []byte("}"))
	r := Record{Key: string(key), Sum: string(sum), Payload: payload}
	switch {
	case !ok || !ok2 || !ok3 || !ok4 || !ok5 || json.Unmarshal(id, &r.ID) != nil:
		return Record{}, notRecord(line)
	case !validHex(r.Key):
		return Record{}, fmt.Errorf("malformed record key %q", r.Key)
	case !validHex(r.Sum):
		return Record{}, fmt.Errorf("malformed record checksum %q", r.Sum)
	case !json.Valid(payload):
		return Record{}, errors.New("malformed record: payload is not a JSON value")
	}
	if err := r.Verify(); err != nil {
		return Record{}, err
	}
	// The line is mustMarshal(r) exactly when the id and the payload are
	// encoded as json.Marshal encodes them: the rest was matched above.
	if canon, _ := json.Marshal(r.ID); !bytes.Equal(canon, id) || !compacted(payload) {
		return Record{}, errNonCanonical
	}
	return r, nil
}

var errNonCanonical = errors.New("non-canonical record line: JSON, but not the store's encoding of a record")

// notRecord is the error for a line without the store's record layout: a
// JSON line (reordered fields, whitespace, escapes) is non-canonical,
// anything else (a truncated tail, a flipped quote) malformed.
func notRecord(line []byte) error {
	if json.Valid(line) {
		return errNonCanonical
	}
	return errors.New("malformed record: not JSON")
}

// compacted reports whether the valid JSON value p is unchanged by the
// compaction json.Marshal applies to a json.RawMessage: no whitespace
// outside strings, and none of the characters it escapes for HTML.
func compacted(p []byte) bool {
	// Tabs and line breaks are never inside a valid string; the others are
	// escaped wherever they are.
	for _, c := range []string{"\t", "\n", "\r", "<", ">", "&", "\u2028", "\u2029"} {
		if bytes.Contains(p, []byte(c)) {
			return false
		}
	}
	if bytes.IndexByte(p, ' ') < 0 {
		return true
	}
	// A space stays only inside a string.
	inString := false
	for i := 0; i < len(p); i++ {
		switch p[i] {
		case '"':
			inString = !inString
		case '\\': // only inside a string: skip the escaped byte
			i++
		case ' ':
			if !inString {
				return false
			}
		}
	}
	return true
}

func validHex(s string) bool {
	if len(s) != sha256.Size*2 {
		return false
	}
	for _, c := range s {
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'f':
		default:
			return false
		}
	}
	return true
}

// Store is an open sweep directory. Put is safe for concurrent use by the
// worker pool; Get is read-only after open.
type Store struct {
	dir string

	mu      sync.Mutex
	f       *os.File
	records map[string]Record
	// loaded and quarantined summarize the last open: how many valid
	// records were recovered and how many lines were rejected.
	loaded      int
	quarantined int
	afterAppend func(total int)
}

// Create opens dir as a sweep store, creating the directory and manifest
// if needed. An existing manifest must match man exactly (so re-running
// with -checkpoint into the same directory resumes it, and running with a
// different scale or seed fails instead of poisoning it).
func Create(dir string, man Manifest) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	mPath := filepath.Join(dir, manifestName)
	if _, err := os.Stat(mPath); errors.Is(err, os.ErrNotExist) {
		if err := WriteFileAtomic(mPath, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			return enc.Encode(man)
		}); err != nil {
			return nil, fmt.Errorf("writing %s: %w", mPath, err)
		}
	} else if err != nil {
		return nil, err
	}
	return open(dir, man)
}

// Open opens an existing sweep directory for resumption. A missing
// directory or manifest, or a manifest that does not match man, is an
// error naming the expected manifest file.
func Open(dir string, man Manifest) (*Store, error) {
	mPath := filepath.Join(dir, manifestName)
	if _, err := os.Stat(mPath); err != nil {
		return nil, fmt.Errorf("%s is not a resumable sweep directory: expected manifest %s (%v)",
			dir, mPath, err)
	}
	return open(dir, man)
}

func open(dir string, man Manifest) (*Store, error) {
	mPath := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(mPath)
	if err != nil {
		return nil, err
	}
	var got Manifest
	if err := json.Unmarshal(data, &got); err != nil {
		return nil, fmt.Errorf("%s: malformed manifest: %w", mPath, err)
	}
	if got != man {
		return nil, fmt.Errorf("%s does not match this run: directory holds {version %d, scale %s, fingerprint %.12s…, seed %d}, this run is {version %d, scale %s, fingerprint %.12s…, seed %d}",
			mPath, got.Version, got.ScaleName, got.ScaleFP, got.Seed,
			man.Version, man.ScaleName, man.ScaleFP, man.Seed)
	}
	s := &Store{dir: dir, records: make(map[string]Record)}
	if err := s.load(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(s.path(recordsName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	s.f = f
	return s, nil
}

func (s *Store) path(name string) string { return filepath.Join(s.dir, name) }

// load reads results.jsonl, keeping every checksum-valid record and
// quarantining the rest. Duplicate keys with identical payloads keep the
// first copy; conflicting duplicates distrust the key: both copies and every
// later copy are quarantined. If anything was quarantined, the records file
// is compacted atomically so the next open starts clean.
func (s *Store) load() error {
	f, err := os.Open(s.path(recordsName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()

	var bad []badLine
	order := []string{} // first-seen key order, for a faithful compaction
	distrusted := map[string]bool{}
	r := bufio.NewReader(f)
	for {
		line, err := r.ReadBytes('\n')
		if len(line) > 0 {
			trimmed := bytes.TrimSuffix(line, []byte("\n"))
			if len(bytes.TrimSpace(trimmed)) == 0 {
				// Blank lines carry no data; drop silently.
			} else if rec, derr := DecodeRecord(trimmed); derr != nil {
				bad = append(bad, badLine{trimmed, derr.Error()})
			} else if distrusted[rec.Key] {
				bad = append(bad, badLine{trimmed, "record for a key with conflicting copies"})
			} else if prev, dup := s.records[rec.Key]; dup {
				if bytes.Equal(prev.Payload, rec.Payload) {
					bad = append(bad, badLine{trimmed, "duplicate record (identical payload; first copy kept)"})
				} else {
					// Two valid records disagree about the same job:
					// no copy of it can be trusted.
					bad = append(bad, badLine{trimmed, "conflicting duplicate record"})
					bad = append(bad, badLine{mustMarshal(prev), "conflicting duplicate record (first copy)"})
					delete(s.records, rec.Key)
					distrusted[rec.Key] = true
				}
			} else {
				s.records[rec.Key] = rec
				order = append(order, rec.Key)
			}
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return err
		}
	}
	s.loaded = len(s.records)
	s.quarantined = len(bad)
	if len(bad) == 0 {
		return nil
	}
	if err := s.appendQuarantine(bad); err != nil {
		return err
	}
	// Compact: rewrite only the surviving records, atomically.
	return WriteFileAtomic(s.path(recordsName), func(w io.Writer) error {
		for _, key := range order {
			rec, ok := s.records[key]
			if !ok {
				continue // dropped as a conflicting duplicate
			}
			if _, err := w.Write(append(mustMarshal(rec), '\n')); err != nil {
				return err
			}
		}
		return nil
	})
}

func mustMarshal(rec Record) []byte {
	b, err := json.Marshal(rec)
	if err != nil {
		panic(err) // Record marshaling cannot fail: all fields are marshalable
	}
	return b
}

type badLine struct {
	line   []byte
	reason string
}

func (s *Store) appendQuarantine(bad []badLine) error {
	q, err := os.OpenFile(s.path(quarantineName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer q.Close()
	enc := json.NewEncoder(q)
	for _, b := range bad {
		if err := enc.Encode(struct {
			Reason string `json:"reason"`
			Line   string `json:"line"`
		}{b.reason, string(b.line)}); err != nil {
			return err
		}
	}
	return q.Sync()
}

// Get returns the payload stored under key, re-validated against its
// checksum. A record that no longer validates is never returned.
func (s *Store) Get(key string) (json.RawMessage, bool) {
	s.mu.Lock()
	rec, ok := s.records[key]
	s.mu.Unlock()
	if !ok || rec.Verify() != nil {
		return nil, false
	}
	return rec.Payload, true
}

// Put persists payload under key: the record is appended to results.jsonl
// and fsynced before Put returns, so a completed job survives any
// subsequent crash. Re-putting an identical payload is a no-op; a
// conflicting payload for an existing key is an error (it would mean the
// run is not deterministic).
func (s *Store) Put(key, id string, payload any) error {
	raw, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	return s.PutRaw(key, id, raw)
}

// PutRaw is Put for callers that already hold the payload's exact JSON
// encoding: the given bytes are stored and replayed verbatim by Get, so
// responses built from them are byte-identical across cache hits and
// restarts (the serving daemon relies on this). The bytes must be one JSON
// value in encoding/json's canonical form (compact, HTML-escaped — exactly
// what json.Marshal emits); anything else would re-encode differently inside
// the record line and quarantine itself on the next open, so it is rejected
// here instead.
func (s *Store) PutRaw(key, id string, raw json.RawMessage) error {
	if len(raw) == 0 || !json.Valid(raw) {
		return fmt.Errorf("store: payload for %s (%s) is not a JSON value", key, id)
	}
	canon, err := json.Marshal(raw)
	if err != nil || !bytes.Equal(canon, raw) {
		return fmt.Errorf("store: payload for %s (%s) is not in canonical JSON form", key, id)
	}
	rec := Record{Key: key, ID: id, Sum: payloadSum(raw), Payload: raw}
	line := append(mustMarshal(rec), '\n')

	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.records[key]; ok {
		if bytes.Equal(prev.Payload, rec.Payload) {
			return nil
		}
		return fmt.Errorf("store: conflicting result for %s (%s): stored payload differs", key, id)
	}
	if _, err := s.f.Write(line); err != nil {
		return err
	}
	if err := s.f.Sync(); err != nil {
		return err
	}
	s.records[key] = rec
	if s.afterAppend != nil {
		s.afterAppend(len(s.records))
	}
	return nil
}

// SetAfterAppend installs a hook called (under the store lock) after each
// durable append with the total record count. The crash-injection harness
// uses it to kill the process at a deterministic point mid-sweep.
func (s *Store) SetAfterAppend(fn func(total int)) {
	s.mu.Lock()
	s.afterAppend = fn
	s.mu.Unlock()
}

// Len returns the number of valid records currently held.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.records)
}

// Loaded returns how many valid records the open recovered from disk.
func (s *Store) Loaded() int { return s.loaded }

// Quarantined returns how many lines the open rejected and quarantined.
func (s *Store) Quarantined() int { return s.quarantined }

// Dir returns the sweep directory path.
func (s *Store) Dir() string { return s.dir }

// Close closes the append handle. Get keeps working; Put does not.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// WriteFileAtomic writes a file via a temp file in the same directory,
// fsyncs it, and renames it over path — a crash leaves either the old
// content or the new, never a truncated mix. The containing directory is
// fsynced best-effort so the rename itself is durable.
func WriteFileAtomic(path string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriter(tmp)
	if err := write(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		tmp = nil
		os.Remove(name)
		return err
	}
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
