package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// openOver creates a store in a fresh directory whose results file holds
// exactly lines, then opens it.
func openOver(t *testing.T, lines ...[]byte) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := Create(dir, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	var data []byte
	for _, l := range lines {
		data = append(append(data, l...), '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, "results.jsonl"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, dir
}

func recordLine(key, id string, v any) []byte {
	raw, _ := json.Marshal(v)
	return mustMarshal(Record{Key: key, ID: id, Sum: payloadSum(raw), Payload: raw})
}

// TestConflictingKeyStaysDistrusted: once two copies of a key conflict, a
// third copy of either payload is quarantined too. Serving it would replay a
// result the store has already judged untrustworthy, and compaction would
// write it twice, so the next open would quarantine again.
func TestConflictingKeyStaysDistrusted(t *testing.T) {
	k := Key("conflict")
	p1, p2 := recordLine(k, "conflict", payload{N: 1}), recordLine(k, "conflict", payload{N: 2})
	s, dir := openOver(t, p1, p2, p1)
	if _, ok := s.Get(k); ok || s.Loaded() != 0 || s.Quarantined() != 3 {
		t.Fatalf("first open: loaded %d, quarantined %d, key served %v; want 0, 3, false",
			s.Loaded(), s.Quarantined(), ok)
	}
	s.Close()
	s2, err := Open(dir, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Loaded() != 0 || s2.Quarantined() != 0 {
		t.Errorf("second open: loaded %d, quarantined %d; want 0, 0 (recovery not idempotent)",
			s2.Loaded(), s2.Quarantined())
	}
}

// TestNonCanonicalLineQuarantined: a line that decodes to a valid record but
// is not the store's own encoding of it — whitespace in the envelope, or in a
// payload whose checksum matches it — is quarantined with its own reason, and
// the canonical line of the same record loads.
func TestNonCanonicalLineQuarantined(t *testing.T) {
	k := Key("job")
	canon := recordLine(k, "job", payload{Value: "x", N: 1})
	spacedPayload := []byte(`{"value":"x", "n":1}`)
	for name, line := range map[string][]byte{
		"envelope": bytes.Replace(canon, []byte(`,"id":`), []byte(`, "id":`), 1),
		"payload": []byte(`{"key":"` + k + `","id":"job","sha256":"` + payloadSum(spacedPayload) +
			`","payload":` + string(spacedPayload) + `}`),
	} {
		if _, err := DecodeRecord(line); err == nil {
			t.Fatalf("%s: DecodeRecord accepted a non-canonical line", name)
		}
		s, dir := openOver(t, line, canon)
		if s.Loaded() != 1 || s.Quarantined() != 1 {
			t.Fatalf("%s: loaded %d, quarantined %d; want 1, 1", name, s.Loaded(), s.Quarantined())
		}
		if got, ok := s.Get(k); !ok || !bytes.Contains(canon, got) {
			t.Errorf("%s: canonical copy not served: %q, %v", name, got, ok)
		}
		q, err := os.ReadFile(filepath.Join(dir, "quarantine.jsonl"))
		if err != nil || !bytes.Contains(q, []byte("non-canonical record line")) {
			t.Errorf("%s: quarantine does not name the reason: %q, %v", name, q, err)
		}
	}
}
