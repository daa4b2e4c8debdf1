package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreDecode feeds arbitrary bytes through both decode paths — the
// single-line DecodeRecord and a full Open over a results file containing the
// input — and checks the store's core safety property: no invalid record is
// ever accepted, and every accepted record verifies.
//
// The seed corpus under testdata/fuzz/FuzzStoreDecode covers the interesting
// classes: a valid record, a truncated record, a bit-flipped payload, a
// wrong-length key, duplicate lines, a line with whitespace the store never
// writes, and a key whose conflicting copies are followed by a third.
func FuzzStoreDecode(f *testing.F) {
	// A genuine record, produced exactly as Put would.
	raw, _ := json.Marshal(map[string]int{"n": 1})
	valid := mustMarshal(Record{
		Key: Key("fuzz", "seed"), ID: "fuzz|seed",
		Sum: payloadSum(raw), Payload: raw,
	})
	f.Add(append(valid, '\n'))
	f.Add(valid[:len(valid)/2]) // truncated mid-record
	flipped := append([]byte{}, valid...)
	flipped[bytes.Index(flipped, []byte(`"n":1`))+4] = '2' // payload bit-flip
	f.Add(append(flipped, '\n'))
	f.Add([]byte(`{"key":"short","id":"x","sha256":"deadbeef","payload":{}}` + "\n"))
	f.Add(append(append(append([]byte{}, valid...), '\n'), append(valid, '\n')...)) // duplicate
	// Whitespace the store never writes.
	f.Add(append(bytes.Replace(valid, []byte(`,"id":`), []byte(`, "id": `), 1), '\n'))
	other, _ := json.Marshal(map[string]int{"n": 2})
	conflict := mustMarshal(Record{Key: Key("fuzz", "seed"), ID: "fuzz|seed",
		Sum: payloadSum(other), Payload: other})
	// Conflicting copies of one key, then a third copy.
	f.Add(bytes.Join([][]byte{valid, conflict, valid, nil}, []byte("\n")))
	f.Add([]byte("{}\n"))
	f.Add([]byte("not json at all\n"))
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Property 1: DecodeRecord accepts a line only if the decoded
		// record re-verifies and the store's encoding of it is the line.
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			rec, err := DecodeRecord(line)
			if err != nil {
				continue
			}
			if verr := rec.Verify(); verr != nil {
				t.Fatalf("DecodeRecord accepted a record that fails Verify: %v\nline: %q", verr, line)
			}
			if canon := mustMarshal(rec); !bytes.Equal(canon, line) {
				t.Fatalf("DecodeRecord accepted a line the store would not write:\nline:  %q\nstore: %q", line, canon)
			}
		}

		// Property 2: opening a store over the raw bytes never errors out
		// on content (only quarantines), never loads an unverifiable
		// record, and loaded+quarantined accounts for every line.
		dir := t.TempDir()
		s, err := Create(dir, testManifest())
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		if err := os.WriteFile(filepath.Join(dir, "results.jsonl"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir, testManifest())
		if err != nil {
			t.Fatalf("Open failed on arbitrary results content (should quarantine, not error): %v", err)
		}
		lines := 0
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(bytes.TrimSpace(line)) > 0 {
				lines++
			}
		}
		if s2.Loaded()+s2.Quarantined() < lines {
			t.Fatalf("lines unaccounted for: %d lines, %d loaded + %d quarantined",
				lines, s2.Loaded(), s2.Quarantined())
		}
		s2.Close()

		// Property 3: recovery is idempotent — the compacted file reopens
		// with the same records and nothing further to quarantine.
		s3, err := Open(dir, testManifest())
		if err != nil {
			t.Fatalf("reopen after compaction failed: %v", err)
		}
		defer s3.Close()
		if s3.Loaded() != s2.Loaded() || s3.Quarantined() != 0 {
			t.Fatalf("compaction not idempotent: first open loaded %d, second loaded %d with %d quarantined",
				s2.Loaded(), s3.Loaded(), s3.Quarantined())
		}
	})
}

// TestFuzzSeedCorpusCommitted pins the committed corpus so the fuzz smoke in
// the verify skill always starts from the interesting record classes.
func TestFuzzSeedCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzStoreDecode")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("seed corpus missing: %v", err)
	}
	if len(ents) < 3 {
		t.Fatalf("seed corpus has %d entries, want >= 3", len(ents))
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, []byte("go test fuzz v1\n")) {
			t.Errorf("%s: not a go fuzz corpus file", e.Name())
		}
	}
}
