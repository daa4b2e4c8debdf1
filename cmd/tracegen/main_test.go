package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain re-execs the test binary as the tracegen command when
// TRACEGEN_BE_MAIN=1, so the test below drives the real CLI without a
// separate build step.
func TestMain(m *testing.M) {
	if os.Getenv("TRACEGEN_BE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGeneratedFileGolden pins the bytes tracegen writes: workload generator,
// instruction limit and on-disk format, through the binary. The digests were
// captured from the whole-lap generators that preceded the streaming ones;
// the mcf06 case spans seven laps, so it crosses end-of-lap mutations.
func TestGeneratedFileGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the CLI in child processes")
	}
	cases := []struct {
		args        []string
		wantRecords string
		digest      string
	}{
		{[]string{"-workload", "pr", "-instructions", "50000"},
			"wrote 16667 records (50001 instructions)",
			"76e0cf1f688ab7a163ef1365ffdba656ebb51a828228fd92ae6b31e83427b78d"},
		{[]string{"-workload", "mcf06", "-instructions", "200000", "-footprint", "0.05", "-seed", "7"},
			"wrote 50000 records (200000 instructions)",
			"a8b436b4b98ef9f9bf00910ffbb05220e9943870140d5e9512b39f8e966055a8"},
	}
	for _, tc := range cases {
		t.Run(tc.args[1], func(t *testing.T) {
			file := filepath.Join(t.TempDir(), "out.trace")
			cmd := exec.Command(os.Args[0], append(tc.args, "-o", file)...)
			cmd.Env = append(os.Environ(), "TRACEGEN_BE_MAIN=1")
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("tracegen %v: %v\n%s", tc.args, err, out)
			}
			if !strings.HasPrefix(string(out), tc.wantRecords) {
				t.Errorf("output %q, want prefix %q", out, tc.wantRecords)
			}
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != tc.digest {
				t.Errorf("trace file digest %s, want %s", got, tc.digest)
			}
		})
	}
}
