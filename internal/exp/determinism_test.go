package exp

import (
	"reflect"
	"strings"
	"testing"
)

// Determinism contract of the parallel harness: rendered experiment output
// is a pure function of (experiment, scale, seed) — worker count and
// scheduling must never show through. These tests are the CI teeth behind
// cmd/experiments' guarantee that -jobs=8 output is byte-identical to
// -jobs=1.

// renderExperiment runs one experiment on a fresh runner with the given
// worker count and returns its full rendered table output.
func renderExperiment(t *testing.T, id string, jobs int) string {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q missing", id)
	}
	r := NewRunner(microScale())
	r.Jobs = jobs
	var b strings.Builder
	for _, tb := range e.Run(r) {
		b.WriteString(tb.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestParallelOutputMatchesSerial renders a cross-section of experiments —
// pure metadata studies (table1), single-core sims (fig9), system-retaining
// sims (fig12b), and mixed ParallelMap studies (subset) — at -jobs=1 and an
// oversubscribed -jobs=8 and requires byte-identical output.
func TestParallelOutputMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full experiments twice; not -short")
	}
	for _, id := range []string{"table1", "fig9", "fig12b", "subset"} {
		id := id
		t.Run(id, func(t *testing.T) {
			serial := renderExperiment(t, id, 1)
			parallel := renderExperiment(t, id, 8)
			if serial != parallel {
				t.Errorf("output differs between -jobs=1 and -jobs=8:\n--- serial ---\n%s\n--- parallel ---\n%s",
					serial, parallel)
			}
		})
	}
}

// TestSameSeedSameStats runs one configuration twice on fresh systems with
// the same seed and requires identical full sim.Result structs — the
// run-to-run reproducibility the golden tests and memo keys rely on.
func TestSameSeedSameStats(t *testing.T) {
	sc := microScale()
	arm := streamlineArm("streamline", "stride", "", nil)
	a := runCell(NewRunner(sc), arm, "sphinx06").res
	b := runCell(NewRunner(sc), arm, "sphinx06").res
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed produced different results:\n%+v\nvs\n%+v", a, b)
	}
	// And a different seed must actually change something, or the equality
	// above proves nothing.
	sc2 := sc
	sc2.Seed += 1
	c := runCell(NewRunner(sc2), arm, "sphinx06").res
	if reflect.DeepEqual(a, c) {
		t.Error("changing the seed left the result identical; seed is not wired through")
	}
}
