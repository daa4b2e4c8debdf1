package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// microScale is as small as the experiments can meaningfully go — the
// exported Micro scale (`-scale micro`), shared with the crash-injection
// harness.
func microScale() Scale { return Micro }

// smokeGoldens pin every experiment's micro-scale output, clean and under two
// injected failures (a whole arm family; the baseline of one workload) so GAP
// rows, the means that exclude them and the gap notes are pinned too. Each
// file is the concatenated stdout of
//
//	EXPERIMENTS_FAIL_KEY=<key> experiments -run <id> -scale micro -q
//
// over every id in -list order, generated with the binary of the commit
// BEFORE the one under test (see the verify skill's table-identity recipe):
// a golden regenerated from the code it checks pins nothing.
var smokeGoldens = []struct{ file, failKey string }{
	{"micro_clean.golden", ""},
	{"micro_fail_triangel.golden", "triangel"},
	{"micro_fail_base_sphinx06.golden", "base+stride|sphinx06"},
}

// goldenSections splits a golden file into each experiment's output, keyed
// by the id on its "# <id> — <title> (micro scale)" header line.
func goldenSections(t *testing.T, file string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	id := ""
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if strings.HasPrefix(line, "# ") {
			id = strings.Fields(line)[1]
		}
		out[id] += line
	}
	return out
}

// renderLikeCLI runs one experiment on a fresh runner and returns what
// `experiments -run <id> -scale micro` prints for it on stdout.
func renderLikeCLI(t *testing.T, e Experiment, failKey string) string {
	t.Helper()
	r := NewRunner(microScale())
	r.FailKey = failKey
	out := fmt.Sprintf("# %s — %s (%s scale)\n", e.ID, e.Title, r.Scale.Name) +
		renderWithRunner(t, r, e.ID) + "\n"
	if n := len(r.Failures()); n > 0 {
		out += fmt.Sprintf("sweep degraded: %d job(s) failed; affected cells are marked %s above\n", n, GapCell)
	}
	return out
}

// TestExperimentSmoke runs every registered experiment at micro scale and
// requires its output byte-identical to the goldens.
func TestExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are not -short")
	}
	wants := make([]map[string]string, len(smokeGoldens))
	for i, g := range smokeGoldens {
		wants[i] = goldenSections(t, g.file)
		if len(wants[i]) != len(All()) {
			t.Errorf("%s holds %d experiments, the registry %d", g.file, len(wants[i]), len(All()))
		}
	}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			if e.Title == "" {
				t.Error("experiment has no title")
			}
			for i, g := range smokeGoldens {
				got, want := renderLikeCLI(t, e, g.failKey), wants[i][e.ID]
				if got != want {
					t.Errorf("fail key %q: output differs from testdata/%s:\n--- got ---\n%s--- want ---\n%s",
						g.failKey, g.file, got, want)
				}
			}
		})
	}
}
