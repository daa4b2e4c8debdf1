package exp

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"streamline/internal/exp/store"
)

func resumeManifest(sc Scale) store.Manifest {
	return store.Manifest{Version: store.Version, ScaleName: sc.Name,
		ScaleFP: sc.Fingerprint(), Seed: sc.Seed}
}

// renderWithRunner runs one experiment on the given runner and returns the
// rendered tables plus any annotated gaps — exactly what cmd/experiments
// prints for it.
func renderWithRunner(t *testing.T, r *Runner, id string) string {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q missing", id)
	}
	tables := e.Run(r)
	AnnotateGaps(tables, r.DrainFailures())
	var sb strings.Builder
	for _, tb := range tables {
		sb.WriteString(tb.String())
		sb.WriteString("\n")
	}
	return sb.String()
}

// TestStoreResumeByteIdentical: the same experiment rendered three ways —
// without a store, populating a fresh store, and replaying from that store —
// must be byte-identical, and the replay must come from cache, not recompute.
func TestStoreResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs micro-scale simulations")
	}
	sc := Micro
	const id = "fig9"

	plain := renderWithRunner(t, NewRunner(sc), id)

	dir := t.TempDir()
	st, err := store.Create(dir, resumeManifest(sc))
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRunner(sc)
	r1.Store = st
	first := renderWithRunner(t, r1, id)
	if first != plain {
		t.Errorf("storing results changed the rendered output:\n--- plain ---\n%s\n--- stored ---\n%s", plain, first)
	}
	if st.Len() == 0 {
		t.Fatal("no results persisted to the store")
	}
	stored := st.Len()
	if r1.ResumedJobs() != 0 {
		t.Errorf("fresh run replayed %d jobs from an empty store", r1.ResumedJobs())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, resumeManifest(sc))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Loaded() != stored {
		t.Fatalf("reopened store holds %d records, want %d", st2.Loaded(), stored)
	}
	r2 := NewRunner(sc)
	r2.Store = st2
	resumed := renderWithRunner(t, r2, id)
	if resumed != plain {
		t.Errorf("resumed output differs from the uninterrupted run:\n--- plain ---\n%s\n--- resumed ---\n%s", plain, resumed)
	}
	if r2.ResumedJobs() != stored {
		t.Errorf("replayed %d jobs from cache, want all %d", r2.ResumedJobs(), stored)
	}
	if err := r2.StoreErr(); err != nil {
		t.Errorf("store error during resume: %v", err)
	}
}

// TestStoreScaleMismatch: a store checkpointed at one scale must refuse a
// runner at another — replaying results across scales would silently produce
// wrong tables.
func TestStoreScaleMismatch(t *testing.T) {
	sc := Micro
	dir := t.TempDir()
	st, err := store.Create(dir, resumeManifest(sc))
	if err != nil {
		t.Fatal(err)
	}
	st.Close()

	other := sc
	other.Seed = sc.Seed + 1
	if _, err := store.Open(dir, resumeManifest(other)); err == nil {
		t.Error("store opened under a mismatched seed")
	}
	other = sc
	other.Footprint = sc.Footprint * 2
	if _, err := store.Open(dir, resumeManifest(other)); err == nil {
		t.Error("store opened under a mismatched scale fingerprint")
	}
}

// TestFailKeyDegradesToGap: with an injected per-job failure the experiment
// still completes, the failed cell renders as GAP, the failure is reported
// once via DrainFailures, and unaffected rows match the clean run.
func TestFailKeyDegradesToGap(t *testing.T) {
	if testing.Short() {
		t.Skip("runs micro-scale simulations")
	}
	sc := Micro
	const id = "fig9"
	failKey := "triangel|" + sc.Workloads[0]

	clean := renderWithRunner(t, NewRunner(sc), id)
	if strings.Contains(clean, GapCell) {
		t.Fatalf("clean run already contains %s cells", GapCell)
	}

	r := NewRunner(sc)
	r.FailKey = failKey
	e, _ := ByID(id)
	tables := e.Run(r)
	fails := r.DrainFailures()
	if len(fails) == 0 {
		t.Fatal("injected failure was not recorded")
	}
	for _, f := range fails {
		if !strings.Contains(f.Key, failKey) {
			t.Errorf("unexpected failure %q (injected only %q)", f.Key, failKey)
		}
	}
	AnnotateGaps(tables, fails)
	var sb strings.Builder
	for _, tb := range tables {
		sb.WriteString(tb.String())
		sb.WriteString("\n")
	}
	out := sb.String()
	if !strings.Contains(out, GapCell) {
		t.Errorf("failed job did not surface as a %s cell:\n%s", GapCell, out)
	}
	if !strings.Contains(out, "GAP: job") {
		t.Errorf("gap note missing from annotated tables:\n%s", out)
	}

	// Rows not touched by the failure must be unchanged: every line of the
	// degraded output either appears verbatim in the clean output, mentions
	// the gap, or is an aggregate (geomeans legitimately shift when the
	// failed sample is excluded).
	cleanLines := map[string]bool{}
	for _, line := range strings.Split(clean, "\n") {
		cleanLines[line] = true
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, GapCell) || strings.Contains(line, "GAP: job") ||
			strings.Contains(line, "geomean") {
			continue
		}
		if !cleanLines[line] {
			t.Errorf("line changed outside the gapped cell: %q", line)
		}
	}

	// A second drain reports nothing new.
	if extra := r.DrainFailures(); len(extra) != 0 {
		t.Errorf("DrainFailures not idempotent: %v", extra)
	}
}

// pressuredUnits returns sphinx06 unpressured and under fig13c's capacity
// pressure.
func pressuredUnits() []Unit {
	units := SingleUnits([]string{"sphinx06", "sphinx06"})
	units[1].FP = 1.4
	return units
}

// TestPressuredUnitCheckpoint: a pressured unit is a simulation of its own —
// its result differs from the unpressured one's, both are checkpointed under
// their own keys, a fresh runner over the store replays both, and a failed
// checkpoint write of a pressured run reaches StoreErr.
func TestPressuredUnitCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs micro-scale simulations")
	}
	arm := baseArm("stride", "")
	st, err := store.Create(t.TempDir(), resumeManifest(Micro))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(Micro)
	r.Store = st
	rows := r.Sweep([]Arm{arm}, pressuredUnits())[0].Aligned(arm)
	if rows[0] == nil || rows[1] == nil || st.Len() != 2 {
		t.Fatalf("sweep did not checkpoint both units: %d record(s)", st.Len())
	}
	if reflect.DeepEqual(rows[0][0].res, rows[1][0].res) {
		t.Error("the pressured unit's result equals the unpressured one's")
	}
	if err := r.StoreErr(); err != nil {
		t.Fatalf("store error on a healthy store: %v", err)
	}
	// A closed store still replays but refuses writes.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := NewRunner(Micro)
	r2.Store = st
	replayed := r2.Sweep([]Arm{arm}, pressuredUnits())[0].Aligned(arm)
	if r2.ResumedJobs() != 2 {
		t.Errorf("fresh runner replayed %d result(s), want 2", r2.ResumedJobs())
	}
	for u := range rows {
		if replayed[u] == nil || !reflect.DeepEqual(replayed[u][0].res, rows[u][0].res) {
			t.Errorf("unit %d: replayed result differs from the computed one", u)
		}
	}
	mcf := SingleUnits([]string{"mcf06"})
	mcf[0].FP = 1.4
	if r2.Sweep([]Arm{arm}, mcf)[0].Aligned(arm)[0] == nil {
		t.Fatal("simulation failed")
	}
	if r2.StoreErr() == nil {
		t.Error("a pressured run's failed checkpoint write left StoreErr nil")
	}
}

// TestFailuresNotedPerExperiment runs fig9 and then fig13c on one runner the
// way cmd/experiments does, with the shared baseline's sphinx06 job failing.
// fig13c runs that arm under capacity pressure, a job of its own: each
// experiment's gaps carry that experiment's note, and the runner holds both
// failures.
func TestFailuresNotedPerExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs micro-scale simulations")
	}
	r := NewRunner(Micro)
	r.FailKey = "base+stride|sphinx06"
	for _, c := range []struct{ id, key string }{
		{"fig9", "base+stride|sphinx06|1|0.000"},
		{"fig13c", "base+stride|sphinx06|1|0.000|fp1.400"},
	} {
		out := renderWithRunner(t, r, c.id)
		if !strings.Contains(out, GapCell) {
			t.Errorf("%s: no %s cell:\n%s", c.id, GapCell, out)
		}
		if note := fmt.Sprintf("GAP: job %q failed", c.key); !strings.Contains(out, note) {
			t.Errorf("%s: gap note %s missing:\n%s", c.id, note, out)
		}
	}
	if fails := r.Failures(); len(fails) != 2 {
		t.Errorf("runner holds %d failure(s), want 2: %v", len(fails), fails)
	}
}
