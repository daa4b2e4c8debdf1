package exp

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"streamline/internal/core"
	"streamline/internal/exp/runner"
	"streamline/internal/exp/store"
	"streamline/internal/meta"
	"streamline/internal/metrics"
	"streamline/internal/prefetch/triage"
	"streamline/internal/prefetch/triangel"
	"streamline/internal/sim"
)

// mustIdentity returns the arm's identity at Micro, failing the test when
// the arm has none.
func mustIdentity(t *testing.T, a Arm) armConfig {
	t.Helper()
	id, ok := a.identity(Micro)
	if !ok {
		t.Fatalf("%s: no identity", a.Name)
	}
	return id
}

// TestArmIdentityCoversEveryField: perturbing any field of a temporal
// engine's resolved configuration changes the arm's identity. The fields are
// walked by reflection, so a field added later fails here until the
// identity states it (and perturb knows its kind).
func TestArmIdentityCoversEveryField(t *testing.T) {
	// perturb changes one field to a value its default does not have.
	perturb := func(t *testing.T, name string, v reflect.Value) {
		switch {
		case v.Kind() == reflect.Int:
			v.SetInt(v.Int() + 1)
		case v.Kind() == reflect.Bool:
			v.SetBool(!v.Bool())
		case v.Type() == reflect.TypeOf(meta.EntryPolicyFactory(nil)):
			// LRU is neither engine's default.
			v.Set(reflect.ValueOf(meta.EntryPolicyFactory(meta.NewEntryLRU)))
		default:
			t.Fatalf("field %s has kind %s: state it in the arm identity, then perturb it here", name, v.Kind())
		}
	}
	engines := []struct {
		name string
		typ  reflect.Type
		arm  func(mod func(reflect.Value)) Arm
	}{
		{"streamline", reflect.TypeOf(core.Options{}), func(mod func(reflect.Value)) Arm {
			return streamlineArm("x", "stride", "", func(o *core.Options) { mod(reflect.ValueOf(o).Elem()) })
		}},
		{"triangel", reflect.TypeOf(triangel.Config{}), func(mod func(reflect.Value)) Arm {
			return triangelArm("x", "stride", "", func(c *triangel.Config) { mod(reflect.ValueOf(c).Elem()) })
		}},
		{"triage", reflect.TypeOf(triage.Config{}), func(mod func(reflect.Value)) Arm {
			return triageArm("x", "stride", "", func(c *triage.Config) { mod(reflect.ValueOf(c).Elem()) })
		}},
	}
	for _, e := range engines {
		base := mustIdentity(t, e.arm(func(reflect.Value) {}))
		for i := range e.typ.NumField() {
			name := e.name + "." + e.typ.Field(i).Name
			got := mustIdentity(t, e.arm(func(v reflect.Value) { perturb(t, name, v.Field(i)) }))
			if got == base {
				t.Errorf("%s: perturbing it leaves the identity %+v", name, got)
			}
		}
	}

	// The non-temporal parts: engine names, metadata placement, scale knobs.
	std := mustIdentity(t, streamlineArm("x", "stride", "", nil))
	for _, a := range []Arm{
		streamlineArm("x", "berti", "", nil),
		streamlineArm("x", "stride", "ipcp", nil),
		dedicated(streamlineArm("x", "stride", "", nil)),
	} {
		if mustIdentity(t, a) == std {
			t.Errorf("%s: identity equals the plain Streamline arm's", a.Name)
		}
	}
	if mustIdentity(t, stmsArm()) == mustIdentity(t, baseArm("stride", "")) {
		t.Error("stms and base+stride share an identity")
	}
	bigger := Micro
	bigger.MetaBytes *= 2
	if id, _ := streamlineArm("x", "stride", "", nil).identity(bigger); id == std {
		t.Error("the scale's metadata budget does not reach the identity")
	}
}

// TestArmIdentityPolicies: an omitted metadata policy is the engine's
// explicit default, a factory the identity cannot name leaves the arm with
// no identity, and a kept arm has none either.
func TestArmIdentityPolicies(t *testing.T) {
	if mustIdentity(t, triangelArm("a", "stride", "", nil)) !=
		mustIdentity(t, triangelArm("b", "stride", "", func(c *triangel.Config) { c.Policy = meta.NewEntrySRRIP })) {
		t.Error("Triangel: omitted policy differs from explicit SRRIP")
	}
	if mustIdentity(t, streamlineArm("a", "stride", "", nil)) !=
		mustIdentity(t, streamlineArm("b", "stride", "", func(o *core.Options) { o.Policy = core.NewTPMockingjay })) {
		t.Error("Streamline: omitted policy differs from explicit TP-Mockingjay")
	}
	if mustIdentity(t, triangelArm("a", "stride", "", nil)) ==
		mustIdentity(t, triangelArm("b", "stride", "", func(c *triangel.Config) { c.Policy = core.NewTPMockingjay })) {
		t.Error("Triangel: TP-Mockingjay shares SRRIP's identity")
	}
	closure := func(sets, slots int) meta.EntryPolicy { return meta.NewEntrySRRIP(sets, slots) }
	for _, a := range []Arm{
		streamlineArm("closure", "stride", "", func(o *core.Options) { o.Policy = closure }),
		triangelArm("closure", "stride", "", func(c *triangel.Config) { c.Policy = closure }),
		kept(streamlineArm("kept", "stride", "", nil)),
	} {
		if id, ok := a.identity(Micro); ok {
			t.Errorf("%s: identity %+v, want none", a.Name, id)
		}
	}
}

// TestMergedArmsSimulateIdentically runs every experiment at micro scale on
// one runner, checks that exactly the expected labels reused another
// label's simulation and that every label states one configuration, and then
// simulates every label of each merged group directly — no memo, no reuse —
// to check that the reused results are the ones each label computes on its
// own, bit for bit.
func TestMergedArmsSimulateIdentically(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at micro scale")
	}
	var log bytes.Buffer
	r := NewRunner(Micro)
	r.Progress = &log
	for _, e := range All() {
		e.Run(r)
	}
	if fails := r.DrainFailures(); len(fails) != 0 {
		t.Fatalf("failures: %v", fails)
	}

	// Every arm states what it builds, and one label never names two
	// configurations: the memo is keyed by label, so a second configuration
	// under a label would silently take the first one's results. Two such arms
	// on one unit share one entry, so this sees a label across units, and a
	// kept arm beside its plain runs: a kept arm has no identity of its own,
	// so it is compared as the arm it keeps.
	arms := map[string]Arm{}
	stated := map[string]armConfig{}
	for _, e := range r.memo {
		a := e.sim.Arm
		spec := *a.spec
		spec.keep = false
		id, ok := Arm{Name: a.Name, spec: &spec}.identity(Micro)
		if !ok {
			t.Errorf("%s: no identity", a.Name)
			continue
		}
		if prev, seen := stated[a.Name]; seen && prev != id {
			t.Errorf("%s names two configurations: %+v and %+v", a.Name, prev, id)
		}
		stated[a.Name] = id
		if !a.spec.keep {
			arms[a.Name] = a
		}
	}

	// Group the labels each merge line joins: "  [label] mix xN = leader".
	merge := regexp.MustCompile(`(?m)^  \[(.+)\] (\S+) x\d+ = (.+)$`)
	group := map[string]int{} // label -> group number
	var groups [][]string
	merges := 0
	for _, m := range merge.FindAllStringSubmatch(log.String(), -1) {
		label, leader := m[1], m[3]
		if m[2] != "sphinx06" {
			t.Errorf("merge on %s, want only the irregular subset's sphinx06", m[2])
		}
		merges++
		g, ok := group[leader]
		if !ok {
			g = len(groups)
			groups = append(groups, []string{leader})
			group[leader] = g
		}
		groups[g] = append(groups[g], label)
		group[label] = g
	}
	for _, g := range groups {
		sort.Strings(g)
	}
	slices.SortFunc(groups, func(a, b []string) int { return strings.Compare(a[0], b[0]) })
	want := [][]string{
		{"filtered-realign-2", "streamline-0.5x", "streamline-64KB"},
		{"filtered-realign-4", "streamline-32KB"},
		{"streamline", "streamline-len4"},
		{"streamline-128KB", "streamline-1x"},
		{"triangel", "triangel-d4"},
		{"triangel-128KB", "triangel-1x"},
	}
	if merges != 7 || !reflect.DeepEqual(groups, want) {
		t.Fatalf("%d merges in groups %v, want 7 in %v", merges, groups, want)
	}

	direct := NewRunner(Micro)
	unit := SingleUnits([]string{"sphinx06"})[0]
	for _, g := range groups {
		var first sim.Result
		for i, label := range g {
			s := Sim{arms[label], unit}
			res, _, err := direct.simulate(context.Background(), s.key(), s)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if i == 0 {
				first = res
			} else if !reflect.DeepEqual(res, first) {
				t.Errorf("%s and %s share an identity but simulate differently", g[0], label)
			}
		}
	}
}

// TestMergedArmsKeepTheirStoreKeys: a cold sweep whose arms restate two
// configurations under four labels simulates twice but stores one record
// per label, and a fresh runner over that store replays every record.
func TestMergedArmsKeepTheirStoreKeys(t *testing.T) {
	arms := []Arm{
		triangelArm("triangel", "stride", "", nil),
		triangelArm("triangel-d4", "stride", "", func(c *triangel.Config) { c.MaxDegree = 4 }),
		streamlineArm("streamline", "stride", "", nil),
		streamlineArm("streamline-len4", "stride", "", func(o *core.Options) { o.StreamLength = 4 }),
	}
	units := SingleUnits([]string{"sphinx06"})
	dir := t.TempDir()
	st, err := store.Create(dir, resumeManifest(Micro))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(Micro)
	r.Store = st
	r.Jobs = 4
	m := r.EnableMetrics(metrics.NewRegistry())
	cold := r.Sweep(arms, units)[0].Rows(arms...)
	if got := m.Completed.Value(); got != 2 {
		t.Errorf("cold sweep simulated %d times, want 2 (two configurations)", got)
	}
	if st.Len() != len(arms) {
		t.Errorf("store holds %d records, want one per label (%d)", st.Len(), len(arms))
	}
	for _, a := range arms {
		if _, ok := st.Get(r.storeKey((Sim{a, units[0]}).key())); !ok {
			t.Errorf("%s: no record under its own key", a.Name)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, resumeManifest(Micro))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	r2 := NewRunner(Micro)
	r2.Store = st2
	m2 := r2.EnableMetrics(metrics.NewRegistry())
	resumed := r2.Sweep(arms, units)[0].Rows(arms...)
	if r2.ResumedJobs() != st2.Len() || m2.Completed.Value() != 0 {
		t.Errorf("resume replayed %d of %d records and simulated %d times, want all and none",
			r2.ResumedJobs(), st2.Len(), m2.Completed.Value())
	}
	for i := range arms {
		if !reflect.DeepEqual(cold[0][i].res, resumed[0][i].res) {
			t.Errorf("%s: replayed result differs from the cold one", arms[i].Name)
		}
	}
}

// TestMergedArmsKeepTheirFailures: a failure stays with the label it hit.
// Fault injection on either of two labels that restate one configuration
// gaps that label only, whichever of them leads, and the other label's
// result is its own simulation's.
func TestMergedArmsKeepTheirFailures(t *testing.T) {
	tri := triangelArm("triangel", "stride", "", nil)
	d4 := triangelArm("triangel-d4", "stride", "", func(c *triangel.Config) { c.MaxDegree = 4 })
	units := SingleUnits([]string{"sphinx06"})
	for _, failed := range []Arm{tri, d4} {
		for _, arms := range [][]Arm{{tri, d4}, {d4, tri}} {
			r := NewRunner(Micro)
			r.Jobs = 2
			r.FailKey = (Sim{failed, units[0]}).key()
			m := r.EnableMetrics(metrics.NewRegistry())
			aligned := r.Sweep(arms, units)[0]
			for _, a := range arms {
				rows := aligned.Rows(a)
				if gapped := len(rows) == 0; gapped != (a.Name == failed.Name) {
					t.Errorf("fail key %q, order %s first: %s gapped=%v", r.FailKey, arms[0].Name, a.Name, gapped)
				}
			}
			if got := m.Completed.Value(); got != 1 {
				t.Errorf("fail key %q: %d simulations completed, want 1", r.FailKey, got)
			}
		}
	}
}

// restatedTriangels returns three labels that restate Triangel's default
// configuration: the plain arm, its explicit default degree, and its explicit
// default metadata policy. It fails the test unless all three have one
// identity at sc, so that they share one entry in the runner's configs.
func restatedTriangels(t *testing.T, sc Scale) []Arm {
	t.Helper()
	arms := []Arm{
		triangelArm("triangel", "stride", "", nil),
		triangelArm("triangel-d4", "stride", "", func(c *triangel.Config) { c.MaxDegree = 4 }),
		triangelArm("triangel-srrip", "stride", "", func(c *triangel.Config) { c.Policy = meta.NewEntrySRRIP }),
	}
	first, ok := arms[0].identity(sc)
	for _, a := range arms {
		if id, idOK := a.identity(sc); !ok || !idOK || id != first {
			t.Fatalf("%s does not restate %s's configuration", a.Name, arms[0].Name)
		}
	}
	return arms
}

// settleGoroutines fails the test unless the goroutine count falls back to
// before: a simulation left running behind a failed label would hold one.
// Scheduling may lag a moment behind channel operations, so it polls.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: before=%d after=%d; a simulation was left running", before, after)
	}
}

// TestMergedArmsKeepTheirTimeouts: a label that waits on another label's
// simulation of its configuration takes no failure from it. Three labels
// that restate one configuration each time out in a simulation of their own:
// three gaps, each with its own *runner.TimeoutError, no completed
// simulation, three failed attempts, and nothing left running.
func TestMergedArmsKeepTheirTimeouts(t *testing.T) {
	before := runtime.NumGoroutine()
	sc := Micro
	sc.Measure = 80_000_000 // minutes of simulation: cannot beat the timeout
	arms := restatedTriangels(t, sc)
	r := NewRunner(sc)
	r.Jobs = 3
	r.Fault = runner.FaultPolicy{Timeout: 30 * time.Millisecond}
	m := r.EnableMetrics(metrics.NewRegistry())
	units := SingleUnits([]string{"sphinx06"})
	g := r.Sweep(arms, units)[0]

	fails := map[string]error{}
	for _, f := range r.Failures() {
		fails[f.Key] = f.Err
	}
	for _, a := range arms {
		key := (Sim{a, units[0]}).key()
		if g.Aligned(a)[0] != nil {
			t.Errorf("%s: not a gap", a.Name)
		}
		var te *runner.TimeoutError
		if err := fails[key]; !errors.As(err, &te) || te.Key != key {
			t.Errorf("%s failed with %T %v, want its own *runner.TimeoutError", a.Name, err, err)
		}
	}
	if len(fails) != len(arms) {
		t.Errorf("failures = %v, want one per label", r.Failures())
	}
	if c, f := m.Completed.Value(), m.Failed.Value(); c != 0 || f != 3 {
		t.Errorf("completed=%d failed=%d, want 0/3: each label runs its own attempt", c, f)
	}
	settleGoroutines(t, before)
}

// TestMergedArmsCanceledWhileWaiting: canceling the sweep while one label
// waits on another label's simulation of its configuration gaps both labels,
// each with its own cancellation, and leaves nothing running.
func TestMergedArmsCanceledWhileWaiting(t *testing.T) {
	before := runtime.NumGoroutine()
	sc := Micro
	sc.Measure = 80_000_000 // runs until canceled
	arms := restatedTriangels(t, sc)[:2]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRunner(sc)
	r.Ctx = ctx
	r.Jobs = 2
	units := SingleUnits([]string{"sphinx06"})
	grid := make(chan Grid, 1)
	go func() { grid <- r.Sweep(arms, units)[0] }()

	// Cancel once one goroutine simulates and the other is in compute
	// without simulating: it waits on the first.
	deadline := time.Now().Add(10 * time.Second)
	buf := make([]byte, 1<<20)
	for {
		stacks := strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n")
		computing, simulating := 0, 0
		for _, s := range stacks {
			if strings.Contains(s, "exp.(*Runner).compute(") {
				computing++
			}
			if strings.Contains(s, "exp.(*Runner).simulate(") {
				simulating++
			}
		}
		if computing == 2 && simulating == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no label waited on another: %d computing, %d simulating", computing, simulating)
		}
		time.Sleep(time.Millisecond)
	}
	cancel()

	var g Grid
	select {
	case g = <-grid:
	case <-time.After(10 * time.Second):
		t.Fatal("sweep did not return after cancellation")
	}
	fails := map[string]error{}
	for _, f := range r.Failures() {
		fails[f.Key] = f.Err
	}
	for _, a := range arms {
		if g.Aligned(a)[0] != nil {
			t.Errorf("%s: not a gap", a.Name)
		}
		if err := fails[(Sim{a, units[0]}).key()]; !errors.Is(err, context.Canceled) {
			t.Errorf("%s failed with %v, want context.Canceled", a.Name, err)
		}
	}
	if len(fails) != len(arms) {
		t.Errorf("failures = %v, want one per label", r.Failures())
	}
	settleGoroutines(t, before)
}
