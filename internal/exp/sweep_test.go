package exp

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"streamline/internal/metrics"
)

// runCell computes one single-workload cell directly — the memo's
// single-flight path with no pool in front — and returns its entry.
func runCell(r *Runner, arm Arm, workload string) *memoEntry {
	e, _ := r.entry(Sim{arm, SingleUnits([]string{workload})[0]})
	r.run(e)
	return e
}

// TestSweepRunsEachCellOnce: a cell named twice in one group, in two groups
// of one sweep, or by an earlier sweep is simulated once, and every naming
// reads the same outcome.
func TestSweepRunsEachCellOnce(t *testing.T) {
	r := NewRunner(Micro)
	r.Jobs = 4
	m := r.EnableMetrics(metrics.NewRegistry())
	base, _, str := standardArms()
	arms := []Arm{base, str}
	grids := r.Sweep(arms,
		SingleUnits([]string{"sphinx06", "sphinx06"}),
		SingleUnits([]string{"libquantum06", "sphinx06"}))
	if got := m.Completed.Value(); got != 4 {
		t.Errorf("sweep simulated %d cells, want 4 (2 arms x 2 distinct workloads)", got)
	}
	twice := grids[0].Rows(base, str)
	other := grids[1].Rows(base, str)
	if len(twice) != 2 || len(other) != 2 {
		t.Fatalf("rows = %d and %d, want 2 and 2", len(twice), len(other))
	}
	for i := range arms {
		if twice[0][i] != twice[1][i] || twice[0][i] != other[1][i] {
			t.Errorf("arm %s: the three namings of sphinx06 read different outcomes", arms[i].Name)
		}
		if twice[0][i] == other[0][i] {
			t.Errorf("arm %s: sphinx06 and libquantum06 share an outcome", arms[i].Name)
		}
	}
	r.Sweep(arms, SingleUnits(Micro.Workloads))
	if got := m.Completed.Value(); got != 4 {
		t.Errorf("a repeated sweep simulated again: %d completed, want 4", got)
	}
}

// TestSweepConcurrentCallersShareCells: overlapping sweeps from several
// goroutines on one runner simulate each cell once, and every caller gets
// finished outcomes — a sweep waits for the cells another sweep owns.
func TestSweepConcurrentCallersShareCells(t *testing.T) {
	r := NewRunner(Micro)
	r.Jobs = 2
	m := r.EnableMetrics(metrics.NewRegistry())
	base, tri, str := standardArms()
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		arms := []Arm{base, tri, str}[i%2:] // every other caller skips the baseline
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows := r.Sweep(arms, SingleUnits(Micro.Workloads))[0].Rows(arms...)
			if len(rows) != len(Micro.Workloads) {
				t.Errorf("%d rows, want %d", len(rows), len(Micro.Workloads))
			}
			for _, row := range rows {
				for _, e := range row {
					if e.res.Cores[0].Instructions != Micro.Measure {
						t.Errorf("%s: read before it finished (%d instructions)", e.key, e.res.Cores[0].Instructions)
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := m.Completed.Value(); got != 6 {
		t.Errorf("%d simulations completed, want 6 (3 arms x 2 workloads)", got)
	}
}

// TestSweepGapDropsOnlyItsUnitAndArm: a failed cell removes its unit from
// every row that lists its arm, stays a gap in the aligned view, and touches
// no row that does not list the arm.
func TestSweepGapDropsOnlyItsUnitAndArm(t *testing.T) {
	r := NewRunner(Micro)
	r.FailKey = "triangel|sphinx06"
	base, tri, str := standardArms()
	g := r.Sweep([]Arm{base, tri, str}, SingleUnits([]string{"sphinx06", "libquantum06"}))[0]

	if rows := g.Rows(base, str); len(rows) != 2 {
		t.Errorf("rows not listing the failed arm: %d, want both units", len(rows))
	}
	for _, listed := range [][]Arm{{tri}, {base, tri}, {str, tri, base}} {
		rows := g.Rows(listed...)
		if len(rows) != 1 {
			t.Fatalf("rows listing the failed arm: %d, want only libquantum06", len(rows))
		}
		for i, a := range listed {
			if want := (Sim{a, SingleUnits([]string{"libquantum06"})[0]}).key(); rows[0][i].key != want {
				t.Errorf("row[%d] holds %q, want %q", i, rows[0][i].key, want)
			}
		}
		aligned := g.Aligned(listed...)
		if len(aligned) != 2 || aligned[0] != nil || aligned[1] == nil {
			t.Errorf("aligned rows = %v, want a gap then a row", aligned)
		}
	}
	if fails := r.Failures(); len(fails) != 1 || fails[0].Key != "triangel|sphinx06|1|0.000" {
		t.Errorf("failures = %v, want the one injected", fails)
	}

	defer func() {
		if recover() == nil {
			t.Error("reading an arm the sweep did not run did not panic")
		}
	}()
	g.Rows(baseArm("berti", ""))
}

// TestSweepRowsIndependentOfJobs: one worker and four produce identical
// outcomes in identical positions, system-retaining arm included.
func TestSweepRowsIndependentOfJobs(t *testing.T) {
	base, tri, _ := standardArms()
	str := kept(streamlineArm("streamline", "stride", "", nil))
	sweep := func(jobs int) []Row {
		r := NewRunner(Micro)
		r.Jobs = jobs
		return r.Sweep([]Arm{base, tri, str}, SingleUnits(Micro.Workloads))[0].Aligned(base, tri, str)
	}
	serial, parallel := sweep(1), sweep(4)
	for u := range serial {
		for i := range serial[u] {
			a, b := serial[u][i], parallel[u][i]
			if a.key != b.key || !reflect.DeepEqual(a.res, b.res) {
				t.Errorf("unit %d arm %d: %s differs between -jobs 1 and -jobs 4", u, i, a.key)
			}
			if kept := i == 2; (a.sys != nil) != kept || (b.sys != nil) != kept {
				t.Errorf("unit %d arm %d: retained systems %v/%v, want %v", u, i, a.sys != nil, b.sys != nil, kept)
			}
		}
	}
}

// TestSweepCanceledContextLeavesGaps: under a canceled context a sweep
// returns promptly with every cell a recorded gap — including the cells the
// pool never handed out — instead of hanging or simulating.
func TestSweepCanceledContextLeavesGaps(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRunner(Micro)
	r.Ctx = ctx
	r.Jobs = 1
	m := r.EnableMetrics(metrics.NewRegistry())
	base, tri, str := standardArms()
	g := r.Sweep([]Arm{base, tri, str}, SingleUnits(Micro.Workloads))[0]
	for _, a := range []Arm{base, tri, str} {
		if rows := g.Rows(a); len(rows) != 0 {
			t.Errorf("%s: %d rows survived a canceled sweep", a.Name, len(rows))
		}
	}
	if n := len(r.Failures()); n != 6 {
		t.Errorf("%d failures recorded, want all 6 cells", n)
	}
	if m.Completed.Value() != 0 {
		t.Errorf("%d simulations completed under a canceled context", m.Completed.Value())
	}
}

// TestParallelMapCanceledContextLeavesGaps: under a canceled context every
// item of a ParallelMap is a gap with one recorded failure, whether or not
// the pool handed its job out.
func TestParallelMapCanceledContextLeavesGaps(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRunner(Micro)
	r.Ctx = ctx
	r.Jobs = 2
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	_, ok := ParallelMap(r, items,
		func(i int) string { return fmt.Sprintf("item|%d", i) },
		func(i int) int { return i })
	for i, o := range ok {
		if o {
			t.Errorf("item %d succeeded under a canceled context", i)
		}
	}
	if n := len(r.Failures()); n != len(items) {
		t.Errorf("%d failures recorded, want one per item (%d)", n, len(items))
	}
}
