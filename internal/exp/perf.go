package exp

import (
	"fmt"

	"streamline/internal/core"
	"streamline/internal/prefetch/triangel"
	"streamline/internal/sim"
	"streamline/internal/workloads"
)

// This file regenerates the performance figures: Figure 9 (single-core),
// Figure 10 (multi-core, bandwidth, coverage/accuracy, degree) and
// Figure 11 (upper-level and L2 regular prefetchers).

// the three standard arms over an L1 stride baseline
func standardArms() (base, tri, str Arm) {
	return baseArm("stride", ""),
		triangelArm("triangel", "stride", "", nil),
		streamlineArm("streamline", "stride", "", nil)
}

// over maps a baseline-relative statistic across rows: stat of each row's
// arm pf against its arm base, by position in the row.
func over(rows []Row, stat func(base, pf sim.Result) float64, base, pf int) []float64 {
	out := make([]float64, len(rows))
	for i, row := range rows {
		out[i] = stat(row[base].res, row[pf].res)
	}
	return out
}

// accuracies returns arm i's L2 prefetch accuracy on each row where it
// filled any prefetch at all.
func accuracies(rows []Row, i int) []float64 {
	var out []float64
	for _, row := range rows {
		if res := row[i].res; res.Cores[0].L2.PrefetchFills > 0 {
			out = append(out, Accuracy(res))
		}
	}
	return out
}

// suiteSpeedups renders a sweep of the three arms across a workload list
// (g's units, in ws order) as per-workload and per-suite speedups.
func suiteSpeedups(g Grid, id, title string, ws []workloads.Workload, base, tri, str Arm) Table {
	t := Table{ID: id, Title: title,
		Columns: []string{"workload", "suite", "triangel", "streamline", "delta(pp)"}}
	type group struct{ tri, str []float64 }
	add := func(g *group, rt, rs float64) {
		g.tri, g.str = append(g.tri, rt), append(g.str, rs)
	}
	suites := map[workloads.Suite]*group{}
	var irr, all group
	for i, row := range g.Aligned(base, tri, str) {
		w := ws[i]
		if row == nil {
			// A failed arm leaves an explicit gap; the workload is excluded
			// from every aggregate below so the means stay meaningful.
			t.AddRow(w.Name, string(w.Suite), GapCell, GapCell, GapCell)
			continue
		}
		rt := Speedup(row[0].res, row[1].res)
		rs := Speedup(row[0].res, row[2].res)
		t.AddRow(w.Name, string(w.Suite), F(rt), F(rs), fmt.Sprintf("%+.1f", (rs-rt)*100))
		if suites[w.Suite] == nil {
			suites[w.Suite] = &group{}
		}
		add(suites[w.Suite], rt, rs)
		add(&all, rt, rs)
		if w.Irregular {
			add(&irr, rt, rs)
		}
	}
	// An aggregate with no sample is a gap, not a geomean of nothing.
	geomeanRow := func(label string, g *group) {
		if len(g.tri) == 0 {
			t.AddRow(label, "", GapCell, GapCell, GapCell)
			return
		}
		gt, gs := Geomean(g.tri), Geomean(g.str)
		t.AddRow(label, "", F(gt), F(gs), fmt.Sprintf("%+.1f", (gs-gt)*100))
	}
	for _, suite := range []workloads.Suite{workloads.SPEC06, workloads.SPEC17, workloads.GAP} {
		if sg, ok := suites[suite]; ok {
			geomeanRow("geomean-"+string(suite), sg)
		}
	}
	geomeanRow("geomean-irregular", &irr)
	geomeanRow("geomean-all", &all)
	t.Notes = append(t.Notes,
		"speedup over the baseline with an L1D stride prefetcher; paper Fig 9 reports Streamline 8.1% vs Triangel 5.1% (mem-intensive), 17% vs 11.5% (irregular)")
	return t
}

// mixGeomeanRow adds one row of Triangel's and Streamline's geomean
// throughput speedup over rows of (base, triangel, streamline) — the mixes
// where all three ran; a gapped mix is excluded from the geomean.
func mixGeomeanRow(t *Table, label string, rows []Row) {
	if len(rows) == 0 {
		t.AddRow(label, GapCell, GapCell, GapCell)
		return
	}
	gt := Geomean(over(rows, ThroughputSpeedup, 0, 1))
	gs := Geomean(over(rows, ThroughputSpeedup, 0, 2))
	t.AddRow(label, F(gt), F(gs), fmt.Sprintf("%+.1f", (gs-gt)*100))
}

func init() {
	register(Experiment{ID: "fig9", Title: "Single-core speedup: Streamline vs Triangel",
		Run: func(r *Runner) []Table {
			base, tri, str := standardArms()
			ws := r.Scale.workloadList()
			g := r.Sweep([]Arm{base, tri, str}, SingleUnits(workloads.Names(ws)))[0]
			return []Table{suiteSpeedups(g, "fig9", "single-core speedups (L1 stride baseline)",
				ws, base, tri, str)}
		}})

	register(Experiment{ID: "fig10a", Title: "Multi-core speedup across core counts",
		Run: func(r *Runner) []Table {
			base, tri, str := standardArms()
			t := Table{ID: "fig10a", Title: "multi-core throughput speedup",
				Columns: []string{"cores", "triangel", "streamline", "delta(pp)"}}
			coreCounts := []int{2, 4, 8}
			var groups [][]Unit
			for _, cores := range coreCounts {
				mixCount := r.Scale.MixCount
				if cores == 8 {
					mixCount = max(2, mixCount/2)
				}
				groups = append(groups,
					MixUnits(workloads.Mixes(mixCount, cores, r.Scale.Seed), cores, 0))
			}
			for i, g := range r.Sweep([]Arm{base, tri, str}, groups...) {
				mixGeomeanRow(&t, fmt.Sprint(coreCounts[i]), g.Rows(base, tri, str))
			}
			t.Notes = append(t.Notes, "paper: Streamline wins by 7.2/6.9/6.7 pp at 2/4/8 cores")
			return []Table{t}
		}})

	register(Experiment{ID: "fig10b", Title: "Per-mix win rate (4-core)",
		Run: func(r *Runner) []Table {
			base, tri, str := standardArms()
			mixes := workloads.Mixes(r.Scale.MixCount, 4, r.Scale.Seed)
			g := r.Sweep([]Arm{base, tri, str}, MixUnits(mixes, 4, 0))[0]
			t := Table{ID: "fig10b", Title: "4-core mixes: Streamline vs Triangel",
				Columns: []string{"mix", "triangel", "streamline", "winner"}}
			wins, scored := 0, 0
			for i, row := range g.Aligned(base, tri, str) {
				if row == nil {
					t.AddRow(fmt.Sprintf("mix%02d", mixes[i].ID), GapCell, GapCell, GapCell)
					continue
				}
				st := ThroughputSpeedup(row[0].res, row[1].res)
				ss := ThroughputSpeedup(row[0].res, row[2].res)
				winner := "triangel"
				if ss >= st {
					winner = "streamline"
					wins++
				}
				scored++
				t.AddRow(fmt.Sprintf("mix%02d", mixes[i].ID), F(st), F(ss), winner)
			}
			if scored == 0 {
				t.AddRow("win-rate", "", "", GapCell)
			} else {
				t.AddRow("win-rate", "", "", Pct(float64(wins)/float64(scored)))
			}
			t.Notes = append(t.Notes, "paper: Streamline wins 77% of 4-core mixes")
			return []Table{t}
		}})

	register(Experiment{ID: "fig10c", Title: "DRAM bandwidth sensitivity",
		Run: func(r *Runner) []Table {
			base, tri, str := standardArms()
			mixes := workloads.Mixes(max(2, r.Scale.MixCount/2), 4, r.Scale.Seed)
			bws := []float64{0.25, 0.5, 1.0, 2.0}
			var groups [][]Unit
			for _, bw := range bws {
				groups = append(groups, MixUnits(mixes, 4, bw))
			}
			t := Table{ID: "fig10c", Title: "speedup vs DRAM bandwidth (4-core)",
				Columns: []string{"bandwidth", "triangel", "streamline", "delta(pp)"}}
			for i, g := range r.Sweep([]Arm{base, tri, str}, groups...) {
				mixGeomeanRow(&t, fmt.Sprintf("%.2fx", bws[i]), g.Rows(base, tri, str))
			}
			t.Notes = append(t.Notes,
				"paper: 1.1-2.7 pp margins at low bandwidth, 3-3.3 pp at moderate")
			return []Table{t}
		}})

	register(Experiment{ID: "fig10de", Title: "Prefetch coverage and accuracy",
		Run: func(r *Runner) []Table {
			base, tri, str := standardArms()
			names := workloads.Names(r.Scale.workloadList())
			g := r.Sweep([]Arm{base, tri, str}, SingleUnits(names))[0]
			t := Table{ID: "fig10de", Title: "L2 coverage / accuracy per workload",
				Columns: []string{"workload", "tri-cov", "str-cov", "tri-acc", "str-acc"}}
			for i, row := range g.Aligned(base, tri, str) {
				if row == nil {
					t.AddRow(names[i], GapCell, GapCell, GapCell, GapCell)
					continue
				}
				b, rt, rs := row[0].res, row[1].res, row[2].res
				t.AddRow(names[i], Pct(Coverage(b, rt)), Pct(Coverage(b, rs)),
					Pct(Accuracy(rt)), Pct(Accuracy(rs)))
			}
			if rows := g.Rows(base, tri, str); len(rows) == 0 {
				t.AddRow("mean", GapCell, GapCell, GapCell, GapCell)
			} else {
				t.AddRow("mean", Pct(Mean(over(rows, Coverage, 0, 1))), Pct(Mean(over(rows, Coverage, 0, 2))),
					Pct(Mean(accuracies(rows, 1))), Pct(Mean(accuracies(rows, 2))))
			}
			t.Notes = append(t.Notes, "paper: Streamline +12.5 pp coverage, +3.6 pp accuracy")
			return []Table{t}
		}})

	register(Experiment{ID: "fig10f", Title: "Prefetch degree sweep",
		Run: func(r *Runner) []Table {
			t := Table{ID: "fig10f", Title: "speedup vs max degree (irregular subset)",
				Columns: []string{"degree", "triangel", "streamline"}}
			degs := []int{1, 2, 4, 8}
			arms := []Arm{baseArm("stride", "")}
			for _, deg := range degs {
				arms = append(arms,
					triangelArm(fmt.Sprintf("triangel-d%d", deg), "stride", "",
						func(c *triangel.Config) { c.MaxDegree = deg }),
					streamlineArm(fmt.Sprintf("streamline-d%d", deg), "stride", "",
						func(o *core.Options) {
							o.MaxDegree = deg
							o.DisableDegreeControl = true
						}))
			}
			g := r.Sweep(arms, SingleUnits(workloads.Names(r.Scale.irregular())))[0]
			for i, deg := range degs {
				// A gapped workload is excluded from both geomeans.
				rows := g.Rows(arms[0], arms[1+2*i], arms[2+2*i])
				if len(rows) == 0 {
					t.AddRow(fmt.Sprint(deg), GapCell, GapCell)
					continue
				}
				t.AddRow(fmt.Sprint(deg), F(Geomean(over(rows, Speedup, 0, 1))),
					F(Geomean(over(rows, Speedup, 0, 2))))
			}
			t.Notes = append(t.Notes,
				"paper: Triangel insensitive to degree; Streamline peaks at its stream length (4)")
			return []Table{t}
		}})

	register(Experiment{ID: "fig11ab", Title: "With Berti in the L1D",
		Run: func(r *Runner) []Table {
			base := baseArm("berti", "")
			tri := triangelArm("triangel+berti", "berti", "", nil)
			str := streamlineArm("streamline+berti", "berti", "", nil)
			ws := r.Scale.workloadList()
			coreCounts := []int{2, 4}
			groups := [][]Unit{SingleUnits(workloads.Names(ws))}
			for _, cores := range coreCounts {
				mixes := workloads.Mixes(max(2, r.Scale.MixCount/2), cores, r.Scale.Seed)
				groups = append(groups, MixUnits(mixes, cores, 0))
			}
			grids := r.Sweep([]Arm{base, tri, str}, groups...)
			single := suiteSpeedups(grids[0], "fig11a", "single-core speedups (Berti L1D baseline)",
				ws, base, tri, str)
			single.Notes = append(single.Notes,
				"paper: Streamline 22% vs Triangel 20.1% vs Berti-only 19.1%")

			multi := Table{ID: "fig11b", Title: "multi-core with Berti",
				Columns: []string{"cores", "triangel", "streamline", "delta(pp)"}}
			for i, cores := range coreCounts {
				mixGeomeanRow(&multi, fmt.Sprint(cores), grids[1+i].Rows(base, tri, str))
			}
			multi.Notes = append(multi.Notes,
				"paper: with Berti, Triangel adds ~0 in multi-core; Streamline adds 3.8-4.1 pp")
			return []Table{single, multi}
		}})

	register(Experiment{ID: "fig11cd", Title: "With L2 regular prefetchers",
		Run: func(r *Runner) []Table {
			t := Table{ID: "fig11c", Title: "speedup with L2 regular prefetchers (irregular subset)",
				Columns: []string{"l2pf", "base", "triangel", "streamline"}}
			cov := Table{ID: "fig11d", Title: "added coverage over the L2 prefetcher",
				Columns: []string{"l2pf", "triangel", "streamline"}}
			l2s := []string{"ipcp", "bingo", "spp"}
			arms := []Arm{baseArm("stride", "")}
			for _, l2 := range l2s {
				arms = append(arms, baseArm("stride", l2),
					triangelArm("triangel+"+l2, "stride", l2, nil),
					streamlineArm("streamline+"+l2, "stride", l2, nil))
			}
			g := r.Sweep(arms, SingleUnits(workloads.Names(r.Scale.irregular())))[0]
			for i, l2 := range l2s {
				// Plain stride, then this L2 prefetcher alone, under Triangel
				// and under Streamline; a workload gapped in any of the four
				// is excluded from both tables.
				rows := g.Rows(arms[0], arms[1+3*i], arms[2+3*i], arms[3+3*i])
				if len(rows) == 0 {
					t.AddRow(l2, GapCell, GapCell, GapCell)
					cov.AddRow(l2, GapCell, GapCell)
					continue
				}
				t.AddRow(l2, F(Geomean(over(rows, Speedup, 0, 1))),
					F(Geomean(over(rows, Speedup, 0, 2))), F(Geomean(over(rows, Speedup, 0, 3))))
				cov.AddRow(l2, Pct(Mean(over(rows, Coverage, 1, 2))), Pct(Mean(over(rows, Coverage, 1, 3))))
			}
			t.Notes = append(t.Notes,
				"paper: Streamline beats Triangel by 1.1/2.4/1.0 pp over IPCP/Bingo/SPP-PPF")
			cov.Notes = append(cov.Notes,
				"paper: Streamline provides twice Triangel's additional coverage")
			return []Table{t, cov}
		}})
}
