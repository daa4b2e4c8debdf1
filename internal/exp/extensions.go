package exp

import (
	"fmt"
	"sort"

	"streamline/internal/core"
	"streamline/internal/mem"
	"streamline/internal/prefetch"
	"streamline/internal/prefetch/stms"
	"streamline/internal/prefetch/triage"
	"streamline/internal/workloads"
)

// This file holds experiments beyond the paper's figures:
//
//   - "subset": the Section V-A3 methodology step that defines the paper's
//     irregular subset — benchmarks with at least 5% headroom under an
//     idealized Triage prefetcher given unlimited metadata.
//   - "ext-bypass": the metadata bypass extension (the mechanism Section
//     V-B1 says Streamline lacks, costing it mcf against Triangel).

// idealHeadroom estimates a workload's temporal-prefetch headroom: the
// fraction of its demand stream an unlimited-metadata Triage would cover.
// It replays the trace through the ideal prefetcher functionally (no
// timing), counting accesses whose line was predicted recently — a
// prediction expires after a window, since a prefetch issued thousands of
// accesses early would have been evicted long before its use.
func idealHeadroom(w workloads.Workload, sc Scale, budget uint64) float64 {
	const window = 1024
	tr := w.NewTrace(workloads.Scale{Footprint: sc.Footprint}, sc.Seed)
	ideal := triage.NewIdeal()
	predicted := map[mem.Line]int{} // line -> expiry position
	covered, total := 0, 0
	var buf []prefetch.Request
	i := 0
	for used := uint64(0); used < budget; {
		rec, ok := tr.Next()
		if !ok {
			break
		}
		used += rec.Instructions()
		line := mem.LineOf(rec.Addr)
		total++
		if exp, ok := predicted[line]; ok {
			if i <= exp {
				covered++
			}
			delete(predicted, line)
		}
		buf = ideal.Train(prefetch.Event{Now: uint64(i), PC: rec.PC, Addr: rec.Addr}, buf[:0])
		for _, r := range buf {
			predicted[mem.LineOf(r.Addr)] = i + window
		}
		if i%(window*8) == 0 && len(predicted) > 64*1024 {
			for l, exp := range predicted {
				if exp < i {
					delete(predicted, l)
				}
			}
		}
		i++
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

func init() {
	register(Experiment{ID: "subset", Title: "Irregular subset definition (ideal Triage headroom)",
		Run: func(r *Runner) []Table {
			t := Table{ID: "subset",
				Title:   "speedup headroom under unlimited-metadata Triage (>=5% defines the irregular subset)",
				Columns: []string{"workload", "suite", "speedup-headroom", "ideal-coverage", "in-subset", "flagged-irregular"}}
			base := baseArm("stride", "")
			ideal := idealTriageArm()
			type row struct {
				w      workloads.Workload
				h, cov float64
			}
			ws := r.Scale.workloadList()
			g := r.Sweep([]Arm{base, ideal}, SingleUnits(workloads.Names(ws)))[0]
			headrooms, ok := ParallelMap(r, ws,
				func(w workloads.Workload) string { return "headroom|" + w.Name },
				func(w workloads.Workload) float64 { return idealHeadroom(w, r.Scale, 300_000) })
			var rows []row
			var gapped []workloads.Workload
			for i, sims := range g.Aligned(base, ideal) {
				if sims == nil || !ok[i] {
					gapped = append(gapped, ws[i])
					continue
				}
				h := Speedup(sims[0].res, sims[1].res) - 1
				rows = append(rows, row{ws[i], h, headrooms[i]})
			}
			sort.Slice(rows, func(i, j int) bool { return rows[i].h > rows[j].h })
			agree := 0
			for _, rw := range rows {
				in := rw.h >= 0.05
				if in == rw.w.Irregular {
					agree++
				}
				t.AddRow(rw.w.Name, string(rw.w.Suite), Pct(rw.h), Pct(rw.cov),
					fmt.Sprint(in), fmt.Sprint(rw.w.Irregular))
			}
			for _, w := range gapped {
				t.AddRow(w.Name, string(w.Suite), GapCell, GapCell, GapCell,
					fmt.Sprint(w.Irregular))
			}
			if len(rows) == 0 {
				t.AddRow("agreement", "", "", "", "", GapCell)
			} else {
				t.AddRow("agreement", "", "", "", "", Pct(float64(agree)/float64(len(rows))))
			}
			t.Notes = append(t.Notes,
				"Section V-A3's rule: >=5% speedup headroom under unlimited-metadata Triage",
				"gather workloads (pr/cc/soplex) show NEGATIVE ideal-Triage headroom here: their hot triggers recur with different successors, which a pairwise format mispredicts into wasted bandwidth — the registry flags them irregular from their stream-based coverage (ideal-coverage column), the pattern Streamline exists to exploit")
			return []Table{t}
		}})

	register(Experiment{ID: "ext-bypass", Title: "Extension: metadata bypass (the mcf fix)",
		Run: func(r *Runner) []Table {
			t := Table{ID: "ext-bypass",
				Title:   "Streamline with/without scan bypassing on scan-heavy workloads",
				Columns: []string{"workload", "triangel", "streamline", "streamline+bypass", "bypassed-inserts"}}
			base := baseArm("stride", "")
			tri := triangelArm("triangel", "stride", "", nil)
			plain := streamlineArm("streamline", "stride", "", nil)
			byp := kept(streamlineArm("streamline+bypass", "stride", "",
				func(o *core.Options) { o.Bypass = true }))
			// Scan-heavy mcf-likes plus one scan-free control.
			names := []string{"mcf06", "mcf17", "sphinx06"}
			g := r.Sweep([]Arm{base, tri, plain, byp}, SingleUnits(names))[0]
			for i, row := range g.Aligned(base, tri, plain, byp) {
				if row == nil {
					t.AddRow(names[i], GapCell, GapCell, GapCell, GapCell)
					continue
				}
				b := row[0].res
				var bypassed uint64
				if p := streamlineOf(row[3].sys); p != nil {
					bypassed = p.Stats.BypassedInserts
				}
				t.AddRow(names[i], F(Speedup(b, row[1].res)), F(Speedup(b, row[2].res)),
					F(Speedup(b, row[3].res)), fmt.Sprint(bypassed))
			}
			t.Notes = append(t.Notes,
				"Section V-B1: Triangel wins mcf only because it bypasses scan PCs; this extension gives Streamline the same protection")
			return []Table{t}
		}})
}

func init() {
	register(Experiment{ID: "workloads", Title: "Workload suite characterization",
		Run: func(r *Runner) []Table {
			t := Table{ID: "workloads",
				Title: "temporal structure of the synthetic suite (see internal/workloads)",
				Columns: []string{"workload", "suite", "lines", "pcs", "multiplicity",
					"pair-stability", "sequential", "dependent", "stores"}}
			ws := r.Scale.workloadList()
			analyses, ok := ParallelMap(r, ws,
				func(w workloads.Workload) string { return "analyze|" + w.Name },
				func(w workloads.Workload) workloads.Analysis {
					return workloads.Analyze(w, workloads.Scale{Footprint: r.Scale.Footprint},
						r.Scale.Seed, 500_000)
				})
			for i, w := range ws {
				if !ok[i] {
					t.AddRow(w.Name, string(w.Suite), GapCell, GapCell, GapCell,
						GapCell, GapCell, GapCell, GapCell)
					continue
				}
				a := analyses[i]
				t.AddRow(w.Name, string(w.Suite),
					fmt.Sprint(a.FootprintLines), fmt.Sprint(a.PCs),
					F(a.LineMultiplicity), Pct(a.PairStability),
					Pct(a.SequentialFraction), Pct(a.DependentFraction),
					Pct(a.StoreFraction))
			}
			t.Notes = append(t.Notes,
				"pair stability bounds pairwise-format accuracy; multiplicity drives trigger ambiguity; dependent loads serialize and make coverage pay")
			return []Table{t}
		}})
}

func init() {
	register(Experiment{ID: "ext-offchip", Title: "Extension: on-chip vs off-chip metadata (STMS baseline)",
		Run: func(r *Runner) []Table {
			t := Table{ID: "ext-offchip",
				Title: "off-chip (STMS) vs on-chip (Triangel/Streamline) temporal prefetching",
				Columns: []string{"workload", "stms", "triangel", "streamline",
					"stms-offchip-blocks", "streamline-llc-blocks"}}
			base := baseArm("stride", "")
			tri := triangelArm("triangel", "stride", "", nil)
			str := streamlineArm("streamline", "stride", "", nil)
			off := kept(stmsArm())
			names := workloads.Names(r.Scale.irregular())
			g := r.Sweep([]Arm{base, tri, str, off}, SingleUnits(names))[0]
			for i, row := range g.Aligned(base, tri, str, off) {
				if row == nil {
					t.AddRow(names[i], GapCell, GapCell, GapCell, GapCell, GapCell)
					continue
				}
				b, resS := row[0].res, row[2].res
				var offchip uint64
				if p, ok := row[3].sys.TemporalOf(0).(*stms.Prefetcher); ok {
					offchip = p.Stats.OffchipTraffic()
				}
				t.AddRow(names[i], F(Speedup(b, row[3].res)), F(Speedup(b, row[1].res)), F(Speedup(b, resS)),
					fmt.Sprint(offchip), fmt.Sprint(resS.Cores[0].Meta.Traffic()))
			}
			t.Notes = append(t.Notes,
				"Section II-A: off-chip temporal prefetchers spend DRAM bandwidth and latency on metadata; the on-chip designs confine it to the LLC")
			return []Table{t}
		}})

	register(Experiment{ID: "ext-compression", Title: "Extension: Triage LUT compression accuracy cost",
		Run: func(r *Runner) []Table {
			t := Table{ID: "ext-compression",
				Title:   "Triage with LUT-compressed vs uncompressed targets",
				Columns: []string{"workload", "compressed", "lut-entries", "speedup", "accuracy"}}
			base := baseArm("stride", "")
			// LUT sizes relative to the workloads' region footprints
			// (~15-60 of the 128KB regions at small scale): a 4-entry LUT
			// recycles constantly, 16 occasionally, 2^20 never.
			lutSizes := []int{4, 16, 1 << 20}
			arms := []Arm{base}
			for _, lutSize := range lutSizes {
				arms = append(arms, triageArm(fmt.Sprintf("triage-lut%d", lutSize), "stride", "",
					func(c *triage.Config) { c.LUTSize = lutSize }))
			}
			g := r.Sweep(arms, SingleUnits(workloads.Names(r.Scale.irregular())))[0]
			for i, lutSize := range lutSizes {
				label := "tiny LUT (heavy recycling)"
				switch lutSize {
				case 16:
					label = "moderate LUT"
				case 1 << 20:
					label = "effectively uncompressed"
				}
				// A gapped workload is excluded from this arm's means.
				rows := g.Rows(base, arms[1+i])
				if len(rows) == 0 {
					t.AddRow(label, fmt.Sprint(lutSize != 1<<20), fmt.Sprint(lutSize),
						GapCell, GapCell)
					continue
				}
				t.AddRow(label, fmt.Sprint(lutSize != 1<<20), fmt.Sprint(lutSize),
					F(Geomean(over(rows, Speedup, 0, 1))), Pct(Mean(accuracies(rows, 1))))
			}
			t.Notes = append(t.Notes,
				"Triangel's authors report LUT compression significantly reduces Triage's accuracy; LUT slot recycling silently redirects old correlations")
			return []Table{t}
		}})
}
