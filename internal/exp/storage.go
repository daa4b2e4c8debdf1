package exp

import (
	"fmt"

	"streamline/internal/core"
	"streamline/internal/mem"
	"streamline/internal/meta"
	"streamline/internal/prefetch/triangel"
	"streamline/internal/replacement"
	"streamline/internal/workloads"
)

// This file regenerates Figure 13: storage efficiency (Streamline at half
// Triangel's budget, Triangel-Ideal with dedicated storage), metadata
// traffic across partition sizes, and the utility-aware replacement study
// (TP-Mockingjay in the stores, MIN vs TP-MIN as offline oracles).

func init() {
	register(Experiment{ID: "fig13a", Title: "Storage efficiency",
		Run: func(r *Runner) []Table {
			mb := r.Scale.MetaBytes
			base := baseArm("stride", "")
			arms := []Arm{
				triangelArm("triangel-1x", "stride", "",
					func(c *triangel.Config) { c.FixedBytes = mb }),
				dedicated(triangelArm("triangel-1x", "stride", "",
					func(c *triangel.Config) { c.FixedBytes = mb })),
				streamlineArm("streamline-0.5x", "stride", "",
					func(o *core.Options) { o.FixedBytes = mb / 2 }),
				streamlineArm("streamline-1x", "stride", "",
					func(o *core.Options) { o.FixedBytes = mb }),
			}
			t := Table{ID: "fig13a", Title: "speedup vs metadata budget (irregular subset)",
				Columns: []string{"arm", "geomean-speedup", "mean-coverage"}}
			g := r.Sweep(append([]Arm{base}, arms...),
				SingleUnits(workloads.Names(r.Scale.irregular())))[0]
			for _, arm := range arms {
				// A gapped workload is excluded from this arm's means.
				rows := g.Rows(base, arm)
				if len(rows) == 0 {
					t.AddRow(arm.Name, GapCell, GapCell)
					continue
				}
				t.AddRow(arm.Name, F(Geomean(over(rows, Speedup, 0, 1))),
					Pct(Mean(over(rows, Coverage, 0, 1))))
			}
			t.Notes = append(t.Notes,
				"paper: Streamline at 0.5MB matches Triangel at 1MB, and beats Triangel-Ideal (dedicated 1MB)")
			return []Table{t}
		}})

	register(Experiment{ID: "fig13b", Title: "Metadata traffic",
		Run: func(r *Runner) []Table {
			t := Table{ID: "fig13b", Title: "LLC metadata traffic (blocks) vs partition size",
				Columns: []string{"size", "triangel", "streamline", "ratio"}}
			units := SingleUnits(workloads.Names(r.Scale.irregular()))
			fracs := []int{8, 4, 2, 1}
			var arms []Arm
			for _, frac := range fracs {
				sz := r.Scale.MetaBytes / frac
				arms = append(arms,
					triangelArm(fmt.Sprintf("triangel-%dKB", sz>>10), "stride", "",
						func(c *triangel.Config) { c.FixedBytes = sz }),
					streamlineArm(fmt.Sprintf("streamline-%dKB", sz>>10), "stride", "",
						func(o *core.Options) { o.FixedBytes = sz }))
			}
			g := r.Sweep(arms, units)[0]
			for i, frac := range fracs {
				size := fmt.Sprintf("%dKB", r.Scale.MetaBytes/frac>>10)
				rows := g.Rows(arms[2*i], arms[2*i+1])
				if len(rows) < len(units) {
					// Traffic totals are sums, not means: one missing workload
					// silently skews the ratio, so the whole row is a gap.
					t.AddRow(size, GapCell, GapCell, GapCell)
					continue
				}
				var tt, st uint64
				for _, row := range rows {
					tt += row[0].res.Cores[0].Meta.Traffic()
					st += row[1].res.Cores[0].Meta.Traffic()
				}
				ratio := 0.0
				if tt > 0 {
					ratio = float64(st) / float64(tt)
				}
				t.AddRow(size, fmt.Sprint(tt), fmt.Sprint(st), Pct(ratio))
			}
			t.Notes = append(t.Notes,
				"paper: Streamline's traffic is 61% of Triangel's at 1MB and 13% at 0.125MB")
			return []Table{t}
		}})

	register(Experiment{ID: "fig13c", Title: "Utility-aware replacement",
		Run: func(r *Runner) []Table {
			// Part 1: each store's realized utility (coverage x accuracy,
			// the observable analogue of correlation hit rate) under each
			// replacement policy, on capacity-pressured workloads (their
			// footprint x1.4) where replacement actually decides what
			// survives.
			mb := r.Scale.MetaBytes
			t := Table{ID: "fig13c", Title: "metadata replacement: coverage / accuracy / utility",
				Columns: []string{"arm", "coverage", "accuracy", "corr-utility"}}
			base := baseArm("stride", "")
			ws := r.Scale.irregular()
			arms := []Arm{
				triangelArm("triangel-srrip", "stride", "",
					func(c *triangel.Config) { c.FixedBytes = mb }),
				triangelArm("triangel-tpmj", "stride", "", func(c *triangel.Config) {
					c.FixedBytes = mb
					c.Policy = core.NewTPMockingjay
				}),
				streamlineArm("streamline-srrip", "stride", "", func(o *core.Options) {
					o.FixedBytes = mb
					o.Policy = meta.NewEntrySRRIP
				}),
				streamlineArm("streamline-lru", "stride", "", func(o *core.Options) {
					o.FixedBytes = mb
					o.Policy = meta.NewEntryLRU
				}),
				streamlineArm("streamline-tpmj", "stride", "",
					func(o *core.Options) { o.FixedBytes = mb }),
			}
			pressured := SingleUnits(workloads.Names(ws))
			for i := range pressured {
				pressured[i].FP = 1.4
			}
			g := r.Sweep(append([]Arm{base}, arms...), pressured)[0]
			for _, arm := range arms {
				// A gapped workload is excluded from this arm's means.
				rows := g.Rows(base, arm)
				if len(rows) == 0 {
					t.AddRow(arm.Name, GapCell, GapCell, GapCell)
					continue
				}
				var cov, acc, util []float64
				for _, row := range rows {
					c, a := Coverage(row[0].res, row[1].res), Accuracy(row[1].res)
					cov, acc, util = append(cov, c), append(acc, a), append(util, c*a)
				}
				t.AddRow(arm.Name, Pct(Mean(cov)), Pct(Mean(acc)), Pct(Mean(util)))
			}
			t.Notes = append(t.Notes,
				"paper: TP-Mockingjay improves Streamline's correlation hit rate by 21.5 pp over Triangel and closes a third of Triangel's gap when applied to it")

			// Part 2: offline MIN vs TP-MIN oracle replay on the irregular
			// workloads' correlation streams (Section V-D3's first study).
			o := Table{ID: "fig13c-oracle", Title: "offline oracle replay: MIN vs TP-MIN",
				Columns: []string{"workload", "min-trig", "min-corr", "tpmin-trig", "tpmin-corr"}}
			capEntries := mb / 2 / mem.LineSize * meta.CorrelationsPerBlock(meta.Pairwise, 0)
			type oraclePair struct{ min, tpmin replacement.OracleStats }
			replays, ok := ParallelMap(r, ws,
				func(w workloads.Workload) string { return "oracle|" + w.Name },
				func(w workloads.Workload) oraclePair {
					stream := correlationStream(w, r.Scale, 200_000)
					return oraclePair{
						min:   replacement.ReplayOracle(stream, capEntries, replacement.MIN),
						tpmin: replacement.ReplayOracle(stream, capEntries, replacement.TPMIN),
					}
				})
			for i, w := range ws {
				if !ok[i] {
					o.AddRow(w.Name, GapCell, GapCell, GapCell, GapCell)
					continue
				}
				m, tp := replays[i].min, replays[i].tpmin
				o.AddRow(w.Name,
					Pct(m.TriggerHitRate()), Pct(m.CorrelationHitRate()),
					Pct(tp.TriggerHitRate()), Pct(tp.CorrelationHitRate()))
			}
			o.Notes = append(o.Notes,
				"paper: TP-MIN lifts correlation hit rate +9.3 pp over MIN by discarding entries with no future correlation use")
			return []Table{t, o}
		}})
}

// correlationStream extracts the per-PC consecutive-pair correlation stream
// a temporal prefetcher trains on from a workload's first n records.
func correlationStream(w workloads.Workload, sc Scale, n int) []replacement.Correlation {
	tr := w.NewTrace(workloads.Scale{Footprint: sc.Footprint}, sc.Seed)
	last := map[mem.PC]mem.Line{}
	var out []replacement.Correlation
	for len(out) < n {
		rec, ok := tr.Next()
		if !ok {
			break
		}
		l := mem.LineOf(rec.Addr)
		if prev, ok := last[rec.PC]; ok && prev != l {
			out = append(out, replacement.Correlation{Trigger: prev, Target: l})
		}
		last[rec.PC] = l
	}
	return out
}
