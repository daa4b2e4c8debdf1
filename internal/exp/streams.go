package exp

import (
	"fmt"

	"streamline/internal/core"
	"streamline/internal/mem"
	"streamline/internal/meta"
	"streamline/internal/sim"
)

// This file regenerates Figure 12: the stream-length sweep (missed
// triggers vs storage capacity), the redundancy/stream-alignment study, and
// the metadata-buffer-size sweep.

// streamlineOf extracts the Streamline instance from a system.
func streamlineOf(sys *sim.System) *core.Prefetcher {
	p, _ := sys.TemporalOf(0).(*core.Prefetcher)
	return p
}

func init() {
	register(Experiment{ID: "fig12a", Title: "Stream length sweep",
		Run: func(r *Runner) []Table {
			t := Table{ID: "fig12a", Title: "stream length: capacity, missed triggers, coverage",
				Columns: []string{"length", "corr/block", "missed-triggers", "coverage", "speedup"}}
			ws := r.Scale.irregular()
			base := baseArm("stride", "")
			lengths := []int{2, 3, 4, 5, 8, 16}
			lenArms := map[int]Arm{}
			all := []Arm{base}
			for _, k := range lengths {
				k := k
				lenArms[k] = streamlineArm(fmt.Sprintf("streamline-len%d", k), "stride", "",
					func(o *core.Options) { o.StreamLength = k; o.MaxDegree = min(k, 4) })
				all = append(all, lenArms[k])
			}
			r.Precompute(Singles(all, ws))
			for _, k := range lengths {
				arm := lenArms[k]
				var cov, spd, missed []float64
				for _, w := range ws {
					b, okB := r.TryRun(base, w.Name)
					res, okA := r.TryRun(arm, w.Name)
					if !okB || !okA {
						continue // gapped workload: excluded from the means
					}
					cov = append(cov, Coverage(b, res))
					spd = append(spd, Speedup(b, res))
					m := res.Cores[0].Meta
					if m.Lookups > 0 {
						missed = append(missed, 1-m.TriggerHitRate())
					}
				}
				if len(cov) == 0 {
					t.AddRow(fmt.Sprint(k),
						fmt.Sprint(meta.CorrelationsPerBlock(meta.Stream, k)),
						GapCell, GapCell, GapCell)
					continue
				}
				t.AddRow(fmt.Sprint(k),
					fmt.Sprint(meta.CorrelationsPerBlock(meta.Stream, k)),
					Pct(Mean(missed)), Pct(Mean(cov)), F(Geomean(spd)))
			}
			t.Notes = append(t.Notes,
				"paper: coverage peaks at length 4 (31.5%); missed triggers jump from 6.8% to 25.8% past length 4")
			return []Table{t}
		}})

	register(Experiment{ID: "fig12b", Title: "Redundancy and stream alignment",
		Run: func(r *Runner) []Table {
			t := Table{ID: "fig12b", Title: "metadata redundancy with/without stream alignment",
				Columns: []string{"workload", "redundancy(no-SA)", "redundancy(SA)", "benign-share"}}
			noSA := streamlineArm("streamline-noSA-fixed", "stride", "", func(o *core.Options) {
				o.DisableAlignment = true
				o.FixedBytes = o.MetaBytes
			})
			withSA := streamlineArm("streamline-SA-fixed", "stride", "", func(o *core.Options) {
				o.FixedBytes = o.MetaBytes
			})
			ws := r.Scale.irregular()
			r.Precompute(keepSystems(Singles([]Arm{noSA, withSA}, ws)))
			var rn, rs []float64
			for _, w := range ws {
				_, sysN := r.runWithSystem(noSA, w.Name)
				_, sysS := r.runWithSystem(withSA, w.Name)
				if sysN == nil || sysS == nil {
					// A failed system-retaining run leaves no prefetcher state
					// to inspect: gap the row, exclude it from the means.
					t.AddRow(w.Name, GapCell, GapCell, GapCell)
					continue
				}
				redN, _ := redundancy(streamlineOf(sysN).Store().DumpEntries())
				redS, benign := redundancy(streamlineOf(sysS).Store().DumpEntries())
				t.AddRow(w.Name, Pct(redN), Pct(redS), Pct(benign))
				rn, rs = append(rn, redN), append(rs, redS)
			}
			if len(rn) == 0 {
				t.AddRow("mean", GapCell, GapCell, "")
			} else {
				t.AddRow("mean", Pct(Mean(rn)), Pct(Mean(rs)), "")
			}
			t.Notes = append(t.Notes,
				"paper: stream alignment halves redundancy; 31% of remaining redundancy is benign")
			return []Table{t}
		}})

	register(Experiment{ID: "fig12c", Title: "Metadata buffer size sweep",
		Run: func(r *Runner) []Table {
			t := Table{ID: "fig12c", Title: "buffer size: alignment rate and coverage",
				Columns: []string{"buffer", "alignment-rate", "coverage", "speedup"}}
			ws := r.Scale.irregular()
			base := baseArm("stride", "")
			sizes := []int{1, 2, 3, 4, 6}
			sizeArms := map[int]Arm{}
			var sysArms []Arm
			for _, n := range sizes {
				n := n
				sizeArms[n] = streamlineArm(fmt.Sprintf("streamline-mb%d", n), "stride", "",
					func(o *core.Options) { o.MetaBufferSize = n })
				sysArms = append(sysArms, sizeArms[n])
			}
			r.Precompute(Singles([]Arm{base}, ws), keepSystems(Singles(sysArms, ws)))
			for _, n := range sizes {
				arm := sizeArms[n]
				var ar, cov, spd []float64
				for _, w := range ws {
					b, okB := r.TryRun(base, w.Name)
					res, sys := r.runWithSystem(arm, w.Name)
					if !okB || sys == nil {
						continue // gapped workload: excluded from the means
					}
					cov = append(cov, Coverage(b, res))
					spd = append(spd, Speedup(b, res))
					if p := streamlineOf(sys); p != nil && p.Stats.CompletedStreams > 0 {
						// Alignment rate relative to ALL completed entries:
						// a small buffer finds few of the overlaps that
						// exist, which is the effect the sweep measures.
						ar = append(ar, float64(p.Stats.Alignments)/
							float64(p.Stats.CompletedStreams))
					}
				}
				if len(cov) == 0 {
					t.AddRow(fmt.Sprint(n), GapCell, GapCell, GapCell)
					continue
				}
				t.AddRow(fmt.Sprint(n), Pct(Mean(ar)), Pct(Mean(cov)), F(Geomean(spd)))
			}
			t.Notes = append(t.Notes,
				"paper: a 1-entry buffer aligns 11% of redundant entries, a 3-entry buffer 67%; larger buffers add no coverage")
			return []Table{t}
		}})
}

// redundancy measures the fraction of stored correlations duplicated across
// entries, and how much of that duplication is benign (same address pair
// under different stream contexts, which disambiguates predictions).
func redundancy(entries []meta.Entry) (redundant, benignShare float64) {
	type occurrence struct {
		context mem.Line // address preceding the pair within the entry
	}
	pairs := map[[2]mem.Line][]occurrence{}
	total := 0
	for _, e := range entries {
		prev := e.Trigger
		context := mem.Line(0)
		for _, t := range e.Targets {
			pairs[[2]mem.Line{prev, t}] = append(pairs[[2]mem.Line{prev, t}],
				occurrence{context: context})
			context = prev
			prev = t
			total++
		}
	}
	if total == 0 {
		return 0, 0
	}
	dupTotal, benign := 0, 0
	for _, occs := range pairs {
		if len(occs) < 2 {
			continue
		}
		// All but one copy are redundant; copies with distinct contexts
		// are benign (they disambiguate the stream).
		contexts := map[mem.Line]bool{}
		for _, o := range occs {
			contexts[o.context] = true
		}
		dup := len(occs) - 1
		dupTotal += dup
		if len(contexts) > 1 {
			b := len(contexts) - 1
			if b > dup {
				b = dup
			}
			benign += b
		}
	}
	if dupTotal == 0 {
		return 0, 0
	}
	return float64(dupTotal) / float64(total), float64(benign) / float64(dupTotal)
}
