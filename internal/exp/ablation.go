package exp

import (
	"fmt"

	"streamline/internal/core"
	"streamline/internal/meta"
	"streamline/internal/workloads"
)

// This file regenerates Figure 14 (the component ablation) and Figure 15
// (filtering coverage loss and its mitigations).

// ablationVariants builds the Figure 14 arms: additions on top of
// Streamline-unopt and removals from the complete design.
func ablationVariants() []Arm {
	mk := func(name string, mod func(*core.Options)) Arm {
		return streamlineArm(name, "stride", "", mod)
	}
	unopt := func(o *core.Options) { *o = withScale(core.UnoptOptions(), *o) }
	return []Arm{
		triangelArm("triangel", "stride", "", nil),
		mk("unopt", unopt),
		mk("unopt+MB", func(o *core.Options) {
			unopt(o)
			o.MetaBufferSize = 3
		}),
		mk("unopt+SA", func(o *core.Options) {
			unopt(o)
			o.DisableAlignment = false // without a buffer, alignment has nothing to match
		}),
		mk("unopt+MB,SA", func(o *core.Options) {
			unopt(o)
			o.MetaBufferSize = 3
			o.DisableAlignment = false
		}),
		mk("unopt+TSP", func(o *core.Options) {
			unopt(o)
			o.WayPartitioned = false
			o.Unfiltered = false
		}),
		mk("unopt+TP-MJ", func(o *core.Options) {
			unopt(o)
			o.Policy = nil // TP-Mockingjay default
		}),
		mk("unopt+TSP,TP-MJ", func(o *core.Options) {
			unopt(o)
			o.WayPartitioned = false
			o.Unfiltered = false
			o.Policy = nil
		}),
		mk("full-MB,SA", func(o *core.Options) {
			o.MetaBufferSize = 0
			o.DisableAlignment = true
		}),
		mk("full-TSP", func(o *core.Options) {
			o.WayPartitioned = true
			o.Unfiltered = true
		}),
		mk("full-TP-MJ", func(o *core.Options) { o.Policy = meta.NewEntrySRRIP }),
		mk("streamline", nil),
	}
}

// withScale preserves the scale-dependent fields a runner injected into the
// default options when replacing them with a variant preset.
func withScale(preset, scaled core.Options) core.Options {
	preset.MetaBytes = scaled.MetaBytes
	preset.MinSets = scaled.MinSets
	return preset
}

func init() {
	register(Experiment{ID: "fig14", Title: "Component ablation",
		Run: func(r *Runner) []Table {
			t := Table{ID: "fig14", Title: "ablation: coverage / accuracy / speedup (irregular subset)",
				Columns: []string{"arm", "coverage", "accuracy", "speedup"}}
			base := baseArm("stride", "")
			variants := ablationVariants()
			g := r.Sweep(append([]Arm{base}, variants...),
				SingleUnits(workloads.Names(r.Scale.irregular())))[0]
			for _, arm := range variants {
				// A gapped workload is excluded from this arm's means.
				rows := g.Rows(base, arm)
				if len(rows) == 0 {
					t.AddRow(arm.Name, GapCell, GapCell, GapCell)
					continue
				}
				t.AddRow(arm.Name, Pct(Mean(over(rows, Coverage, 0, 1))),
					Pct(Mean(accuracies(rows, 1))), F(Geomean(over(rows, Speedup, 0, 1))))
			}
			t.Notes = append(t.Notes,
				"paper: unopt alone beats Triangel's coverage by 7.6 pp; MB+SA and TSP+TP-MJ are synergistic pairs; removing any component costs performance")
			return []Table{t}
		}})

	register(Experiment{ID: "fig15", Title: "Filtering coverage loss and mitigations",
		Run: func(r *Runner) []Table {
			t := Table{ID: "fig15", Title: "small partitions: filtering, realignment, skew, hybrid",
				Columns: []string{"arm", "size", "coverage", "speedup", "filtered-inserts"}}
			fracs := []int{2, 4}
			arms := []Arm{baseArm("stride", "")}
			for _, frac := range fracs {
				sz := r.Scale.MetaBytes / frac
				arms = append(arms,
					streamlineArm(fmt.Sprintf("unfiltered-%d", frac), "stride", "",
						func(o *core.Options) { o.FixedBytes = sz; o.Unfiltered = true }),
					streamlineArm(fmt.Sprintf("filtered-norealign-%d", frac), "stride", "",
						func(o *core.Options) { o.FixedBytes = sz; o.DisableRealignment = true }),
					streamlineArm(fmt.Sprintf("filtered-realign-%d", frac), "stride", "",
						func(o *core.Options) { o.FixedBytes = sz }),
					streamlineArm(fmt.Sprintf("skewed-%d", frac), "stride", "",
						func(o *core.Options) { o.FixedBytes = sz; o.Skewed = true }),
					streamlineArm(fmt.Sprintf("hybrid-%d", frac), "stride", "",
						func(o *core.Options) { o.FixedBytes = sz; o.Hybrid = true }))
			}
			g := r.Sweep(arms, SingleUnits(workloads.Names(r.Scale.irregular())))[0]
			perSize := (len(arms) - 1) / len(fracs)
			for i, arm := range arms[1:] {
				size := fmt.Sprintf("%dKB", r.Scale.MetaBytes/fracs[i/perSize]>>10)
				// A gapped workload is excluded from this arm's means.
				rows := g.Rows(arms[0], arm)
				if len(rows) == 0 {
					t.AddRow(arm.Name, size, GapCell, GapCell, GapCell)
					continue
				}
				var filtered uint64
				for _, row := range rows {
					filtered += row[1].res.Cores[0].Meta.FilteredInserts
				}
				t.AddRow(arm.Name, size, Pct(Mean(over(rows, Coverage, 0, 1))),
					F(Geomean(over(rows, Speedup, 0, 1))), fmt.Sprint(filtered))
			}
			t.Notes = append(t.Notes,
				"paper: realignment recoups 72-79% of filtering's loss; skewed indexing recovers it all; hybrid partitioning beats unfiltered at small sizes")
			return []Table{t}
		}})
}
