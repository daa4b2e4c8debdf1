package workloads

import "streamline/internal/mem"

// Analysis summarizes the temporal structure of a workload's access stream:
// the quantities that determine how prefetchable it is. The experiment
// harness uses it to document the suite, and tests use it to pin each
// generator's archetype.
type Analysis struct {
	// Records and Instructions counted over the analyzed window.
	Records      uint64
	Instructions uint64
	// Stores and DependentLoads as fractions of records.
	StoreFraction     float64
	DependentFraction float64
	// FootprintLines is the number of distinct lines touched.
	FootprintLines int
	// PCs is the number of distinct program counters.
	PCs int
	// LineMultiplicity is the mean occurrences of each line within the
	// window — per-lap multiplicity drives trigger ambiguity.
	LineMultiplicity float64
	// PairStability is the fraction of per-PC consecutive-access pairs
	// (trigger, target) whose trigger, when it recurs, keeps the same
	// target — the pairwise-format accuracy ceiling.
	PairStability float64
	// SequentialFraction is the fraction of records whose line equals or
	// follows the same PC's previous line (stride-prefetchable traffic).
	SequentialFraction float64
}

// Analyze inspects the first budget instructions of the workload's trace.
func Analyze(w Workload, s Scale, seed int64, budget uint64) Analysis {
	tr := w.NewTrace(s, seed)

	var a Analysis
	lines := map[mem.Line]uint32{}
	pcs := map[mem.PC]struct{}{}
	lastPC := map[mem.PC]mem.Line{}
	pairTarget := map[[2]uint64]mem.Line{} // (pc,trigger) -> last target
	var pairSame, pairTotal uint64
	var seq uint64

	for a.Instructions < budget {
		rec, ok := tr.Next()
		if !ok {
			break
		}
		a.Records++
		a.Instructions += rec.Instructions()
		if rec.IsWrite {
			a.StoreFraction++
		}
		if rec.DependsOnPrev {
			a.DependentFraction++
		}
		l := mem.LineOf(rec.Addr)
		lines[l]++
		pcs[rec.PC] = struct{}{}

		if prev, ok := lastPC[rec.PC]; ok {
			if l == prev || l == prev+1 {
				seq++
			}
			if prev != l {
				key := [2]uint64{uint64(rec.PC), uint64(prev)}
				if t, seen := pairTarget[key]; seen {
					pairTotal++
					if t == l {
						pairSame++
					}
				}
				pairTarget[key] = l
			}
		}
		lastPC[rec.PC] = l
	}
	if a.Records == 0 {
		return a
	}
	a.StoreFraction /= float64(a.Records)
	a.DependentFraction /= float64(a.Records)
	a.FootprintLines = len(lines)
	a.PCs = len(pcs)
	a.LineMultiplicity = float64(a.Records) / float64(len(lines))
	if pairTotal > 0 {
		a.PairStability = float64(pairSame) / float64(pairTotal)
	}
	a.SequentialFraction = float64(seq) / float64(a.Records)
	return a
}
