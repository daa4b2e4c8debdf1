// Package exp is the experiment harness: one runner per table and figure of
// the paper's evaluation (see DESIGN.md's experiment index). Each runner
// assembles the system configurations, drives the synthetic workloads, and
// prints the same rows/series the paper reports, so `cmd/experiments -run
// fig9` regenerates Figure 9's data.
//
// Two scales are provided: Small (scaled-down caches and footprints; runs in
// seconds per arm, used by the benchmark harness) and Paper (the Table II
// hierarchy with full footprints).
package exp

import "sort"

// Experiment is one reproducible table/figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(r *Runner) []Table
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every experiment sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
