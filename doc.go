// Package streamline is a from-scratch Go reproduction of "Streamlined
// On-Chip Temporal Prefetching" (Duong & Lin, HPCA 2026): the Streamline
// temporal prefetcher, its Triage/Triangel baselines, the regular
// prefetchers of the paper's evaluation, and the full trace-driven
// simulation substrate they run on.
//
// Layout:
//
//   - internal/core — the Streamline prefetcher (the paper's contribution)
//   - internal/meta — the on-chip metadata substrate: pairwise and stream
//     stores, the Table I partitioning schemes, utility partitioning
//   - internal/prefetch/... — stride, Berti, IPCP, Bingo, SPP-PPF, Triage,
//     Triangel
//   - internal/{cache,cpu,dram,sim} — the simulated system of Table II;
//     internal/sim/engines.go is the engine table, the one place a
//     prefetcher name maps to its slot and constructor
//   - internal/workloads — synthetic SPEC/GAP-like benchmark suite
//   - internal/exp — the experiment harness (one runner per table/figure):
//     scale.go sizing and arms, runner.go the memoizing runner, sweep.go the
//     arms x units sweep every experiment asks for its simulations through,
//     failures.go/stats.go/table.go the reporting helpers
//   - internal/serve — the simulation-as-a-service layer behind cmd/streamd
//   - internal/metrics — counters/gauges/histograms with Prometheus text
//     exposition, shared by the daemon and the sweep runner
//   - cmd/{streamsim,experiments,streamd} — executables
//   - examples/ — runnable scenarios built on the public pieces
//
// `go run ./cmd/experiments -run all` regenerates every table and figure
// (`-scale micro` in seconds, `-scale paper` on the Table II hierarchy with
// full synthetic footprints); `go run ./benchmark` measures the simulator
// and the harness themselves. DESIGN.md maps every experiment to the modules
// that implement it; EXPERIMENTS.md records paper-reported versus measured
// results.
package streamline
