package sim_test

// Stepped-vs-oneshot equivalence: driving a System through Engine.Step with
// any epoch size must produce a Result bit-identical to Run(), because Run is
// the same engine driven to completion. The suite covers every prefetcher arm
// and a spread of epoch sizes (single-record, prime, the default, and
// whole-run), plus a clean audit of every stepped run and the
// cancellation/progress contracts of RunCtx.

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"streamline/internal/sim"
)

// engineEpochs are the step granularities under test: one record at a time
// (maximum interleaving of bookkeeping with execution), a small prime (epoch
// boundaries misaligned with every internal cadence), the default epoch, and
// a single step covering the whole run.
var engineEpochs = []uint64{1, 7, sim.DefaultEpoch, math.MaxUint64}

func epochName(epoch uint64) string {
	if epoch == math.MaxUint64 {
		return "whole-run"
	}
	return fmt.Sprintf("epoch-%d", epoch)
}

func TestEngineSteppedEquivalence(t *testing.T) {
	families := conformanceFamilies
	for i, arm := range conformanceArms() {
		arm := arm
		// One representative workload per arm, rotating through the
		// families so every family appears under at least one arm without
		// running the full 9x7 matrix four extra times.
		workload := families[i%len(families)]
		t.Run(arm.name+"/"+workload, func(t *testing.T) {
			oneshot, aud := runConformance(t, arm, workload)
			if n := aud.Total(); n != 0 {
				var sb strings.Builder
				aud.WriteReport(&sb)
				t.Fatalf("one-shot run: %d audit violations:\n%s", n, sb.String())
			}

			for _, epoch := range engineEpochs {
				epoch := epoch
				t.Run(epochName(epoch), func(t *testing.T) {
					sys, aud := buildConformanceSys(t, arm, workload)
					eng := sys.Engine()
					for !eng.Done() {
						eng.Step(epoch)
					}
					stepped := eng.Finish()

					if !reflect.DeepEqual(oneshot, stepped) {
						t.Errorf("stepped result differs from Run():\n%s",
							diffSummary(oneshot, stepped))
					}
					// The audit, the result's laws included, must hold on a
					// run assembled from steps, not just on the one-shot path.
					if n := aud.Total(); n != 0 {
						var sb strings.Builder
						aud.WriteReport(&sb)
						t.Errorf("stepped run: %d audit violations:\n%s", n, sb.String())
					}
				})
			}
		})
	}
}

// TestEngineFinishIdempotent: Finish must return the same Result on repeated
// calls without re-collecting (stats snapshots are not re-derivable after the
// first collect on some prefetchers).
func TestEngineFinishIdempotent(t *testing.T) {
	arm := conformanceArms()[0]
	sys, _ := buildConformanceSys(t, arm, "mcf06")
	eng := sys.Engine()
	first := eng.Finish()
	second := eng.Finish()
	if !reflect.DeepEqual(first, second) {
		t.Errorf("Finish not idempotent:\n%s", diffSummary(first, second))
	}
	if !eng.Done() {
		t.Error("engine not Done after Finish")
	}
}

// TestEngineProgress checks the observable contract of Progress across a
// stepped run: records and instructions are monotone, MeasuredFraction stays
// in [0,1] and is monotone, and the final view reports completion.
func TestEngineProgress(t *testing.T) {
	arm := conformanceArms()[0]
	sys, _ := buildConformanceSys(t, arm, "pr")
	eng := sys.Engine()

	p := eng.Progress()
	if p.Records != 0 || p.Done {
		t.Fatalf("fresh engine: Records=%d Done=%v, want 0/false", p.Records, p.Done)
	}
	if p.Target == 0 {
		t.Fatal("Progress.Target is zero; config not reflected")
	}

	prev := p
	for !eng.Done() {
		eng.Step(512)
		p = eng.Progress()
		if p.Records < prev.Records {
			t.Fatalf("Records regressed: %d -> %d", prev.Records, p.Records)
		}
		if p.Instructions < prev.Instructions {
			t.Fatalf("Instructions regressed: %d -> %d", prev.Instructions, p.Instructions)
		}
		if f := p.MeasuredFraction(); f < 0 || f > 1 {
			t.Fatalf("MeasuredFraction %f outside [0,1]", f)
		}
		if p.MeasuredFraction() < prev.MeasuredFraction() {
			t.Fatalf("MeasuredFraction regressed: %f -> %f",
				prev.MeasuredFraction(), p.MeasuredFraction())
		}
		prev = p
	}
	if !p.Done {
		t.Error("final Progress.Done is false after engine completed")
	}
	if p.Instructions != p.Target {
		t.Errorf("final Instructions=%d, want Target=%d", p.Instructions, p.Target)
	}
	if got := p.MeasuredFraction(); got != 1 {
		t.Errorf("final MeasuredFraction=%f, want 1", got)
	}
}

// TestEngineStepZero: Step(0) performs only bookkeeping — it executes no
// records and leaves the later full run bit-identical.
func TestEngineStepZero(t *testing.T) {
	arm := conformanceArms()[0]
	oneshot, _ := runConformance(t, arm, "bfs")

	sys, _ := buildConformanceSys(t, arm, "bfs")
	eng := sys.Engine()
	if n := eng.Step(0); n != 0 {
		t.Fatalf("Step(0) executed %d records, want 0", n)
	}
	if eng.Progress().Records != 0 {
		t.Fatal("Step(0) retired records")
	}
	if got := eng.Finish(); !reflect.DeepEqual(oneshot, got) {
		t.Errorf("run after Step(0) differs from Run():\n%s", diffSummary(oneshot, got))
	}
}

// TestRunCtx covers the three RunCtx behaviors: an uncanceled run matches
// Run() exactly and reports monotone progress through observe; a
// pre-canceled context returns immediately with no records executed; and a
// cancellation mid-run stops at the next epoch boundary with ctx.Err() and a
// zero Result.
func TestRunCtx(t *testing.T) {
	arm := conformanceArms()[0]
	oneshot, _ := runConformance(t, arm, "omnetpp06")

	t.Run("uncanceled-matches-run", func(t *testing.T) {
		sys, _ := buildConformanceSys(t, arm, "omnetpp06")
		var calls int
		var last sim.Progress
		res, err := sys.RunCtx(context.Background(), 256, func(p sim.Progress) {
			calls++
			if p.Records < last.Records {
				t.Fatalf("observe: Records regressed %d -> %d", last.Records, p.Records)
			}
			last = p
		})
		if err != nil {
			t.Fatalf("RunCtx: %v", err)
		}
		if !reflect.DeepEqual(oneshot, res) {
			t.Errorf("RunCtx result differs from Run():\n%s", diffSummary(oneshot, res))
		}
		if calls == 0 {
			t.Error("observe was never invoked")
		}
		if !last.Done {
			t.Error("last observed Progress not Done")
		}
	})

	t.Run("pre-canceled", func(t *testing.T) {
		sys, _ := buildConformanceSys(t, arm, "omnetpp06")
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := sys.RunCtx(ctx, 0, nil)
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if !reflect.DeepEqual(res, sim.Result{}) {
			t.Error("canceled RunCtx returned a non-zero Result")
		}
	})

	t.Run("cancel-mid-run", func(t *testing.T) {
		sys, _ := buildConformanceSys(t, arm, "omnetpp06")
		ctx, cancel := context.WithCancel(context.Background())
		var observed uint64
		res, err := sys.RunCtx(ctx, 64, func(p sim.Progress) {
			observed = p.Records
			if p.Records >= 512 {
				cancel()
			}
		})
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if !reflect.DeepEqual(res, sim.Result{}) {
			t.Error("canceled RunCtx returned a non-zero Result")
		}
		if observed < 512 {
			t.Fatalf("canceled after %d records, before the trigger point", observed)
		}
		// The run stopped well short of completion: the one-shot run retires
		// far more records than the cancellation point.
		if observed >= oneshot.Cores[0].Instructions {
			t.Errorf("observed %d records at cancel, full run is only %d instructions",
				observed, oneshot.Cores[0].Instructions)
		}
	})
}
