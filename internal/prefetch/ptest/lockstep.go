package ptest

import (
	"fmt"
	"testing"

	"streamline/internal/prefetch"
)

// Need is one case a lockstep stream must reach, as a reference model
// counts it.
type Need struct {
	name string
	n    *int
	min  int
}

// AtLeast is the need that the counter n reads at least min by the end of
// the stream.
func AtLeast(min int, name string, n *int) Need { return Need{name, n, min} }

// Lockstep steps an engine and a reference model through the same events.
type Lockstep struct {
	// Engine and Ref are the two Train methods.
	Engine, Ref func(prefetch.Event, []prefetch.Request) []prefetch.Request
	Events      []prefetch.Event
	// Step, when set, compares the two after every call; Tables, when set,
	// compares them every 1,024 calls and after the last. Each is handed the
	// index of the event just trained and describes the first difference.
	Step, Tables func(at int) error
	Needs        []Need
}

// Diverge runs the lockstep and returns the first event after which the
// requests, Step or Tables differ, with the difference, or -1 and nil.
func (l Lockstep) Diverge() (int, error) {
	var got, want []prefetch.Request
	for i, ev := range l.Events {
		got = l.Engine(ev, got[:0])
		want = l.Ref(ev, want[:0])
		if len(got) != len(want) {
			return i, fmt.Errorf("%d requests, reference %d", len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				return i, fmt.Errorf("request %d is %+v, reference %+v", j, got[j], want[j])
			}
		}
		if l.Step != nil {
			if err := l.Step(i); err != nil {
				return i, err
			}
		}
		if l.Tables != nil && (i%1024 == 1023 || i == len(l.Events)-1) {
			if err := l.Tables(i); err != nil {
				return i, err
			}
		}
	}
	return -1, nil
}

// Run fails t at the first divergence, then logs every need and fails
// unless each is met.
func (l Lockstep) Run(t *testing.T) {
	t.Helper()
	if at, err := l.Diverge(); err != nil {
		t.Fatalf("event %d: %v", at, err)
	}
	for _, n := range l.Needs {
		t.Logf("%s: %d", n.name, *n.n)
		if *n.n < n.min {
			t.Errorf("%s: the stream reached %d, want at least %d", n.name, *n.n, n.min)
		}
	}
}

// TrainAllocatesNothing fails if three instances from mk, each training once
// over evs, allocate. With warm set each first trains over evs unmeasured,
// for an engine that allocates per-PC state on a PC's first claim.
func TrainAllocatesNothing(t *testing.T, mk func() prefetch.Prefetcher, evs []prefetch.Event, warm bool) {
	t.Helper()
	ps := []prefetch.Prefetcher{mk(), mk(), mk()}
	out := make([]prefetch.Request, 0, maxDegree)
	train := func(p prefetch.Prefetcher) {
		for _, ev := range evs {
			out = p.Train(ev, out[:0])
		}
	}
	if warm {
		for _, p := range ps {
			train(p)
		}
	}
	run := 0
	if n := testing.AllocsPerRun(len(ps)-1, func() { train(ps[run]); run++ }); n != 0 {
		t.Errorf("Train allocated %.1f times over %d events", n, len(evs))
	}
}

// BenchmarkTrain trains p over evs, cycled through, one event per op.
func BenchmarkTrain(b *testing.B, p prefetch.Prefetcher, evs []prefetch.Event) {
	out := make([]prefetch.Request, 0, maxDegree)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = p.Train(evs[i%len(evs)], out[:0])
	}
	benchOut = out
}

// benchOut keeps BenchmarkTrain's result live.
var benchOut []prefetch.Request
