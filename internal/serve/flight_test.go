package serve

import (
	"fmt"
	"net/http"
	"slices"
	"strings"
	"testing"
)

// This file checks flightTable against a naive model. The model keeps every
// admitted, unsettled computation in a slice in admission order and answers
// by linear scan: a request joins the first flight of its key that is not
// abandoned; failing that, a draining table refuses it with 503, a full
// queue (every unsettled flight counts, abandoned ones too) with 429, and
// anything else is admitted. A harness drives the real table the way Server
// does, one event at a time, with no goroutines and no sleeps. After every
// event it compares what each request was answered, the flight each waiting
// request waits on, every unsettled flight's state, waiters and context, the
// live flight under each key, the queued count and the draining flag.

// flightOutcomes are the results a computation can end in, with the status
// every waiter is answered; only "ok" reaches the LRU.
var flightOutcomes = [...]struct {
	name   string
	status int
}{
	{"ok", http.StatusOK},
	{"fail", http.StatusInternalServerError},
	{"panic", http.StatusInternalServerError},
	{"timeout", http.StatusGatewayTimeout},
}

type flightEventKind uint8

const (
	evArrive     flightEventKind = iota // a request for key arg arrives
	evStart                             // flight arg takes a worker slot
	evFinish                            // flight arg ends in outcome out
	evRetry                             // evFinish, and its origin re-sends the moment it is answered
	evDisconnect                        // request arg goes away
	evDrain                             // Drain begins
	evDeadline                          // Drain begins and its deadline passes
)

// flightEvent is one step of an ordering. A flight is named by its position
// among the unsettled flights in admission order, a request by its arrival
// number.
type flightEvent struct {
	kind     flightEventKind
	arg, out int
}

func (e flightEvent) String() string {
	switch e.kind {
	case evArrive:
		return fmt.Sprintf("arrive(k%d)", e.arg)
	case evStart:
		return fmt.Sprintf("start(f%d)", e.arg)
	case evFinish:
		return fmt.Sprintf("%s(f%d)", flightOutcomes[e.out].name, e.arg)
	case evRetry:
		return fmt.Sprintf("%s(f%d)+retry", flightOutcomes[e.out].name, e.arg)
	case evDisconnect:
		return fmt.Sprintf("disconnect(r%d)", e.arg)
	case evDrain:
		return "drain"
	}
	return "deadline"
}

// reply is what a request was answered: a status and a cache tier, 499 when
// the client went away. The zero reply is a request still waiting.
type reply struct {
	status int
	tier   string
}

// modelFlight is one admitted, unsettled computation of the model.
type modelFlight struct {
	key                int
	waiters            []int // waiting requests, in arrival order
	started, abandoned bool
}

// flightModel is the naive model of the table and the LRU in front of it.
type flightModel struct {
	depth    int
	keysUsed int            // keys 0..keysUsed-1 have had a request
	flights  []*modelFlight // unsettled, in admission order
	cached   map[int]bool
	draining bool
	replies  []reply
	tiers    []string       // each request's tier while it waits
	waitsOn  []*modelFlight // each request's flight while it waits
}

func (m *flightModel) arrive(key int) {
	r := len(m.replies)
	m.replies, m.tiers, m.waitsOn = append(m.replies, reply{}), append(m.tiers, ""), append(m.waitsOn, nil)
	m.keysUsed = max(m.keysUsed, key+1)
	if m.cached[key] {
		m.replies[r] = reply{http.StatusOK, "memory"}
		return
	}
	for _, f := range m.flights {
		if f.key == key && !f.abandoned {
			f.waiters = append(f.waiters, r)
			m.tiers[r], m.waitsOn[r] = "flight", f
			return
		}
	}
	switch {
	case m.draining:
		m.replies[r] = reply{http.StatusServiceUnavailable, ""}
	case len(m.flights) >= m.depth:
		m.replies[r] = reply{http.StatusTooManyRequests, ""}
	default:
		f := &modelFlight{key: key, waiters: []int{r}}
		m.flights = append(m.flights, f)
		m.tiers[r], m.waitsOn[r] = "none", f
	}
}

func (m *flightModel) apply(e flightEvent) {
	switch e.kind {
	case evArrive:
		m.arrive(e.arg)
	case evStart:
		m.flights[e.arg].started = true
	case evFinish, evRetry:
		f := m.flights[e.arg]
		m.flights = slices.Delete(m.flights, e.arg, e.arg+1)
		if e.out == 0 {
			m.cached[f.key] = true
		}
		for _, r := range f.waiters {
			m.replies[r] = reply{flightOutcomes[e.out].status, m.tiers[r]}
			m.waitsOn[r] = nil
		}
		if e.kind == evRetry {
			m.arrive(f.key)
		}
	case evDisconnect:
		f := m.waitsOn[e.arg]
		f.waiters = slices.DeleteFunc(f.waiters, func(r int) bool { return r == e.arg })
		m.replies[e.arg], m.waitsOn[e.arg] = reply{499, m.tiers[e.arg]}, nil
		if len(f.waiters) == 0 {
			f.abandoned = true
		}
	case evDrain:
		m.draining = true
	case evDeadline:
		m.draining = true
		for _, f := range m.flights {
			f.abandoned = true
		}
	}
}

// origin returns f's originating request while it still waits, else -1.
func (m *flightModel) origin(f *modelFlight) int {
	if len(f.waiters) > 0 && m.tiers[f.waiters[0]] == "none" {
		return f.waiters[0]
	}
	return -1
}

// enabled lists the events that can happen next on up to keys keys. Key
// k+1 waits until key k has had a request, and of the requests waiting on
// one flight with one tier only the first may disconnect: the others are
// interchangeable with it.
func (m *flightModel) enabled(keys int) []flightEvent {
	var evs []flightEvent
	for k := range min(keys, m.keysUsed+1) {
		evs = append(evs, flightEvent{kind: evArrive, arg: k})
	}
	for i, f := range m.flights {
		if !f.started {
			evs = append(evs, flightEvent{kind: evStart, arg: i})
		}
		for o := range flightOutcomes {
			evs = append(evs, flightEvent{kind: evFinish, arg: i, out: o})
			if m.origin(f) >= 0 {
				evs = append(evs, flightEvent{kind: evRetry, arg: i, out: o})
			}
		}
		if r := m.origin(f); r >= 0 {
			evs = append(evs, flightEvent{kind: evDisconnect, arg: r})
		}
		for _, r := range f.waiters {
			if m.tiers[r] == "flight" {
				evs = append(evs, flightEvent{kind: evDisconnect, arg: r})
				break
			}
		}
	}
	if !m.draining {
		evs = append(evs, flightEvent{kind: evDrain}, flightEvent{kind: evDeadline})
	}
	return evs
}

// flightRig drives a real flightTable as Server does: the LRU in front of
// it, join on a miss, the result cached before the flight settles.
type flightRig struct {
	t       *flightTable
	cached  map[string]bool
	flights []*flight // unsettled, in admission order
	replies []reply
	tiers   []string
	waitsOn []*flight
	// release ends f's worker and calls atWake the moment f's waiters can
	// see its answer; leave is a waiter going away. The table's own are
	// tableRelease and (*flightTable).leave.
	release func(t *flightTable, f *flight, atWake func())
	leave   func(t *flightTable, f *flight)
	bad     string // the first inconsistency seen inside an event
}

func tableRelease(t *flightTable, f *flight, atWake func()) {
	t.settle(f) // closing done is the last step a waiter can observe
	atWake()
}

// flightKeys are the table keys of model keys 0 and 1.
var flightKeys = [...]string{"k0", "k1"}

func (g *flightRig) arrive(key string) {
	r := len(g.replies)
	g.replies, g.tiers, g.waitsOn = append(g.replies, reply{}), append(g.tiers, ""), append(g.waitsOn, nil)
	if g.cached[key] {
		g.replies[r] = reply{http.StatusOK, "memory"}
		return
	}
	f, fresh, queued, draining := g.t.join(key)
	if queued != g.t.queued || draining != g.t.draining {
		g.bad = fmt.Sprintf("join returned queued=%d draining=%t, table holds %d %t",
			queued, draining, g.t.queued, g.t.draining)
	}
	switch {
	case f == nil && draining:
		g.replies[r] = reply{http.StatusServiceUnavailable, ""}
	case f == nil:
		g.replies[r] = reply{http.StatusTooManyRequests, ""}
	case fresh:
		g.flights = append(g.flights, f)
		g.tiers[r], g.waitsOn[r] = "none", f
	default:
		g.tiers[r], g.waitsOn[r] = "flight", f
	}
}

// wake answers every waiting request whose flight's done has closed.
func (g *flightRig) wake() {
	for r, f := range g.waitsOn {
		if f == nil {
			continue
		}
		select {
		case <-f.done:
			g.replies[r], g.waitsOn[r] = reply{f.status, g.tiers[r]}, nil
		default:
		}
	}
}

func (g *flightRig) apply(e flightEvent) {
	switch e.kind {
	case evArrive:
		g.arrive(flightKeys[e.arg])
	case evStart:
		g.t.start(g.flights[e.arg])
	case evFinish, evRetry:
		f := g.flights[e.arg]
		g.flights = slices.Delete(g.flights, e.arg, e.arg+1)
		if e.out == 0 {
			g.cached[f.key] = true
		}
		f.status = flightOutcomes[e.out].status
		g.release(g.t, f, func() {
			g.wake()
			if e.kind == evRetry {
				g.arrive(f.key)
			}
		})
		if f.state != flightSettled {
			g.bad = fmt.Sprintf("a released flight is in state %d", f.state)
		}
	case evDisconnect:
		f := g.waitsOn[e.arg]
		g.leave(g.t, f)
		g.replies[e.arg], g.waitsOn[e.arg] = reply{499, g.tiers[e.arg]}, nil
	case evDrain:
		g.t.stopAdmitting()
	case evDeadline:
		g.t.stopAdmitting()
		g.t.abort()
	}
	g.wake()
}

// diff returns how the rig disagrees with the model, or "".
func (g *flightRig) diff(m *flightModel) string {
	if g.bad != "" {
		return g.bad
	}
	if !slices.Equal(g.replies, m.replies) {
		return fmt.Sprintf("replies %v, model %v", g.replies, m.replies)
	}
	if g.t.queued != len(m.flights) || g.t.draining != m.draining {
		return fmt.Sprintf("queued=%d draining=%t, model %d %t",
			g.t.queued, g.t.draining, len(m.flights), m.draining)
	}
	if len(g.flights) != len(m.flights) {
		return fmt.Sprintf("%d unsettled flights, model %d", len(g.flights), len(m.flights))
	}
	live := 0
	for i, f := range g.flights {
		mf := m.flights[i]
		want := flightQueued
		switch {
		case mf.abandoned:
			want = flightAbandoned
		case mf.started:
			want = flightRunning
		}
		if !mf.abandoned {
			live++
		}
		switch {
		case f.key != flightKeys[mf.key]:
			return fmt.Sprintf("f%d has key %s, model k%d", i, f.key, mf.key)
		case f.state != want:
			return fmt.Sprintf("f%d in state %d, model %d", i, f.state, want)
		case f.waiters != len(mf.waiters):
			return fmt.Sprintf("f%d has %d waiters, model %d", i, f.waiters, len(mf.waiters))
		case (f.ctx.Err() != nil) != mf.abandoned:
			return fmt.Sprintf("f%d canceled=%t, model abandoned=%t", i, f.ctx.Err() != nil, mf.abandoned)
		case (g.t.live[f.key] == f) == mf.abandoned:
			return fmt.Sprintf("f%d live=%t, model abandoned=%t", i, g.t.live[f.key] == f, mf.abandoned)
		}
	}
	if len(g.t.live) != live {
		return fmt.Sprintf("%d live flights, model %d", len(g.t.live), live)
	}
	for r, f := range g.waitsOn {
		if i, mi := slices.Index(g.flights, f), slices.Index(m.flights, m.waitsOn[r]); i != mi {
			return fmt.Sprintf("r%d waits on f%d, model f%d", r, i, mi)
		}
	}
	return ""
}

// flightCheck configures one model check: the queue depth, and the table's
// release and leave, or stand-ins for them.
type flightCheck struct {
	depth   int
	release func(t *flightTable, f *flight, atWake func())
	leave   func(t *flightTable, f *flight)
}

var tableCheck = flightCheck{depth: 2, release: tableRelease, leave: (*flightTable).leave}

// run applies events to a fresh table and model, compares them after each
// event from the from'th on, and returns the first divergence, naming the
// events up to where it showed, and the final model. A non-nil cov counts
// what the last event does.
func (c flightCheck) run(events []flightEvent, from int, cov *flightCoverage) (string, *flightModel) {
	n := 2 * len(events) // requests: one per arrival or retry
	m := &flightModel{depth: c.depth, cached: map[int]bool{},
		replies: make([]reply, 0, n), tiers: make([]string, 0, n), waitsOn: make([]*modelFlight, 0, n)}
	g := &flightRig{
		t:       &flightTable{live: map[string]*flight{}, depth: c.depth},
		cached:  map[string]bool{},
		replies: make([]reply, 0, n), tiers: make([]string, 0, n), waitsOn: make([]*flight, 0, n),
		release: c.release,
		leave:   c.leave,
	}
	for i, e := range events {
		if cov != nil && i == len(events)-1 {
			cov.note(m, e)
		}
		m.apply(e)
		g.apply(e)
		if i < from {
			continue
		}
		if d := g.diff(m); d != "" {
			return fmt.Sprintf("after %v: %s", events[:i+1], d), m
		}
	}
	return "", m
}

// flightCoverage counts the situations the exhaustive check must reach.
type flightCoverage struct {
	orderings, rejected, drainRefused, abandoned int
	// successors counts arrivals admitted while an abandoned flight of the
	// same key was still unwinding; orphans, such abandoned flights
	// settling while their successor was live.
	successors, orphans int
}

// explore runs every ordering of up to depth events on up to keys keys and
// returns the first divergence.
func (c flightCheck) explore(keys, depth int) (string, flightCoverage) {
	var cov flightCoverage
	var walk func(prefix []flightEvent) string
	walk = func(prefix []flightEvent) string {
		// Every shorter prefix was compared on its own walk.
		d, m := c.run(prefix, len(prefix)-1, &cov)
		if d != "" || len(prefix) == depth {
			cov.orderings++
			return d
		}
		for _, e := range m.enabled(keys) {
			if d := walk(append(slices.Clip(prefix), e)); d != "" {
				return d
			}
		}
		return ""
	}
	return walk(nil), cov
}

// note counts what event e does from the model state m.
func (cov *flightCoverage) note(m *flightModel, e flightEvent) {
	switch e.kind {
	case evArrive:
		unwinding, live := false, false
		for _, f := range m.flights {
			if f.key == e.arg {
				unwinding = unwinding || f.abandoned
				live = live || !f.abandoned
			}
		}
		switch {
		case m.cached[e.arg] || live:
		case m.draining:
			cov.drainRefused++
		case len(m.flights) >= m.depth:
			cov.rejected++
		case unwinding:
			cov.successors++
		}
	case evDisconnect:
		if f := m.waitsOn[e.arg]; len(f.waiters) == 1 && !f.abandoned {
			cov.abandoned++
		}
	case evFinish, evRetry:
		f := m.flights[e.arg]
		if f.abandoned && slices.ContainsFunc(m.flights, func(g *modelFlight) bool {
			return g.key == f.key && !g.abandoned
		}) {
			cov.orphans++
		}
	}
}

// TestFlightTableMatchesModel runs every ordering, to depth 6, of arrivals,
// worker starts, computations ending ok, failed, panicked or timed out (each
// also with its origin re-sending the moment it is answered), disconnects,
// and the drain with and without its deadline, on one key and on two, with
// room in the queue for two computations.
func TestFlightTableMatchesModel(t *testing.T) {
	for _, keys := range []int{1, 2} {
		d, cov := tableCheck.explore(keys, 6)
		if d != "" {
			t.Fatalf("%d key(s): %s", keys, d)
		}
		t.Logf("%d key(s): %+v", keys, cov)
		if cov.rejected == 0 || cov.drainRefused == 0 || cov.abandoned == 0 ||
			cov.successors == 0 || cov.orphans == 0 {
			t.Errorf("%d key(s): the orderings miss a situation the check must reach: %+v", keys, cov)
		}
	}
}

// parentRelease is how a flight's worker ended before the flight table: it
// woke the waiters, and only then took the flight out of the table, by key.
func parentRelease(t *flightTable, f *flight, atWake func()) {
	close(f.done)
	atWake()
	t.mu.Lock()
	delete(t.live, f.key)
	f.state = flightSettled
	t.queued--
	t.mu.Unlock()
	f.cancel()
	t.workers.Done()
}

// parentLeave is how a waiter went away before the flight table: the last
// one canceled the flight but left it in the table, open to new requests.
// It keeps the table's state bookkeeping, so the only difference the model
// can see is the table membership.
func parentLeave(t *flightTable, f *flight) {
	t.mu.Lock()
	if f.waiters--; f.waiters == 0 {
		f.state = flightAbandoned
		f.cancel()
	}
	t.mu.Unlock()
}

// TestFlightTableRejectsParentOrders replays the two orderings in which the
// server before the flight table answered a request from a dead flight, with
// that server's release and leave standing in for the table's. The model
// must reject both, the exhaustive check must find each, and the table must
// pass both orderings.
func TestFlightTableRejectsParentOrders(t *testing.T) {
	cases := []struct {
		name   string
		check  flightCheck
		events []flightEvent
		want   string // in the divergence
	}{{
		// A client re-sends the moment its failed computation answers; the
		// dead flight is still in the table and answers the retry too.
		name:  "settled flight still joinable",
		check: flightCheck{depth: 2, release: parentRelease, leave: (*flightTable).leave},
		events: []flightEvent{
			{kind: evArrive}, {kind: evStart}, {kind: evRetry, out: 1},
		},
		want: "replies",
	}, {
		// The only client goes away, its canceled computation is still
		// unwinding, and an identical request arrives.
		name:  "abandoned flight still joinable",
		check: flightCheck{depth: 2, release: tableRelease, leave: parentLeave},
		events: []flightEvent{
			{kind: evArrive}, {kind: evStart}, {kind: evDisconnect}, {kind: evArrive},
			{kind: evFinish, out: 3}, {kind: evFinish},
		},
		want: "live=true, model abandoned=true",
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, _ := tc.check.run(tc.events, 0, nil)
			if !strings.Contains(d, tc.want) {
				t.Errorf("the model did not reject the parent's order with %q: %q", tc.want, d)
			}
			if d, _ := tc.check.explore(1, 6); d == "" {
				t.Error("the exhaustive check accepts the parent's order")
			} else {
				t.Logf("exhaustive check: %s", d)
			}
			if d, m := tableCheck.run(tc.events, 0, nil); d != "" {
				t.Errorf("the table diverges: %s", d)
			} else {
				t.Logf("the table answers %v", m.replies)
			}
		})
	}
}
