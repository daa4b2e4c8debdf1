package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
)

// DefaultEventLimit bounds retained event records per sink so a pathological
// run (an MSHR-full storm, say) cannot produce an unbounded trace. Dropped
// events are counted per component/event and reported in the closing
// summary record. Interval records are never dropped: their count is bounded
// by instructions/interval.
const DefaultEventLimit = 4096

// Sink serializes telemetry records to w as JSON Lines. It is not safe for
// concurrent use; give each simulated system its own Sink (the experiment
// runner does). A nil *Sink is a valid no-op sink.
type Sink struct {
	w   *bufio.Writer
	err error

	minSev Severity
	limit  int

	intervals uint64
	events    uint64
	dropped   map[string]uint64
	droppedN  uint64
}

// NewSink returns a sink writing to w with the default event limit and a
// minimum severity of Info.
func NewSink(w io.Writer) *Sink {
	return &Sink{
		w:      bufio.NewWriter(w),
		minSev: Info,
		limit:  DefaultEventLimit,
	}
}

// SetMinSeverity sets the lowest severity of event records to retain.
func (s *Sink) SetMinSeverity(sev Severity) {
	if s != nil {
		s.minSev = sev
	}
}

func (s *Sink) wants(sev Severity) bool {
	return s != nil && sev >= s.minSev
}

// emit marshals one record and appends it as a JSONL line.
func (s *Sink) emit(v any) {
	if s == nil || s.err != nil {
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		s.err = err
		return
	}
	if _, err := s.w.Write(b); err != nil {
		s.err = err
		return
	}
	s.err = s.w.WriteByte('\n')
}

// Interval writes one interval record (never filtered or dropped).
func (s *Sink) Interval(r IntervalRecord) {
	if s == nil {
		return
	}
	s.intervals++
	s.emit(r)
}

// Event writes one event record under the retention bound. The severity
// filter is the caller's: Collector.Eventf asks wants first.
func (s *Sink) Event(e EventRecord) {
	if s == nil {
		return
	}
	if s.events >= uint64(s.limit) {
		if s.dropped == nil {
			s.dropped = make(map[string]uint64)
		}
		s.dropped[e.Component+"/"+e.Event]++
		s.droppedN++
		return
	}
	s.events++
	s.emit(e)
}

// summaryRecord closes the trace with totals, so a reader knows whether the
// event trace is complete and what was dropped.
type summaryRecord struct {
	Type      string `json:"type"` // always "summary"
	Intervals uint64 `json:"intervals"`
	Events    uint64 `json:"events"`
	Dropped   uint64 `json:"droppedEvents"`
	// Drops lists per component/event drop counts, sorted by key so the
	// summary is deterministic.
	Drops []dropCount `json:"drops,omitempty"`
}

type dropCount struct {
	Event string `json:"event"`
	Count uint64 `json:"count"`
}

// Close writes the summary record and flushes. It returns the first error
// encountered over the sink's lifetime.
func (s *Sink) Close() error {
	if s == nil {
		return nil
	}
	sum := summaryRecord{
		Type:      "summary",
		Intervals: s.intervals,
		Events:    s.events,
		Dropped:   s.droppedN,
	}
	for k, n := range s.dropped {
		sum.Drops = append(sum.Drops, dropCount{Event: k, Count: n})
	}
	sort.Slice(sum.Drops, func(i, j int) bool { return sum.Drops[i].Event < sum.Drops[j].Event })
	s.emit(sum)
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}
