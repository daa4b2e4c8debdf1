package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestSeverityRoundTrip(t *testing.T) {
	for _, sev := range []Severity{Debug, Info, Warn} {
		got, err := ParseSeverity(sev.String())
		if err != nil || got != sev {
			t.Errorf("ParseSeverity(%q) = %v, %v", sev.String(), got, err)
		}
	}
	if _, err := ParseSeverity("loud"); err == nil {
		t.Error("ParseSeverity accepted an unknown level")
	}
}

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	if c.SampleInterval() != 0 {
		t.Error("nil collector should report interval 0")
	}
	if c.WantEvent(Warn) {
		t.Error("nil collector should want no events")
	}
	c.Eventf(1, 0, "L1D", "x", Warn, "boom")
	c.RecordInterval(IntervalRecord{})
	c.KeepIntervals()
	if err := c.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
	if em := c.Emitter("L1D", 0); em != nil {
		t.Error("nil collector should hand out nil emitters")
	}
	var e *Emitter
	if e.Enabled(Warn) {
		t.Error("nil emitter should be disabled")
	}
	e.Eventf(1, Warn, "x", "boom") // must not panic
}

func TestSinkSeverityFilter(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf) // default min severity: Info
	c := New(s, 0)
	c.Eventf(1, 0, "L1D", "mshr-full", Debug, "filtered")
	c.Eventf(2, 0, "meta", "resize", Info, "kept")
	c.Eventf(3, 0, "sim", "audit-x", Warn, "kept")
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "mshr-full") {
		t.Error("debug event leaked past an Info filter")
	}
	for _, want := range []string{"resize", "audit-x"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestSinkEventBound(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf)
	s.SetMinSeverity(Debug)
	s.limit = 3
	c := New(s, 0)
	for i := 0; i < 10; i++ {
		c.Eventf(uint64(i), 0, "dram", "row-conflict", Debug, "n=%d", i)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	var events, summaries int
	var sum summaryRecord
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		switch m["type"] {
		case "event":
			events++
		case "summary":
			summaries++
			if err := json.Unmarshal(sc.Bytes(), &sum); err != nil {
				t.Fatal(err)
			}
		}
	}
	if events != 3 {
		t.Errorf("retained %d events, want 3", events)
	}
	if summaries != 1 {
		t.Fatalf("got %d summary records, want 1", summaries)
	}
	if sum.Events != 3 || sum.Dropped != 7 {
		t.Errorf("summary events=%d dropped=%d, want 3/7", sum.Events, sum.Dropped)
	}
	if len(sum.Drops) != 1 || sum.Drops[0].Event != "dram/row-conflict" || sum.Drops[0].Count != 7 {
		t.Errorf("drop breakdown = %+v", sum.Drops)
	}
}

func TestIntervalsBypassFilterAndBound(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf)
	s.limit = 1
	s.SetMinSeverity(Warn)
	c := New(s, 100)
	for i := 0; i < 5; i++ {
		c.RecordInterval(IntervalRecord{Core: 0, Seq: i})
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), `"type":"interval"`); got != 5 {
		t.Errorf("wrote %d interval records, want 5", got)
	}
}

func TestTimelineRendering(t *testing.T) {
	c := New(nil, 1000)
	c.KeepIntervals()
	c.RecordInterval(IntervalRecord{Core: 0, Seq: 0, Instructions: 1000, IPC: 0.5, L2MPKI: 12.5})
	c.RecordInterval(IntervalRecord{Core: 1, Seq: 0, Instructions: 1000, IPC: 0.25})
	var buf bytes.Buffer
	c.Timeline(&buf)
	out := buf.String()
	if !strings.Contains(out, "l2-mpki") || !strings.Contains(out, "0.5000") {
		t.Errorf("timeline output missing expected cells:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 4 { // banner + header + 2 rows
		t.Errorf("timeline has %d lines, want 4:\n%s", lines, out)
	}
}

func TestDeterministicEncoding(t *testing.T) {
	render := func() string {
		var buf bytes.Buffer
		s := NewSink(&buf)
		s.SetMinSeverity(Debug)
		s.limit = 2
		c := New(s, 50)
		c.RecordInterval(IntervalRecord{Core: 0, Seq: 0, IPC: 1.0 / 3.0})
		for i := 0; i < 4; i++ {
			c.Eventf(uint64(i), 0, "L2", "mshr-full", Debug, "stall %d", i)
			c.Eventf(uint64(i), 0, "dram", "row-conflict", Debug, "bank %d", i)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := render(), render(); a != b {
		t.Errorf("two identical runs produced different output:\n%s\n----\n%s", a, b)
	}
}
