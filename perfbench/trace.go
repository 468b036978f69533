package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval around a call the benchmark makes into a
// layer. Spans of one request share req; a child names its parent by id.
type span struct {
	name   string
	id     int64
	parent int64 // 0 for a root span
	req    int64
	start  int64 // ns since the tracer's epoch
	end    int64
}

// layer is the module a span measures: the part of its name before the
// first dot ("wire.encode" belongs to "wire").
func (s span) layer() string {
	if i := strings.IndexByte(s.name, '.'); i > 0 {
		return s.name[:i]
	}
	return s.name
}

// tracer keeps spans in memory until the benchmark writes them out.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t                   *tracer
	name                string
	id, parent, req, at int64
}

// begin starts a span of request req under parent (0 for a root).
func (t *tracer) begin(name string, req, parent int64) openSpan {
	return openSpan{t: t, name: name, id: t.next.Add(1), parent: parent, req: req, at: int64(time.Since(t.epoch))}
}

// end records the span and returns its duration in ns.
func (o openSpan) end() int64 {
	s := span{name: o.name, id: o.id, parent: o.parent, req: o.req, start: o.at, end: int64(time.Since(o.t.epoch))}
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, s)
	o.t.mu.Unlock()
	return s.end - s.start
}

// do runs fn inside a span and returns the span's duration in ns.
func (t *tracer) do(name string, req, parent int64, fn func()) int64 {
	o := t.begin(name, req, parent)
	fn()
	return o.end()
}

// reqID packs a slot and its sequence number into one request id.
func reqID(slot, seq int) int64 { return int64(slot)<<32 | int64(seq) }

// layerSummary aggregates the spans of one name.
type layerSummary struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Calls  int64  `json:"calls"`
	TotalN int64  `json:"total_ns"`
	SelfN  int64  `json:"self_ns"`
}

// meanNS is the mean duration per call.
func (l layerSummary) meanNS() float64 {
	if l.Calls == 0 {
		return 0
	}
	return float64(l.TotalN) / float64(l.Calls)
}

// summarize returns per-name call counts, total time and self time. A
// span's self time is its duration minus the part of it its children
// cover; children of one parent run one after another, so their
// intervals, clipped to the parent's, do not overlap.
func summarize(spans []span) map[string]*layerSummary {
	covered := make(map[int64]int64, len(spans))
	bounds := make(map[int64][2]int64, len(spans))
	for _, s := range spans {
		bounds[s.id] = [2]int64{s.start, s.end}
	}
	for _, s := range spans {
		if s.parent == 0 {
			continue
		}
		p, ok := bounds[s.parent]
		if !ok {
			continue
		}
		lo, hi := max(s.start, p[0]), min(s.end, p[1])
		if hi > lo {
			covered[s.parent] += hi - lo
		}
	}
	out := make(map[string]*layerSummary)
	for _, s := range spans {
		l := out[s.name]
		if l == nil {
			l = &layerSummary{Name: s.name, Layer: s.layer()}
			out[s.name] = l
		}
		d := s.end - s.start
		l.Calls++
		l.TotalN += d
		l.SelfN += d - covered[s.id]
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string     `json:"name"`
	Cat  string     `json:"cat"`
	Ph   string     `json:"ph"`
	TS   float64    `json:"ts"`
	Dur  float64    `json:"dur"`
	PID  int        `json:"pid"`
	TID  int64      `json:"tid"`
	Args chromeArgs `json:"args"`
}

// chromeArgs carries the span identity that the Chrome format has no
// field for, plus exact nanosecond bounds.
type chromeArgs struct {
	ID      int64 `json:"id"`
	Parent  int64 `json:"parent"`
	Req     int64 `json:"req"`
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// chromeTrace is the JSON object form of a Chrome trace file.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// writeTrace writes the spans as a Chrome trace (lane = request slot) and
// their per-name summary next to it.
func writeTrace(dir, workload string, seed int64, spans []span, sum map[string]*layerSummary) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	tracePath, summaryPath := base+".trace.json", base+".layers.json"
	ct := chromeTrace{TraceEvents: make([]chromeEvent, len(spans)), DisplayTimeUnit: "ns"}
	for i, s := range spans {
		ct.TraceEvents[i] = chromeEvent{
			Name: s.name, Cat: s.layer(), Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: s.req >> 32,
			Args: chromeArgs{ID: s.id, Parent: s.parent, Req: s.req, StartNS: s.start, EndNS: s.end},
		}
	}
	if err := writeJSONFile(tracePath, ct); err != nil {
		return "", err
	}
	rows := make([]*layerSummary, 0, len(sum))
	for _, l := range sum {
		rows = append(rows, l)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	if err := writeJSONFile(summaryPath, rows); err != nil {
		return "", err
	}
	return tracePath, nil
}

// writeJSONFile writes v as JSON to path.
func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(v); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
