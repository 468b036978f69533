package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}

	var g Gauge
	g.Set(7)
	if got := g.Add(-3); got != 4 {
		t.Errorf("gauge add returned %d, want 4", got)
	}
	if got := g.Value(); got != 4 {
		t.Errorf("gauge value = %d, want 4", got)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram([]float64{10, 100})
	// Bucket layout: (-inf,10], (10,100], (100,+inf). The upper bound is
	// inclusive, matching HistogramSnapshot's documented contract.
	h.Observe(10)  // first bucket, on the edge
	h.Observe(5)   // first bucket
	h.Observe(11)  // second bucket
	h.Observe(100) // second bucket, on the edge
	h.Observe(101) // overflow
	s := h.snapshot()
	want := []int64{2, 2, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 {
		t.Errorf("count = %d, want 5", s.Count)
	}
	if s.Sum != 10+5+11+100+101 {
		t.Errorf("sum = %g, want 227", s.Sum)
	}
	if got := s.Mean(); got != 227.0/5 {
		t.Errorf("mean = %g, want %g", got, 227.0/5)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	for i := 0; i < 50; i++ {
		h.Observe(0.5) // first bucket
	}
	for i := 0; i < 49; i++ {
		h.Observe(3) // third bucket (2,4]
	}
	h.Observe(100) // overflow
	s := h.snapshot()
	if got := s.Quantile(0.5); got != 1 {
		t.Errorf("p50 = %g, want 1", got)
	}
	if got := s.Quantile(0.99); got != 4 {
		t.Errorf("p99 = %g, want 4", got)
	}
	// The overflow bucket reports the last finite bound.
	if got := s.Quantile(1); got != 8 {
		t.Errorf("p100 = %g, want 8", got)
	}
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %g, want 0", got)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(50, 2.5, 4)
	want := []float64{50, 125, 312.5, 781.25}
	if len(b) != len(want) {
		t.Fatalf("len = %d, want %d", len(b), len(want))
	}
	for i := range want {
		if b[i] != want[i] {
			t.Errorf("bucket %d = %g, want %g", i, b[i], want[i])
		}
	}
}

func TestRegistrySharedSeries(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x")
	c2 := r.Counter("x")
	if c1 != c2 {
		t.Error("same name resolved to distinct counters")
	}
	c1.Add(3)
	h := r.Histogram("lat", LatencyBuckets())
	h.Observe(60)
	r.Gauge("g").Set(9)

	s := r.Snapshot()
	if s.Counter("x") != 3 || s.Gauge("g") != 9 {
		t.Errorf("snapshot: counter=%d gauge=%d", s.Counter("x"), s.Gauge("g"))
	}
	if s.Histograms["lat"].Count != 1 {
		t.Errorf("histogram count = %d, want 1", s.Histograms["lat"].Count)
	}
	if s.Counter("absent") != 0 || s.Gauge("absent") != 0 {
		t.Error("absent series must read as 0")
	}
	if !strings.Contains(s.Text(), "lat") {
		t.Error("Text() missing histogram series")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("n").Inc()
				r.Histogram("h", []float64{1, 10}).Observe(float64(j % 20))
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counter("n") != 8000 {
		t.Errorf("counter = %d, want 8000", s.Counter("n"))
	}
	if s.Histograms["h"].Count != 8000 {
		t.Errorf("histogram count = %d, want 8000", s.Histograms["h"].Count)
	}
}

// chromeEvent is the subset of the trace_event schema the tests decode.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

func TestJSONLTracerIsValidChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	tr.Span(SpanEvent{Name: "a", Cat: "facade", StartNS: 1000, DurNS: 2000, Op: "AND", Stripes: 3, LatencyNS: 1.5, Err: `bad "quote"`})
	tr.Span(SpanEvent{Name: "b", Cat: "engine", StartNS: 4000, DurNS: 500, TID: 7})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.Spans() != 2 {
		t.Errorf("spans = %d, want 2", tr.Spans())
	}

	// The whole file must parse as a JSON array (chrome://tracing's format;
	// the stream writer leaves a trailing comma that the format allows but
	// encoding/json does not — normalize it before decoding).
	text := strings.Replace(buf.String(), ",\n]", "\n]", 1)
	var events []chromeEvent
	if err := json.Unmarshal([]byte(text), &events); err != nil {
		t.Fatalf("trace does not parse as JSON: %v\n%s", err, buf.String())
	}
	if len(events) != 2 {
		t.Fatalf("decoded %d events, want 2", len(events))
	}
	e := events[0]
	if e.Ph != "X" || e.Name != "a" || e.Cat != "facade" {
		t.Errorf("event 0 = %+v", e)
	}
	if e.TS != 0 { // rebased to the first event
		t.Errorf("ts = %g, want 0", e.TS)
	}
	if e.Dur != 2 { // 2000 ns = 2 µs
		t.Errorf("dur = %g, want 2", e.Dur)
	}
	if e.Args["op"] != "AND" || e.Args["err"] != `bad "quote"` {
		t.Errorf("args = %v", e.Args)
	}
	if events[1].TS != 3 || events[1].TID != 7 {
		t.Errorf("event 1 = %+v", events[1])
	}
}

func TestJSONLTracerEmptyCloseIsValid(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var events []chromeEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("empty trace does not parse: %v\n%s", err, buf.String())
	}
	if len(events) != 0 {
		t.Errorf("decoded %d events, want 0", len(events))
	}
}

func TestWriteChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	spans := []SpanEvent{
		{Name: "p1", Cat: "waveform", StartNS: 500, DurNS: 100},
		{Name: "p2", Cat: "waveform", StartNS: 600, DurNS: 300},
	}
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var events []chromeEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace does not parse: %v\n%s", err, buf.String())
	}
	if len(events) != 2 || events[0].TS != 0 || events[1].TS != 0.1 {
		t.Errorf("events = %+v", events)
	}
}

func TestContextTracerLifecycle(t *testing.T) {
	c := NewContext()
	if c.Tracing() {
		t.Error("fresh context must not be tracing")
	}
	if got := c.SpanStart(); got != 0 {
		t.Errorf("SpanStart with no tracer = %d, want 0", got)
	}
	c.Span(SpanEvent{Name: "dropped"}) // must not panic

	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	c.SetTracer(tr)
	if !c.Tracing() {
		t.Error("tracer installed but Tracing() is false")
	}
	if got := c.SpanStart(); got == 0 {
		t.Error("SpanStart with tracer = 0")
	}
	c.Span(SpanEvent{Name: "kept", StartNS: 1, DurNS: 1})
	c.SetTracer(nil)
	if c.Tracing() {
		t.Error("tracer removed but Tracing() is true")
	}
	c.Span(SpanEvent{Name: "dropped"})
	if tr.Spans() != 1 {
		t.Errorf("tracer saw %d spans, want 1", tr.Spans())
	}

	var nilCtx *Context
	if nilCtx.Tracing() || nilCtx.SpanStart() != 0 {
		t.Error("nil context must be inert")
	}
	nilCtx.SetTracer(tr) // must not panic
}

func TestDisabledPathAllocatesNothing(t *testing.T) {
	c := NewContext()
	cnt := c.Metrics.Counter("hot")
	h := c.Metrics.Histogram("hist", LatencyBuckets())
	allocs := testing.AllocsPerRun(1000, func() {
		if start := c.SpanStart(); start != 0 {
			c.Span(SpanEvent{Name: "never"})
		}
		cnt.Inc()
		h.Observe(75)
	})
	if allocs != 0 {
		t.Errorf("disabled observability path allocates %.1f bytes-events/op, want 0", allocs)
	}

	var nop NopTracer
	allocs = testing.AllocsPerRun(1000, func() {
		nop.Span(SpanEvent{Name: "x", Op: "AND", StartNS: 1, DurNS: 2})
	})
	if allocs != 0 {
		t.Errorf("NopTracer.Span allocates %.1f, want 0", allocs)
	}
}
