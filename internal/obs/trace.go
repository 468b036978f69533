package obs

import (
	"io"
	"strconv"
	"sync"
)

// SpanEvent is one structured span: a named, categorized interval with
// optional modeled-cost annotations. All fields are scalars so emitting an
// event through a Tracer never allocates on the caller's side.
type SpanEvent struct {
	// Name is the span label ("Op(AND)", "stripe", design.op, ...).
	Name string
	// Cat is the layer that emitted the span: "facade", "shard",
	// "stripe", "engine", "server", or "waveform".
	Cat string
	// TID is the logical lane the span ran on (the stripe index for
	// stripe spans, 0 elsewhere).
	TID int64
	// StartNS is the span's wall-clock start in unix nanoseconds (or any
	// consistent nanosecond timebase; exporters rebase to the first event).
	StartNS int64
	// DurNS is the span's wall-clock duration in nanoseconds.
	DurNS int64
	// Op and Design annotate the modeled operation, when applicable.
	Op     string
	Design string
	// Stripes is the number of row stripes the operation covered.
	Stripes int
	// LatencyNS and EnergyNJ are the operation's modeled cost (not wall
	// time), when applicable.
	LatencyNS float64
	EnergyNJ  float64
	// Commands and Wordlines are the modeled command/activation counts.
	Commands  int
	Wordlines int
	// Err carries the error message of a failed span ("" on success).
	Err string
}

// Tracer receives structured span events. Implementations must be safe
// for concurrent use; Span is called from worker goroutines.
type Tracer interface {
	// Span records one completed span.
	Span(ev SpanEvent)
}

// NopTracer is a Tracer that discards every event. Emitting through it
// performs no work and allocates nothing.
type NopTracer struct{}

// Span implements Tracer by doing nothing.
func (NopTracer) Span(SpanEvent) {}

// JSONLTracer writes one Chrome trace_event JSON object per line — a
// JSON-lines stream that is simultaneously a valid Chrome tracing file:
// the first line opens a JSON array, every event line ends with a comma,
// and Close writes the closing bracket (chrome://tracing and Perfetto
// accept the file with or without it). Timestamps are rebased to the
// first event.
type JSONLTracer struct {
	mu    sync.Mutex
	w     io.Writer
	base  int64
	head  bool
	spans int64
	err   error
}

// NewJSONLTracer returns a tracer streaming trace_event lines to w.
func NewJSONLTracer(w io.Writer) *JSONLTracer {
	return &JSONLTracer{w: w}
}

// Span implements Tracer.
func (t *JSONLTracer) Span(ev SpanEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if !t.head {
		t.head = true
		t.base = ev.StartNS
		if _, err := io.WriteString(t.w, "[\n"); err != nil {
			t.err = err
			return
		}
	}
	buf := make([]byte, 0, 256)
	buf = appendTraceEvent(buf, ev, t.base)
	buf = append(buf, ',', '\n')
	if _, err := t.w.Write(buf); err != nil {
		t.err = err
		return
	}
	t.spans++
}

// Spans returns the number of events successfully written.
func (t *JSONLTracer) Spans() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// Close terminates the JSON array and returns the first write error
// encountered, if any.
func (t *JSONLTracer) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	if !t.head {
		if _, err := io.WriteString(t.w, "[\n"); err != nil {
			return err
		}
	}
	_, err := io.WriteString(t.w, "]\n")
	return err
}

// WriteChromeTrace writes a complete Chrome trace_event JSON array for a
// span slice, rebasing timestamps to the earliest span. It is the one-shot
// exporter behind cmd/waveform's -chrome flag.
func WriteChromeTrace(w io.Writer, spans []SpanEvent) error {
	base := int64(0)
	for i, ev := range spans {
		if i == 0 || ev.StartNS < base {
			base = ev.StartNS
		}
	}
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	buf := make([]byte, 0, 256)
	for i, ev := range spans {
		buf = appendTraceEvent(buf[:0], ev, base)
		if i < len(spans)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}

// appendTraceEvent renders ev as one Chrome trace_event "X" (complete
// duration) object. ts/dur are microseconds per the trace format.
func appendTraceEvent(buf []byte, ev SpanEvent, baseNS int64) []byte {
	buf = append(buf, `{"name":`...)
	buf = appendJSONString(buf, ev.Name)
	buf = append(buf, `,"cat":`...)
	buf = appendJSONString(buf, ev.Cat)
	buf = append(buf, `,"ph":"X","pid":1,"tid":`...)
	buf = strconv.AppendInt(buf, ev.TID, 10)
	buf = append(buf, `,"ts":`...)
	buf = strconv.AppendFloat(buf, float64(ev.StartNS-baseNS)/1e3, 'f', 3, 64)
	buf = append(buf, `,"dur":`...)
	buf = strconv.AppendFloat(buf, float64(ev.DurNS)/1e3, 'f', 3, 64)
	buf = append(buf, `,"args":{`...)
	first := true
	arg := func(key string) {
		if !first {
			buf = append(buf, ',')
		}
		first = false
		buf = append(buf, '"')
		buf = append(buf, key...)
		buf = append(buf, `":`...)
	}
	if ev.Op != "" {
		arg("op")
		buf = appendJSONString(buf, ev.Op)
	}
	if ev.Design != "" {
		arg("design")
		buf = appendJSONString(buf, ev.Design)
	}
	if ev.Stripes != 0 {
		arg("stripes")
		buf = strconv.AppendInt(buf, int64(ev.Stripes), 10)
	}
	if ev.LatencyNS != 0 {
		arg("model_latency_ns")
		buf = strconv.AppendFloat(buf, ev.LatencyNS, 'f', -1, 64)
	}
	if ev.EnergyNJ != 0 {
		arg("model_energy_nj")
		buf = strconv.AppendFloat(buf, ev.EnergyNJ, 'f', -1, 64)
	}
	if ev.Commands != 0 {
		arg("commands")
		buf = strconv.AppendInt(buf, int64(ev.Commands), 10)
	}
	if ev.Wordlines != 0 {
		arg("wordlines")
		buf = strconv.AppendInt(buf, int64(ev.Wordlines), 10)
	}
	if ev.Err != "" {
		arg("err")
		buf = appendJSONString(buf, ev.Err)
	}
	buf = append(buf, `}}`...)
	return buf
}

// appendJSONString appends s as a quoted JSON string, escaping the
// characters that can occur in op names and error messages.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			buf = append(buf, '\\', c)
		case c == '\n':
			buf = append(buf, '\\', 'n')
		case c == '\t':
			buf = append(buf, '\\', 't')
		case c < 0x20:
			buf = append(buf, `\u00`...)
			const hex = "0123456789abcdef"
			buf = append(buf, hex[c>>4], hex[c&0xf])
		default:
			buf = append(buf, c)
		}
	}
	return append(buf, '"')
}
