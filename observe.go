package elp2im

import (
	"io"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Observability surface of the facade. Every Accelerator owns an
// internal/obs context: per-op-kind counters and modeled latency/energy
// histograms, per-subarray-lock contention counters, execution-tier
// counters, and an optional structured-span tracer. The process-wide
// scheduler memo's hit/miss/eviction counters are folded into every
// snapshot under sched.cache.*.
//
// Metric names are documented in DESIGN.md §10; with no tracer installed
// (the default) the span paths never run, never read the clock, and
// allocate nothing.

// Tracer receives structured span events (see obs.SpanEvent); install one
// with Accelerator.SetTracer. Implementations must be safe for concurrent
// use.
type Tracer = obs.Tracer

// SpanEvent is one structured span delivered to a Tracer.
type SpanEvent = obs.SpanEvent

// NopTracer is a Tracer that discards every event without allocating.
type NopTracer = obs.NopTracer

// JSONLTracer streams spans as Chrome trace_event JSON lines; the output
// loads in chrome://tracing / Perfetto.
type JSONLTracer = obs.JSONLTracer

// NewJSONLTracer returns a tracer streaming Chrome trace_event lines to w.
// Close it (after draining all work) to terminate the JSON array.
func NewJSONLTracer(w io.Writer) *JSONLTracer { return obs.NewJSONLTracer(w) }

// MetricsSnapshot is a plain-value copy of an accelerator's (or the
// process-wide) metric series.
type MetricsSnapshot = obs.Snapshot

// HistogramSnapshot is the plain-value copy of one histogram series.
type HistogramSnapshot = obs.HistogramSnapshot

// DebugServer is a running expvar/pprof/metrics HTTP endpoint.
type DebugServer = obs.DebugServer

// opSeries is one op kind's pre-resolved metric series plus its Op and
// Reduce span labels, so the hot path is pure atomic updates with zero
// allocations.
type opSeries struct {
	spanName   string
	reduceSpan string
	count      *obs.Counter
	rowOps     *obs.Counter
	commands   *obs.Counter
	wordlines  *obs.Counter
	latency    *obs.Histogram
	energy     *obs.Histogram
}

// opSeriesSet holds one opSeries per op kind: an accelerator's per-op
// accounting surface.
type opSeriesSet [engine.OpCOPY + 1]opSeries

// init resolves the series in m under the canonical acc.op.* names.
func (set *opSeriesSet) init(m *obs.Registry) {
	for op := engine.OpNOT; op <= engine.OpCOPY; op++ {
		name := op.String()
		set[op] = opSeries{
			spanName:   "Op(" + name + ")",
			reduceSpan: "Reduce(" + name + ")",
			count:      m.Counter("acc.op.count." + name),
			rowOps:     m.Counter("acc.op.rowops." + name),
			commands:   m.Counter("acc.op.commands." + name),
			wordlines:  m.Counter("acc.op.wordlines." + name),
			latency:    m.Histogram("acc.op.latency_ns."+name, obs.LatencyBuckets()),
			energy:     m.Histogram("acc.op.energy_nj."+name, obs.EnergyBuckets()),
		}
	}
}

// record folds one operation component's modeled cost into the per-op
// metric series (called for each instruction an Op or Reduce call
// prices).
func (set *opSeriesSet) record(op engine.Op, st Stats) {
	s := &set[op]
	s.count.Inc()
	s.rowOps.Add(int64(st.RowOps))
	s.commands.Add(int64(st.Commands))
	s.wordlines.Add(int64(st.Wordlines))
	s.latency.Observe(st.LatencyNS)
	s.energy.Observe(st.EnergyNJ)
}

// initObs builds the accelerator's observability context: the per-op
// series, the lock and tier counters, and the engine instrumentation.
func (a *Accelerator) initObs() {
	a.obsc = obs.NewContext()
	m := a.obsc.Metrics
	a.series.init(m)
	a.lockAcquire = m.Counter("acc.lock.acquire")
	a.lockContended = m.Counter("acc.lock.contended")
	a.fastHits = m.Counter("acc.fastpath.hit")
	a.fastFallbacks = m.Counter("acc.fastpath.fallback")
	a.fusionHits = m.Counter("acc.fusion.hit")
	a.fusionFalls = m.Counter("acc.fusion.fallback")
	a.eng.Instrument(a.obsc)
}

// callSpan emits the facade-level span of one completed call — Op,
// Reduce, Eval or Arith — when tracing is on (startNS != 0 is
// SpanStart's signal). Its labels are built once, ahead of any call: an
// op's Op and Reduce names live in its series, an eval's source in its
// plan and a µProgram's name in its CompiledArith.
func (a *Accelerator) callSpan(startNS int64, name, op string, stripes int, st Stats, err error) {
	if startNS == 0 {
		return
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	a.obsc.Span(obs.SpanEvent{
		Name:      name,
		Cat:       "facade",
		StartNS:   startNS,
		DurNS:     time.Now().UnixNano() - startNS,
		Op:        op,
		Design:    a.eng.Name(),
		Stripes:   stripes,
		LatencyNS: st.LatencyNS,
		EnergyNJ:  st.EnergyNJ,
		Commands:  st.Commands,
		Wordlines: st.Wordlines,
		Err:       msg,
	})
}

// stripeSpan emits one stripe execution's span (TID = stripe index) when
// tracing is on.
func (a *Accelerator) stripeSpan(startNS int64, s int, err error) {
	if startNS == 0 {
		return
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	a.obsc.Span(obs.SpanEvent{
		Name:    "stripe",
		Cat:     "stripe",
		TID:     int64(s),
		StartNS: startNS,
		DurNS:   time.Now().UnixNano() - startNS,
		Design:  a.eng.Name(),
		Err:     msg,
	})
}

// SetTracer installs (or, with nil, removes) a tracer receiving structured
// span events for every facade op, stripe execution, and engine
// primitive sequence on this accelerator. Safe to call while
// operations are in flight.
func (a *Accelerator) SetTracer(t Tracer) { a.obsc.SetTracer(t) }

// Observability returns the accelerator's internal observability context,
// so in-module subsystems layered on top of the facade (internal/server)
// can register their own metric series and emit spans into the same
// registry — making them visible on this accelerator's Snapshot and
// ServeDebug endpoint alongside the op and engine series.
func (a *Accelerator) Observability() *obs.Context { return a.obsc }

// withSchedStats folds the process-wide scheduler-memo counters into s.
func withSchedStats(s obs.Snapshot) obs.Snapshot {
	cs := sched.GlobalCacheStats()
	s.Counters["sched.cache.hits"] = cs.Hits
	s.Counters["sched.cache.misses"] = cs.Misses
	s.Counters["sched.cache.evictions"] = cs.Evictions
	s.Gauges["sched.cache.entries"] = cs.Entries
	return s
}

// Snapshot copies the accelerator's metric series — per-op-kind counts,
// modeled latency/energy histograms, command/activation counters, lock
// contention, execution-tier counters — plus the process-wide
// scheduler-memo counters (sched.cache.*), for programmatic scraping.
// Safe to call while operations are in flight.
func (a *Accelerator) Snapshot() MetricsSnapshot {
	return withSchedStats(a.obsc.Metrics.Snapshot())
}

// GlobalSnapshot copies the process-wide metric series: engines not owned
// by an Accelerator (standalone engine use, the case-study runners)
// report here, and the scheduler memo's counters are always
// included. cmd/elpsim's -metrics flag prints this.
func GlobalSnapshot() MetricsSnapshot {
	return withSchedStats(obs.Global().Metrics.Snapshot())
}

// SetGlobalTracer installs (or, with nil, removes) a tracer on the
// process-wide observability context used by standalone engines
// (cmd/elpsim's -trace flag).
func SetGlobalTracer(t Tracer) { obs.Global().SetTracer(t) }

// ServeDebug starts the opt-in observability endpoint on addr (":0" for
// an ephemeral port): /metrics serves this accelerator's Snapshot as text
// (or JSON with ?format=json), /debug/vars serves expvar including the
// snapshot, and /debug/pprof/* serves the standard Go profiler. The
// caller owns the returned server and must Close it.
func (a *Accelerator) ServeDebug(addr string) (*DebugServer, error) {
	return obs.Serve(addr, func() obs.Snapshot { return a.Snapshot() })
}
