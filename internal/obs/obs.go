// Package obs is the observability substrate of the reproduction: a
// lock-cheap metrics registry (counters, gauges, histograms), a pluggable
// structured-span tracer with a Chrome trace_event JSONL writer, and an
// opt-in expvar/pprof debug endpoint.
//
// The package is a leaf — it imports only the standard library — so every
// layer (facade, server, scheduler, engines) can depend on it without
// cycles. Hot paths interact with it exclusively through pre-resolved
// series pointers (atomic adds) and nil-guarded tracer hooks, so the
// steady-state overhead with tracing disabled is a handful of atomic
// operations per operation and zero heap allocations.
package obs

import (
	"sync/atomic"
	"time"
)

// Context bundles the two observability channels a component carries
// through execution: a metrics registry and an optional tracer. A nil
// *Context is valid and disables both channels.
type Context struct {
	// Metrics is the registry series are resolved against. Never nil on a
	// Context built by NewContext or Global.
	Metrics *Registry

	// tracer holds the active Tracer (nil pointer means tracing is off).
	// It is an atomic pointer so SetTracer may race with in-flight
	// operations without a data race.
	tracer atomic.Pointer[Tracer]
}

// NewContext returns a context with a fresh registry and no tracer.
func NewContext() *Context {
	return &Context{Metrics: NewRegistry()}
}

// global is the process-wide context: standalone engines, worker pools and
// the scheduler memo default to it.
var global = NewContext()

// Global returns the process-wide observability context.
func Global() *Context { return global }

// SetTracer installs (or, with nil, removes) the context's tracer. Safe to
// call concurrently with running operations.
func (c *Context) SetTracer(t Tracer) {
	if c == nil {
		return
	}
	if t == nil {
		c.tracer.Store(nil)
		return
	}
	c.tracer.Store(&t)
}

// Tracer returns the active tracer, or nil when tracing is off.
func (c *Context) Tracer() Tracer {
	if c == nil {
		return nil
	}
	p := c.tracer.Load()
	if p == nil {
		return nil
	}
	return *p
}

// Tracing reports whether a tracer is installed. Span emitters use it to
// skip event construction entirely when tracing is off.
func (c *Context) Tracing() bool { return c.Tracer() != nil }

// SpanStart returns the wall-clock timestamp (unix ns) a span emitter
// should capture before the traced section, or 0 when tracing is off so
// the disabled path never touches the clock.
func (c *Context) SpanStart() int64 {
	if c.Tracer() == nil {
		return 0
	}
	return time.Now().UnixNano()
}

// Span forwards ev to the installed tracer, if any. Callers on hot paths
// should guard with Tracing() so the event literal is not even built when
// tracing is off.
func (c *Context) Span(ev SpanEvent) {
	if t := c.Tracer(); t != nil {
		t.Span(ev)
	}
}
