package server

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// Metric series of the serving layer, registered in the owning
// accelerator's (or, sharded, the Shard deployment's) observability
// context so they appear on the same Snapshot / ServeDebug surface as the
// acc.*, engine.* and sched.cache.* series:
//
//	server.http.requests.<route>    counter   requests entering the route
//	server.http.errors.<route>      counter   non-2xx responses
//	server.http.latency_ns.<route>  histogram wall-clock handler latency
//	server.panics                   counter   recovered handler panics
//	server.evalcache.hit            counter   compiled-program cache hits
//	server.evalcache.miss           counter   compiled-program cache misses
//
// plus, per shard gate, the admission series, prefixed with the shard's
// index so a hot shard is visible on its own. A single-module server has
// one gate, shard 0:
//
//	server.shard.<i>.queue.depth      gauge     shard i's requests in flight
//	server.shard.<i>.queue.max        gauge     shard i's in-flight bound
//	server.shard.<i>.queue.rejected   counter   shard i's admission 503s
//	server.shard.<i>.deadline.expired counter   shard i's 504s
//	server.shard.<i>.ops.executed     counter   shard i's executed op/reduce requests
//	server.shard.<i>.draining         gauge     1 while shard i drains
//
// Spans (with a tracer installed): every HTTP request emits one span
// named "http.<route>" in category "server"; the facade's own op,
// reduce and stripe spans nest inside it in time.

// routeNames are the metric keys of the HTTP routes, in registration
// order.
var routeNames = []string{
	"put_vector", "get_vector", "delete_vector", "list_vectors",
	"op", "reduce", "eval", "arith", "query", "stats", "health",
}

// routeSeries is one route's pre-resolved metric series.
type routeSeries struct {
	requests *obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
}

// serverMetrics bundles the serving layer's pre-resolved series: the
// HTTP-route series and panic counter shared by every handler, plus one
// gateSeries per shard gate (one for a single-module server), plus the
// wire listener's series.
type serverMetrics struct {
	ctx    *obs.Context
	routes map[string]*routeSeries
	panics *obs.Counter
	shards []*gateSeries
	wire   wireSeries

	// Compiled-program cache series (see evalcache.go):
	//
	//	server.evalcache.hit   counter  compile skipped, cached program reused
	//	server.evalcache.miss  counter  compile executed and cached
	evalCacheHits   *obs.Counter
	evalCacheMisses *obs.Counter
}

// wireSeries is the elpwire listener's metric slice:
//
//	server.wire.connections       gauge      live wire connections
//	server.wire.requests          counter    wire requests dispatched
//	server.wire.errors            counter    wire requests answering non-OK
//	server.wire.flushes           counter    response write-path flushes (one writev each)
//	server.wire.frames_per_flush  histogram  response frames coalesced per flush
type wireSeries struct {
	connections    *obs.Gauge
	requests       *obs.Counter
	errors         *obs.Counter
	flushes        *obs.Counter
	framesPerFlush *obs.Histogram
}

// onFlush observes one response flush carrying n frames. It is handed to
// wire.ServerConfig.OnFlush, so it runs on every connection's frame
// writer goroutine: counter and histogram writes only.
func (w *wireSeries) onFlush(n int) {
	w.flushes.Inc()
	w.framesPerFlush.Observe(float64(n))
}

// gateSeries is one shard gate's admission series, registered under
// server.shard.<i>.* so saturation and drain are observable shard by
// shard.
type gateSeries struct {
	inFlight        *obs.Gauge
	queueMax        *obs.Gauge
	rejected        *obs.Counter
	deadlineExpired *obs.Counter
	executed        *obs.Counter
	draining        *obs.Gauge
}

// httpLatencyBuckets covers wall-clock handler latency: 16 buckets from
// 10 µs to ~9.3 s.
func httpLatencyBuckets() []float64 { return obs.ExpBuckets(10_000, 2.5, 16) }

// framesPerFlushBuckets covers wire frames per flush: 1, 2, 4, ... 1024.
func framesPerFlushBuckets() []float64 { return obs.ExpBuckets(1, 2, 11) }

// newServerMetrics resolves every serving-layer series in ctx, with one
// gateSeries per shard.
func newServerMetrics(ctx *obs.Context, shards int) *serverMetrics {
	m := ctx.Metrics
	sm := &serverMetrics{
		ctx:    ctx,
		routes: make(map[string]*routeSeries, len(routeNames)),
		panics: m.Counter("server.panics"),
		shards: make([]*gateSeries, shards),
		wire: wireSeries{
			connections:    m.Gauge("server.wire.connections"),
			requests:       m.Counter("server.wire.requests"),
			errors:         m.Counter("server.wire.errors"),
			flushes:        m.Counter("server.wire.flushes"),
			framesPerFlush: m.Histogram("server.wire.frames_per_flush", framesPerFlushBuckets()),
		},
		evalCacheHits:   m.Counter("server.evalcache.hit"),
		evalCacheMisses: m.Counter("server.evalcache.miss"),
	}
	for i := range sm.shards {
		sm.shards[i] = newGateSeries(ctx.Metrics, fmt.Sprintf("server.shard.%d.", i))
	}
	for _, name := range routeNames {
		sm.routes[name] = &routeSeries{
			requests: m.Counter("server.http.requests." + name),
			errors:   m.Counter("server.http.errors." + name),
			latency:  m.Histogram("server.http.latency_ns."+name, httpLatencyBuckets()),
		}
	}
	return sm
}

// newGateSeries resolves one gate's series under the given name prefix
// ("server.shard.<i>.").
func newGateSeries(m *obs.Registry, prefix string) *gateSeries {
	return &gateSeries{
		inFlight:        m.Gauge(prefix + "queue.depth"),
		queueMax:        m.Gauge(prefix + "queue.max"),
		rejected:        m.Counter(prefix + "queue.rejected"),
		deadlineExpired: m.Counter(prefix + "deadline.expired"),
		executed:        m.Counter(prefix + "ops.executed"),
		draining:        m.Gauge(prefix + "draining"),
	}
}

// route returns the named route's series (panics on an unregistered name,
// which would be a programming error caught by any test touching the
// route).
func (sm *serverMetrics) route(name string) *routeSeries {
	rs, ok := sm.routes[name]
	if !ok {
		panic("server: unregistered route " + name)
	}
	return rs
}

// requestSpan emits the HTTP-request span when tracing is on.
func (sm *serverMetrics) requestSpan(startNS int64, route, op string, err error) {
	if startNS == 0 {
		return
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	sm.ctx.Span(obs.SpanEvent{
		Name:    "http." + route,
		Cat:     "server",
		StartNS: startNS,
		DurNS:   time.Now().UnixNano() - startNS,
		Op:      op,
		Err:     msg,
	})
}
