// Package server is the networked PIM-as-a-service layer over the elp2im
// facade: a named bit-vector store and an HTTP/JSON API (vector CRUD,
// single ops, reductions, expression evaluation, vertical arithmetic,
// bitmap-index queries, stats), plus the elpwire binary twin of the same
// API (wire.go).
//
// Every request executes synchronously on the goroutine that decoded it:
// an ELP2IM op finishes in hundreds of modeled nanoseconds, so the
// serving layer puts no queue in front of it. Each endpoint has one
// protocol-independent core (opCore, evalCore, arithCore, queryCore,
// readVector) that the JSON and wire codecs share, and errors map onto
// both protocols' statuses through one table (errorClasses). Every
// request runs whole on one shard: the home shard of its destination
// vector (of its namespace, for a query) admits it, and that shard's
// accelerator executes it and charges its modeled cost. Around the cores
// sits the robustness envelope a real service needs: a per-shard
// admission gate bounding in-flight work (503 + Retry-After under
// saturation), per-request deadlines propagated via context,
// panic-isolated handlers, and graceful drain (stop admitting, wait for
// in-flight work, then stop). Every serving-layer metric registers in
// the owning accelerator's (or deployment's) observability context, so
// the existing Snapshot / ServeDebug surface shows the server.* series
// next to acc.* (see observe.go for the name scheme).
package server

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	elp2im "repro"
	"repro/internal/obs"
	"repro/internal/vertical"
	"repro/internal/wire"
)

// Config parameterizes a Server. The zero value of every optional field
// selects the documented default.
type Config struct {
	// Accelerator is the facade the server fronts. Exactly one of
	// Accelerator and Shard is required.
	Accelerator *elp2im.Accelerator
	// Shard, when set instead of Accelerator, fronts a sharded
	// multi-accelerator deployment: every vector name is placed
	// deterministically on a home shard (Store.shardOf), each shard has
	// its own admission gate and metric series, and every request —
	// queries included — executes whole on its destination's (a query's
	// namespace's) home-shard accelerator, which charges its modeled
	// cost. One hot shard saturating answers 503 + Retry-After without
	// stalling the others. MaxQueue applies per shard.
	Shard *elp2im.Shard
	// MaxQueue bounds the requests in flight on one shard; beyond it
	// requests fail fast with 503 + Retry-After. Default 1024.
	MaxQueue int
	// RequestTimeout is the per-request deadline applied when the client
	// does not pass ?timeout_ms. Default 5 s; negative disables the
	// default deadline.
	RequestTimeout time.Duration
	// MaxBodyBytes bounds request bodies. Default 16 MiB (a 64-Mbit
	// vector payload is ~11 MiB of base64).
	MaxBodyBytes int64
	// EvalCacheSize bounds the compiled-program LRU shared by /v1/eval
	// and /v1/arith (entries, not bytes; see evalcache.go). Default 256.
	EvalCacheSize int
}

// withDefaults normalizes cfg.
func (c Config) withDefaults() Config {
	if c.MaxQueue <= 0 {
		c.MaxQueue = 1024
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.EvalCacheSize <= 0 {
		c.EvalCacheSize = defaultEvalCacheSize
	}
	return c
}

// Server is the serving layer: store + per-shard gates + handler mux.
// Create one with New, mount Handler (or HTTPServer) and optionally
// ServeWire, and call Drain on shutdown. A single-module server
// (Config.Accelerator) has one gate; a sharded one (Config.Shard) has one
// per shard, and requests route to their destination vector's home shard.
type Server struct {
	cfg    Config
	accs   []*elp2im.Accelerator // shard i's accelerator
	totals func() elp2im.Stats   // the backend's session totals
	store  *Store
	gates  []*gate
	obs    *serverMetrics
	cache  *evalCache
	mux    *http.ServeMux

	// Wire-listener connection tracking (see wire.go): live connections
	// accepted by ServeWire, so CloseWireConns can end them after Drain.
	wireMu    sync.Mutex
	wireConns map[net.Conn]struct{}
	wireWG    sync.WaitGroup
}

// New returns a server over cfg.Accelerator or cfg.Shard.
func New(cfg Config) (*Server, error) {
	if (cfg.Accelerator == nil) == (cfg.Shard == nil) {
		return nil, errors.New("server: exactly one of Config.Accelerator and Config.Shard is required")
	}
	cfg = cfg.withDefaults()
	// Serving-layer series register in the deployment's context when
	// sharded (its Snapshot merges every shard accelerator's registry), in
	// the accelerator's own otherwise.
	var (
		accs   []*elp2im.Accelerator
		ctx    *obs.Context
		totals func() elp2im.Stats
	)
	if sh := cfg.Shard; sh != nil {
		accs = make([]*elp2im.Accelerator, sh.Shards())
		for i := range accs {
			accs[i] = sh.ShardAccelerator(i)
		}
		ctx, totals = sh.Observability(), sh.Totals
	} else {
		accs = []*elp2im.Accelerator{cfg.Accelerator}
		ctx, totals = cfg.Accelerator.Observability(), cfg.Accelerator.Totals
	}
	sm := newServerMetrics(ctx, len(accs))
	s := &Server{
		cfg:       cfg,
		accs:      accs,
		totals:    totals,
		store:     NewStore(len(accs)),
		obs:       sm,
		cache:     newEvalCache(cfg.EvalCacheSize, sm.evalCacheHits, sm.evalCacheMisses),
		wireConns: make(map[net.Conn]struct{}),
	}
	s.gates = make([]*gate, len(accs))
	for i, acc := range accs {
		s.gates[i] = newGate(acc, cfg.MaxQueue, sm.shards[i])
	}
	s.mux = http.NewServeMux()
	// Vector routes take rest-of-path names ({name...}) so namespaced
	// bitmap indices ("<namespace>/<index>") are addressable over HTTP;
	// the exact-match list route still wins over the wildcard.
	s.mux.HandleFunc("PUT /v1/vectors/{name...}", s.wrap("put_vector", s.handlePutVector))
	s.mux.HandleFunc("GET /v1/vectors/{name...}", s.wrap("get_vector", s.handleGetVector))
	s.mux.HandleFunc("DELETE /v1/vectors/{name...}", s.wrap("delete_vector", s.handleDeleteVector))
	s.mux.HandleFunc("GET /v1/vectors", s.wrap("list_vectors", s.handleListVectors))
	s.mux.HandleFunc("POST /v1/op", s.wrap("op", s.handleOp))
	s.mux.HandleFunc("POST /v1/reduce", s.wrap("reduce", s.handleReduce))
	s.mux.HandleFunc("POST /v1/eval", s.wrap("eval", s.handleEval))
	s.mux.HandleFunc("POST /v1/arith", s.wrap("arith", s.handleArith))
	s.mux.HandleFunc("POST /v1/query", s.wrap("query", s.handleQuery))
	s.mux.HandleFunc("GET /v1/stats", s.wrap("stats", s.handleStats))
	s.mux.HandleFunc("GET /healthz", s.wrap("health", s.handleHealth))
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// HTTP connection timeouts set by HTTPServer. Handlers execute requests
// on their connection's goroutine, so a client that never finishes its
// header, or parks an idle keep-alive connection, must not hold a
// connection open forever.
const (
	httpReadHeaderTimeout = 10 * time.Second
	httpIdleTimeout       = 2 * time.Minute
)

// HTTPServer returns an http.Server serving Handler with the
// connection timeouts every elpd listener uses (header read and idle
// keep-alive bounds).
func (s *Server) HTTPServer() *http.Server {
	return &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: httpReadHeaderTimeout,
		IdleTimeout:       httpIdleTimeout,
	}
}

// Store exposes the vector store (tests and embedding binaries).
func (s *Server) Store() *Store { return s.store }

// Shards returns the number of shards the server routes across (1 for a
// single-module server).
func (s *Server) Shards() int { return len(s.accs) }

// gateFor returns the named vector's home-shard gate — the gate that
// admits, on the shard whose accelerator executes, operations writing it.
func (s *Server) gateFor(name string) *gate { return s.gates[s.store.shardOf(name)] }

// Drain gracefully stops the serving layer: new operations are refused
// with 503 + Retry-After, and Drain returns once every request already
// admitted on any shard has finished. Every shard stops admitting before
// Drain waits on any of them. The listeners are the caller's to stop
// (elpd shuts the http.Server down around this call).
func (s *Server) Drain() {
	for _, g := range s.gates {
		g.close()
	}
	for _, g := range s.gates {
		g.drain()
	}
}

// Totals returns the accumulated modeled cost of every operation the
// server executed: the single accelerator's session totals, or — sharded —
// the sum over every shard accelerator.
func (s *Server) Totals() elp2im.Stats { return s.totals() }

// Stats assembles the /v1/stats payload. The flat Server section
// aggregates across shards (in-flight counts and rejections sum);
// PerShard breaks the same counters out per home shard, alongside each
// shard's modeled busy time — the number a load generator divides by to
// see the modeled hardware's aggregate throughput scale with the shard
// count.
func (s *Server) Stats() StatsPayload {
	var agg ServerStats
	perShard := make([]ShardStats, len(s.gates))
	vecs := s.store.sizeByShard()
	for i, g := range s.gates {
		gs := g.obs
		executed := gs.executed.Value()
		ss := ShardStats{
			Shard:             i,
			QueueDepth:        gs.inFlight.Value(),
			Rejected:          gs.rejected.Value(),
			DeadlineExpired:   gs.deadlineExpired.Value(),
			BatchesFlushed:    executed,
			RequestsCoalesced: executed,
			Vectors:           vecs[i],
			Draining:          g.isDraining(),
			ModeledBusyNS:     s.accs[i].Totals().LatencyNS,
		}
		perShard[i] = ss
		agg.QueueDepth += ss.QueueDepth
		agg.QueueMax += gs.queueMax.Value()
		agg.Rejected += ss.Rejected
		agg.DeadlineExpired += ss.DeadlineExpired
		agg.BatchesFlushed += executed
		agg.RequestsCoalesced += executed
		agg.Draining = agg.Draining || ss.Draining
	}
	for _, acc := range s.accs {
		hits, falls := acc.FusionCounters()
		agg.FusionHits += hits
		agg.FusionFallbacks += falls
	}
	agg.Panics = s.obs.panics.Value()
	agg.WireFlushes = s.obs.wire.flushes.Value()
	if n := s.obs.wire.framesPerFlush.Count(); n > 0 {
		agg.WireFramesPerFlush = s.obs.wire.framesPerFlush.Sum() / float64(n)
	}
	agg.Vectors = s.store.size()
	agg.Shards = len(s.gates)
	if len(s.gates) > 1 {
		agg.PerShard = perShard
	}
	return StatsPayload{
		Design:       s.accs[0].Design(),
		ReservedRows: s.accs[0].ReservedRows(),
		Totals:       statsJSON(s.Totals()),
		Server:       agg,
	}
}

// handlerFunc is the internal handler shape: return a status and an
// error; wrap renders both.
type handlerFunc func(w http.ResponseWriter, r *http.Request) error

// committedWriter wraps the ResponseWriter to record whether the handler
// has already committed a response (status line sent or body bytes
// written), so the error paths in wrap never append a second status/body
// to a partially written reply.
type committedWriter struct {
	http.ResponseWriter
	committed bool
}

// WriteHeader marks the response committed before sending the status.
func (w *committedWriter) WriteHeader(code int) {
	w.committed = true
	w.ResponseWriter.WriteHeader(code)
}

// Write marks the response committed before writing body bytes.
func (w *committedWriter) Write(p []byte) (int, error) {
	w.committed = true
	return w.ResponseWriter.Write(p)
}

// wrap is the route middleware: request/error/latency series, span
// emission, body limiting, and panic isolation (a panicking handler
// answers 500 and increments server.panics instead of killing the
// connection's goroutine silently — unless it already committed a
// response, in which case there is nothing coherent left to write).
func (s *Server) wrap(route string, h handlerFunc) http.HandlerFunc {
	rs := s.obs.route(route)
	return func(w http.ResponseWriter, r *http.Request) {
		rs.requests.Inc()
		start := time.Now()
		spanStart := s.obs.ctx.SpanStart()
		cw := &committedWriter{ResponseWriter: w}
		var handlerErr error
		defer func() {
			if rec := recover(); rec != nil {
				s.obs.panics.Inc()
				err := fmt.Errorf("server: internal error: %v", rec)
				debug.PrintStack()
				s.writeError(cw, rs, err)
				handlerErr = err
			}
			rs.latency.Observe(float64(time.Since(start).Nanoseconds()))
			s.obs.requestSpan(spanStart, route, r.Method, handlerErr)
		}()
		r.Body = http.MaxBytesReader(cw, r.Body, s.cfg.MaxBodyBytes)
		handlerErr = h(cw, r)
		if handlerErr != nil {
			s.writeError(cw, rs, handlerErr)
		}
	}
}

// writeError records the error and renders it as the JSON error body for
// its class's status (errorClasses), attaching the class's backoff hint
// as Retry-After (whole seconds) so well-behaved clients back off. If the
// handler already committed a response, only the error counter moves — a
// late status line or JSON body would corrupt whatever the client is
// reading.
func (s *Server) writeError(w *committedWriter, rs *routeSeries, err error) {
	rs.errors.Inc()
	if w.committed {
		return
	}
	c := classify(err)
	if c.retryMS > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(c.retryMS/1000)))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(c.http)
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: err.Error()})
}

// writeJSON renders a 200 JSON response.
func writeJSON(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json")
	return json.NewEncoder(w).Encode(v)
}

// payloadChunk is the number of payload bytes writePayloadJSON encodes
// per write: a multiple of 3, so every chunk but the last encodes to
// whole base64 groups, and of 512, so every chunk of a vertical payload
// starts on a 64-element transpose group.
const payloadChunk = 24 << 10

// payloadBuf is writePayloadJSON's working set: one chunk of payload
// bytes, and the buffer its base64 is written from, with room for the
// JSON before the first chunk and after the last.
type payloadBuf struct {
	raw [payloadChunk]byte
	out []byte
}

// payloadBufPool recycles writePayloadJSON's working sets.
var payloadBufPool = sync.Pool{New: func() any {
	return &payloadBuf{out: make([]byte, 0, base64.StdEncoding.EncodedLen(payloadChunk)+512)}
}}

// writePayloadJSON renders a 200 JSON response that carries a bit
// payload (query bits, a vector's data, a vertical's elems): v, a struct
// with at least one field that is always marshalled, is marshalled with
// its payload field empty, so omitempty drops it, and the payload is
// spliced in as key's value before v's closing brace. The payload is the
// standard base64 of n > 0 bytes, which fill writes into dst as bytes
// [off, off+len(dst)), one chunk at a time in order, so the answer
// streams to w through one pooled chunk buffer with its Content-Length
// set up front, instead of being built whole.
func writePayloadJSON(w http.ResponseWriter, v any, key string, n int, fill func(dst []byte, off int)) error {
	head, err := json.Marshal(v)
	if err != nil {
		return err
	}
	const tail = "\"}\n"
	pb := payloadBufPool.Get().(*payloadBuf)
	defer payloadBufPool.Put(pb)
	out := append(append(pb.out[:0], head[:len(head)-1]...), `,"`...)
	out = append(append(out, key...), `":"`...)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(out)+base64.StdEncoding.EncodedLen(n)+len(tail)))
	for off := 0; off < n; off += payloadChunk {
		raw := pb.raw[:min(payloadChunk, n-off)]
		fill(raw, off)
		out = base64.StdEncoding.AppendEncode(out, raw)
		if off+len(raw) == n {
			out = append(out, tail...)
		}
		if _, err := w.Write(out); err != nil {
			return err
		}
		out = out[:0]
	}
	return nil
}

// requestContext applies the per-request deadline: ?timeout_ms when the
// client passed one, the configured default otherwise.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	ctx := r.Context()
	if raw := r.URL.Query().Get("timeout_ms"); raw != "" {
		ms, err := strconv.Atoi(raw)
		if err != nil || ms <= 0 {
			return nil, nil, badRequestf("server: bad timeout_ms %q", raw)
		}
		ctx, cancel := context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		return ctx, cancel, nil
	}
	if s.cfg.RequestTimeout > 0 {
		ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
		return ctx, cancel, nil
	}
	return ctx, func() {}, nil
}

// decodeBody parses the JSON request body into v.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequestf("server: bad request body: %v", err)
	}
	return nil
}

// handlePutVector stores a vector under the URL name. A plain bit
// vector is all-zero of the given length when Data is empty, decoded
// contents otherwise; a nonzero ElemWidth instead stores a vertical
// (bit-sliced) vector transposed from the Elems payload.
func (s *Server) handlePutVector(w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("name")
	if name == "" {
		return badRequestf("server: vector name must not be empty")
	}
	var body VectorPayload
	if err := decodeBody(r, &body); err != nil {
		return err
	}
	if body.ElemWidth != 0 || body.Elems != "" {
		if body.Bits != 0 || body.Data != "" {
			return badRequestf("server: a vertical put takes elem_width and elems only")
		}
		raw, err := decodeElemBytes(body.Elems)
		if err != nil {
			return err
		}
		v, err := buildVertical(raw, body.ElemWidth)
		if err != nil {
			return err
		}
		s.store.setVert(name, v)
		return writeJSON(w, VectorInfo{
			Name: name, Bits: v.Len() * body.ElemWidth,
			Elems: v.Len(), ElemWidth: body.ElemWidth,
		})
	}
	if body.Bits > wire.MaxBits {
		return badRequestf("server: bits %d exceed the limit of %d", body.Bits, wire.MaxBits)
	}
	var vec *elp2im.BitVector
	if body.Data == "" {
		if body.Bits <= 0 {
			return badRequestf("server: bits must be positive, got %d", body.Bits)
		}
		vec = elp2im.NewBitVector(body.Bits)
	} else {
		v, err := DecodeBits(body.Data, body.Bits)
		if err != nil {
			return err
		}
		vec = v
	}
	s.store.set(name, vec)
	return writeJSON(w, VectorInfo{Name: name, Bits: vec.Len()})
}

// readVector is the one read core of the vector GETs (JSON GET, wire
// GET and GET_VERT). It resolves name (404 when absent) and read-locks
// the entry. A bit vector's words are snapshotted: copied into a pooled
// buffer under the lock, which is released before bits runs on the copy,
// so neither encoding nor the response write stalls writers (see
// wordBufPool); bits must not keep the slice. A vertical is handed to
// vert while the lock is held, and vert copies out what it answers with
// in that one hold: the wire GET_VERT copies the slices into its frame,
// the JSON GET into a snapshot it transposes once the lock is released.
func (s *Server) readVector(name string, bits func(words []uint64, n int) error, vert func(*elp2im.Vertical) error) error {
	e := s.store.lookup(name)
	if e == nil {
		return unknownVector(name)
	}
	e.mu.RLock()
	if v := e.vert; v != nil {
		defer e.mu.RUnlock()
		return vert(v)
	}
	n := e.vec.Len()
	bp := getWordBuf()
	*bp = append(*bp, e.vec.Words()...)
	e.mu.RUnlock()
	defer putWordBuf(bp)
	return bits(*bp, n)
}

// handleGetVector returns a vector's contents. Plain vectors answer with
// the bit payload, vertical ones with their element values and width.
// Both stream from a snapshot of the stored words taken in one hold of
// the entry's read lock, so the transpose, the base64 encode and every
// write of the body run after the lock is released.
func (s *Server) handleGetVector(w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("name")
	var snap *[]uint64
	var elems, width int
	err := s.readVector(name, func(words []uint64, n int) error {
		pop := popcountWords(words)
		body := VectorPayload{Name: name, Bits: n, Popcount: &pop}
		return writePayloadJSON(w, body, "data", (n+7)/8, func(dst []byte, off int) {
			putLE(dst, words[off/8:])
		})
	}, func(v *elp2im.Vertical) error {
		snap, elems, width = getWordBuf(), v.Len(), v.Width()
		*snap = slices.Grow(*snap, width*vertical.SliceWords(elems))
		for j := 0; j < width; j++ {
			*snap = append(*snap, v.Slice(j).Words()...)
		}
		return nil
	})
	if err != nil || snap == nil {
		return err
	}
	defer putWordBuf(snap)
	sw := vertical.SliceWords(elems)
	sub := make([][]uint64, width)
	body := VectorPayload{Name: name, Bits: elems * width, ElemWidth: width}
	return writePayloadJSON(w, body, "elems", 8*elems, func(dst []byte, off int) {
		for j := range sub {
			sub[j] = (*snap)[j*sw+off/8/64 : (j+1)*sw]
		}
		vertical.UnsliceBytesInto(dst, sub)
	})
}

// handleDeleteVector removes a vector.
func (s *Server) handleDeleteVector(w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("name")
	if !s.store.remove(name) {
		return unknownVector(name)
	}
	w.WriteHeader(http.StatusNoContent)
	return nil
}

// handleListVectors lists every stored vector.
func (s *Server) handleListVectors(w http.ResponseWriter, r *http.Request) error {
	return writeJSON(w, ListResponse{Vectors: s.store.list()})
}

// runOp executes req through opCore under the request's deadline and
// renders the modeled cost.
func (s *Server) runOp(w http.ResponseWriter, r *http.Request, req *opRequest) error {
	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		return err
	}
	defer cancel()
	st, err := s.opCore(ctx, req)
	if err != nil {
		return err
	}
	return writeJSON(w, OpResponse{Stats: statsJSON(st)})
}

// handleOp executes dst = op(x, y).
func (s *Server) handleOp(w http.ResponseWriter, r *http.Request) error {
	var body OpRequest
	if err := decodeBody(r, &body); err != nil {
		return err
	}
	op, err := parseOp(body.Op)
	if err != nil {
		return err
	}
	return s.runOp(w, r, &opRequest{op: op, dst: body.Dst, x: body.X, y: body.Y})
}

// handleReduce executes dst = srcs[0] op srcs[1] op ....
func (s *Server) handleReduce(w http.ResponseWriter, r *http.Request) error {
	var body ReduceRequest
	if err := decodeBody(r, &body); err != nil {
		return err
	}
	op, err := parseOp(body.Op)
	if err != nil {
		return err
	}
	return s.runOp(w, r, &opRequest{op: op, reduce: true, dst: body.Dst, srcs: body.Srcs})
}

// handleEval evaluates a boolean expression over stored vectors and
// stores the result under dst.
func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) error {
	var body EvalRequest
	if err := decodeBody(r, &body); err != nil {
		return err
	}
	if body.Expr == "" || body.Dst == "" {
		return badRequestf("server: eval needs expr and dst")
	}
	st, bits, err := s.evalCore(body.Expr, body.Dst)
	if err != nil {
		return err
	}
	return writeJSON(w, OpResponse{Stats: statsJSON(st), Bits: bits})
}

// evalCore is the protocol-independent eval body shared by the HTTP and
// wire paths: compile the expression once to its fused plan, admit
// through the destination's home-shard gate, read-lock the operands,
// execute the compiled plan on the shard's accelerator, and store the
// result under dst. Eval only reads its operands (the result lands in a
// fresh vector, stored afterwards), so concurrent GETs and other evals
// sharing an operand proceed; only writers are excluded. Compilation
// failures (elp2im.ErrBadExpr) are client errors; both transports report
// them as 400.
func (s *Server) evalCore(exprSrc, dst string) (elp2im.Stats, int, error) {
	ce, err := s.cachedExpr(exprSrc)
	if err != nil {
		return elp2im.Stats{}, 0, err
	}
	g := s.gateFor(dst)
	if err := g.acquire(); err != nil {
		return elp2im.Stats{}, 0, err
	}
	defer g.release()

	names := ce.Vars()
	var refs [8]lockRef
	ls := lockSet{refs: refs[:0]}
	for _, name := range names {
		if ls.add(s.store, name, false) == nil {
			return elp2im.Stats{}, 0, unknownVector(name)
		}
	}
	ls.lock()
	vars, _, err := ls.exprVars(names, "")
	if err != nil {
		ls.unlock()
		return elp2im.Stats{}, 0, err
	}
	out, st, err := g.acc.EvalExpr(ce, vars)
	ls.unlock()
	if err != nil {
		return elp2im.Stats{}, 0, err
	}
	s.store.set(dst, out)
	return st, out.Len(), nil
}

// handleArith executes a vertical arithmetic operation over stored
// vertical vectors and stores the result under dst.
func (s *Server) handleArith(w http.ResponseWriter, r *http.Request) error {
	var body ArithRequest
	if err := decodeBody(r, &body); err != nil {
		return err
	}
	op, err := elp2im.ParseArithOp(body.Op)
	if err != nil {
		return err
	}
	st, width, elems, err := s.arithCore(op, body.Dst, body.X, body.Y, body.Mask)
	if err != nil {
		return err
	}
	return writeJSON(w, OpResponse{Stats: statsJSON(st), Elems: elems, ElemWidth: width})
}

// arithCore is the protocol-independent arith body shared by the HTTP
// and wire paths, mirroring evalCore's shape: admit through the
// destination's home-shard gate, read-lock the operands, fetch the
// compiled µProgram for (op, x's width) through the shared program
// cache, execute it on the shard's accelerator, and store the result
// vertical under dst. The vertical the result replaces goes back to the
// accelerator's slice pool, where the next arith on this shard leases
// its result and temp slices. It returns the result's element width and
// count rather than the vertical: once published, a concurrent arith on
// dst may replace and recycle it. Operand-shape mistakes surface as
// elp2im.ErrBadArith, which both transports report as 400.
func (s *Server) arithCore(op elp2im.ArithOp, dst, x, y, mask string) (st elp2im.Stats, width, elems int, err error) {
	if dst == "" || x == "" {
		return elp2im.Stats{}, 0, 0, badRequestf("server: arith needs dst and x")
	}
	g := s.gateFor(dst)
	if err := g.acquire(); err != nil {
		return elp2im.Stats{}, 0, 0, err
	}
	defer g.release()

	var refs [3]lockRef
	ls := lockSet{refs: refs[:0]}
	for _, name := range [...]string{x, y, mask} {
		if name != "" && ls.add(s.store, name, false) == nil {
			return elp2im.Stats{}, 0, 0, unknownVector(name)
		}
	}
	ls.lock()
	out, st, err := s.execArith(g.acc, &ls, op, x, y, mask)
	ls.unlock()
	if err != nil {
		return elp2im.Stats{}, 0, 0, err
	}
	width, elems = out.Width(), out.Len()
	g.acc.Recycle(s.store.setVert(dst, out))
	return st, width, elems, nil
}

// execArith binds the arith operands out of the locked entries and runs
// the compiled µProgram on acc. The caller holds ls's locks.
func (s *Server) execArith(acc *elp2im.Accelerator, ls *lockSet, op elp2im.ArithOp, x, y, mask string) (*elp2im.Vertical, elp2im.Stats, error) {
	vertOf := func(name string) (*elp2im.Vertical, error) {
		if v := ls.entry(name).vert; v != nil {
			return v, nil
		}
		return nil, badRequestf("server: %q is not a vertical vector (arith operands are stored with elem_width)", name)
	}
	xv, err := vertOf(x)
	if err != nil {
		return nil, elp2im.Stats{}, err
	}
	var yv *elp2im.Vertical
	if y != "" {
		if yv, err = vertOf(y); err != nil {
			return nil, elp2im.Stats{}, err
		}
	}
	var mv *elp2im.BitVector
	if mask != "" {
		me := ls.entry(mask)
		if me.vert != nil {
			return nil, elp2im.Stats{}, badRequestf("server: mask %q must be a plain bit vector", mask)
		}
		mv = me.vec
	}
	ca, err := s.cachedArith(op, xv.Width())
	if err != nil {
		return nil, elp2im.Stats{}, err
	}
	return acc.ArithProg(ca, xv, yv, mv)
}

// handleStats serves the stable stats payload.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) error {
	return writeJSON(w, s.Stats())
}

// healthPayload is the /healthz body.
type healthPayload struct {
	// Status is "ok" or "draining".
	Status string `json:"status"`
}

// handleHealth reports liveness and the drain state (load balancers use
// "draining" to take the instance out of rotation). Any draining shard
// marks the whole instance draining — drain is an instance-wide event.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) error {
	st := "ok"
	for _, g := range s.gates {
		if g.isDraining() {
			st = "draining"
			break
		}
	}
	return writeJSON(w, healthPayload{Status: st})
}

// sortedRouteNames returns the route metric keys, sorted (documentation
// and test helper).
func sortedRouteNames() []string {
	names := append([]string(nil), routeNames...)
	sort.Strings(names)
	return names
}
