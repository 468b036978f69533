package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"

	elp2im "repro"
	"repro/internal/wire"
)

// Serving-layer sentinel errors, mapped onto HTTP and wire statuses by
// errorClasses (503 for admission/drain, 404 for unknown vectors).
var (
	// ErrSaturated is returned when the destination's shard already has
	// Config.MaxQueue requests in flight: the shard cannot keep up with
	// the offered load and the client should back off (503 +
	// Retry-After).
	ErrSaturated = errors.New("server: shard saturated, too many requests in flight")
	// ErrDraining is returned once graceful shutdown has begun and no new
	// work is admitted.
	ErrDraining = errors.New("server: draining, not accepting new requests")
	// ErrUnknownVector wraps the name of an operand that is not in the
	// store.
	ErrUnknownVector = errors.New("server: unknown vector")
	// errBadRequest tags request-validation failures so errorClasses can
	// reserve 400 Bad Request for them; any error that reaches wrap
	// untagged (and is none of the named sentinels) is a server fault and
	// answers 500.
	errBadRequest = errors.New("server: bad request")
)

// badRequest is a client-fault error: its message stands alone, but it
// unwraps to errBadRequest so errorClasses recognizes it through any
// further wrapping.
type badRequest struct{ msg string }

// Error returns the validation failure's message.
func (e *badRequest) Error() string { return e.msg }

// Unwrap exposes the errBadRequest tag to errors.Is.
func (e *badRequest) Unwrap() error { return errBadRequest }

// badRequestf builds a client-fault error from a format string.
func badRequestf(format string, args ...any) error {
	return &badRequest{msg: fmt.Sprintf(format, args...)}
}

// unknownVector wraps a missing vector's name in the 404 sentinel.
func unknownVector(name string) error {
	return fmt.Errorf("%w: %q", ErrUnknownVector, name)
}

// errorClass is how both protocols answer one class of error: the HTTP
// status, the wire status, and the backoff hint of the 503 class (sent
// as Retry-After in whole seconds on HTTP, in milliseconds on the wire).
type errorClass struct {
	sentinel error
	http     int
	wire     uint8
	retryMS  uint32
}

// wireRetryAfterMS is the backoff hint of saturated and draining
// answers: "Retry-After: 1" on HTTP.
const wireRetryAfterMS = 1000

// errorClasses is the serving layer's one error table, matched in order
// with errors.Is: admission and drain answer the 503 class with a
// backoff hint, an expired deadline 504, a cancellation 499 (the nginx
// client-closed-request convention), an unknown vector 404, and tagged
// validation failures, malformed frames, bad expressions and bad arith
// shapes 400. An error no row matches is a server fault: 500, internal.
var errorClasses = []errorClass{
	{ErrSaturated, http.StatusServiceUnavailable, wire.StatusSaturated, wireRetryAfterMS},
	{ErrDraining, http.StatusServiceUnavailable, wire.StatusDraining, wireRetryAfterMS},
	{context.DeadlineExceeded, http.StatusGatewayTimeout, wire.StatusDeadline, 0},
	{context.Canceled, 499, wire.StatusCanceled, 0},
	{ErrUnknownVector, http.StatusNotFound, wire.StatusNotFound, 0},
	{errBadRequest, http.StatusBadRequest, wire.StatusBadRequest, 0},
	{wire.ErrMalformed, http.StatusBadRequest, wire.StatusBadRequest, 0},
	{elp2im.ErrBadExpr, http.StatusBadRequest, wire.StatusBadRequest, 0},
	{elp2im.ErrBadArith, http.StatusBadRequest, wire.StatusBadRequest, 0},
}

// classify returns err's class: the first errorClasses row it matches,
// or the server-fault class.
func classify(err error) errorClass {
	for _, c := range errorClasses {
		if errors.Is(err, c.sentinel) {
			return c
		}
	}
	return errorClass{http: http.StatusInternalServerError, wire: wire.StatusInternal}
}

// statusFor maps err onto its HTTP status.
func statusFor(err error) int { return classify(err).http }

// wireStatusFor maps err onto its wire status and retry-after hint.
func wireStatusFor(err error) (uint8, uint32) {
	c := classify(err)
	return c.wire, c.retryMS
}

// gate is one shard's admission control. Every request that executes on
// the shard — op, reduce, eval, arith and query, on both protocols —
// passes it and then runs synchronously on its own goroutine (the HTTP
// handler's, or the wire connection worker's). The gate queues nothing;
// it bounds and tracks:
//
//   - at most max requests are in flight; past that, acquire fails fast
//     with ErrSaturated (503 + Retry-After) instead of waiting;
//   - once drain begins, acquire fails with ErrDraining, and drain
//     returns when the last in-flight request has released, so no
//     admitted request is dropped.
//
// A sharded server runs one gate per shard, so a saturated hot shard
// answers 503 without stalling the others.
type gate struct {
	acc *elp2im.Accelerator // the shard's accelerator
	max int
	obs *gateSeries

	mu       sync.Mutex
	idle     sync.Cond // broadcast when inFlight reaches zero while draining
	inFlight int
	draining bool
}

// newGate returns an open gate over acc admitting up to max concurrent
// requests.
func newGate(acc *elp2im.Accelerator, max int, obs *gateSeries) *gate {
	g := &gate{acc: acc, max: max, obs: obs}
	g.idle.L = &g.mu
	obs.queueMax.Set(int64(max))
	return g
}

// acquire admits one request; every successful acquire must be paired
// with one release.
func (g *gate) acquire() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return ErrDraining
	}
	if g.inFlight >= g.max {
		g.obs.rejected.Inc()
		return ErrSaturated
	}
	g.inFlight++
	g.obs.inFlight.Set(int64(g.inFlight))
	return nil
}

// release retires one admitted request.
func (g *gate) release() {
	g.mu.Lock()
	g.inFlight--
	g.obs.inFlight.Set(int64(g.inFlight))
	if g.inFlight == 0 && g.draining {
		g.idle.Broadcast()
	}
	g.mu.Unlock()
}

// close stops admission: every later acquire fails with ErrDraining.
func (g *gate) close() {
	g.mu.Lock()
	g.draining = true
	g.obs.draining.Set(1)
	g.mu.Unlock()
}

// drain stops admission and blocks until every in-flight request has
// released. It is idempotent.
func (g *gate) drain() {
	g.close()
	g.mu.Lock()
	for g.inFlight > 0 {
		g.idle.Wait()
	}
	g.mu.Unlock()
}

// isDraining reports whether drain has begun.
func (g *gate) isDraining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}

// expired returns ctx's error, counting it as an expired deadline (504).
func (g *gate) expired(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		g.obs.deadlineExpired.Inc()
		return err
	}
	return nil
}

// opRequest is one decoded op or reduce. The JSON and wire handlers fill
// one in from their codec and hand it to opCore.
type opRequest struct {
	op elp2im.Op
	// reduce selects dst = srcs[0] op srcs[1] op ...; otherwise the
	// request is dst = op(x, y).
	reduce bool
	dst    string
	x, y   string   // op operands; y is unused by the unary not/copy
	srcs   []string // reduce operands
}

// validate checks the request's shape before anything is admitted.
func (r *opRequest) validate() error {
	if r.reduce {
		switch {
		case r.dst == "":
			return badRequestf("server: reduce needs dst")
		case len(r.srcs) < 2:
			return badRequestf("server: reduce needs at least two srcs")
		case r.op != elp2im.OpAnd && r.op != elp2im.OpOr:
			return badRequestf("server: reduce supports and/or, got %s", r.op)
		}
		return nil
	}
	if r.dst == "" || r.x == "" {
		return badRequestf("server: op needs dst and x")
	}
	if !r.op.Unary() && r.y == "" {
		return badRequestf("server: %s needs operand y", r.op)
	}
	return nil
}

// opCore is the protocol-independent op/reduce body shared by the HTTP
// and wire paths. It runs on the caller's goroutine:
//
//  1. admit through the destination's home-shard gate (503 when the
//     shard is saturated or draining) and check the deadline;
//  2. resolve every operand name to its store entry (404 when absent);
//  3. lock the entries in one ascending-name pass — sources shared, the
//     destination exclusive — and check the deadline again, so a request
//     that expired while waiting for a lock answers 504 unexecuted;
//  4. bind the vectors (kind and length mismatches are 400s) and execute
//     Accelerator.Op or Reduce on the shard's accelerator;
//  5. unlock, and publish a destination that did not exist before only
//     when the operation succeeded, so a failed request leaves no
//     spurious all-zero vector behind.
func (s *Server) opCore(ctx context.Context, req *opRequest) (elp2im.Stats, error) {
	if err := req.validate(); err != nil {
		return elp2im.Stats{}, err
	}
	g := s.gateFor(req.dst)
	if err := g.acquire(); err != nil {
		return elp2im.Stats{}, err
	}
	defer g.release()
	if err := g.expired(ctx); err != nil {
		return elp2im.Stats{}, err
	}

	var refs [8]lockRef
	ls := lockSet{refs: refs[:0]}
	if req.reduce {
		for _, name := range req.srcs {
			if ls.add(s.store, name, false) == nil {
				return elp2im.Stats{}, unknownVector(name)
			}
		}
	} else {
		if ls.add(s.store, req.x, false) == nil {
			return elp2im.Stats{}, unknownVector(req.x)
		}
		if !req.op.Unary() && ls.add(s.store, req.y, false) == nil {
			return elp2im.Stats{}, unknownVector(req.y)
		}
	}
	ls.add(s.store, req.dst, true)

	ls.lock()
	if err := g.expired(ctx); err != nil {
		ls.unlock()
		return elp2im.Stats{}, err
	}
	st, newDst, err := execOp(g, req, &ls)
	ls.unlock()
	if err != nil {
		return elp2im.Stats{}, err
	}
	if newDst != nil {
		s.store.adopt(req.dst, newDst)
	}
	return st, nil
}

// execOp binds req's vectors out of the locked entries and executes it
// on the gate's accelerator. It returns the detached destination entry
// it created when dst was not stored, for the caller to publish. The
// caller holds ls's locks.
func execOp(g *gate, req *opRequest, ls *lockSet) (elp2im.Stats, *entry, error) {
	var x, y *elp2im.BitVector
	var srcs []*elp2im.BitVector
	var err error
	if req.reduce {
		srcs = make([]*elp2im.BitVector, len(req.srcs))
		for i, name := range req.srcs {
			if srcs[i], err = ls.bits(name); err != nil {
				return elp2im.Stats{}, nil, err
			}
			if srcs[i].Len() != srcs[0].Len() {
				return elp2im.Stats{}, nil, badRequestf("server: reduce operand %q has %d bits, want %d",
					name, srcs[i].Len(), srcs[0].Len())
			}
		}
		x = srcs[0]
	} else {
		if x, err = ls.bits(req.x); err != nil {
			return elp2im.Stats{}, nil, err
		}
		if !req.op.Unary() {
			if y, err = ls.bits(req.y); err != nil {
				return elp2im.Stats{}, nil, err
			}
			if y.Len() != x.Len() {
				return elp2im.Stats{}, nil, badRequestf("server: operands %q (%d bits) and %q (%d bits) differ in length",
					req.x, x.Len(), req.y, y.Len())
			}
		}
	}

	var dst *elp2im.BitVector
	var newDst *entry
	if e := ls.entry(req.dst); e != nil {
		if e.vert != nil {
			return elp2im.Stats{}, nil, badRequestf("server: destination %q is a vertical vector; bitwise ops need bit vectors", req.dst)
		}
		if e.vec.Len() != x.Len() {
			return elp2im.Stats{}, nil, badRequestf("server: destination %q has %d bits, want %d", req.dst, e.vec.Len(), x.Len())
		}
		dst = e.vec
	} else {
		newDst = &entry{name: req.dst, vec: elp2im.NewBitVector(x.Len())}
		dst = newDst.vec
	}

	var st elp2im.Stats
	if req.reduce {
		st, err = g.acc.Reduce(req.op, dst, srcs...)
	} else {
		st, err = g.acc.Op(req.op, dst, x, y)
	}
	g.obs.executed.Inc()
	if err != nil {
		return elp2im.Stats{}, nil, err
	}
	return st, newDst, nil
}

// lockRef is one store entry of a request's lock set.
type lockRef struct {
	name string
	e    *entry
	excl bool // write-lock (the destination); read-lock otherwise
}

// lockSet is the store entries one request touches, each recorded once
// by name. lock takes them in ascending name order — the one order every
// multi-entry locker in the server uses, so requests cannot deadlock —
// read-locking sources and write-locking the destination, so concurrent
// readers of a shared operand proceed together and only writers exclude
// each other. Entry pointers are resolved before locking, but their
// vectors may only be read (bits, entry) while the locks are held.
type lockSet struct {
	refs []lockRef
}

// add resolves name to its store entry and records it, once per name;
// excl upgrades the name to a write lock. It returns nil, recording
// nothing, when the name is not stored.
func (ls *lockSet) add(st *Store, name string, excl bool) *entry {
	for i := range ls.refs {
		if ls.refs[i].name == name {
			ls.refs[i].excl = ls.refs[i].excl || excl
			return ls.refs[i].e
		}
	}
	e := st.lookup(name)
	if e != nil {
		ls.refs = append(ls.refs, lockRef{name: name, e: e, excl: excl})
	}
	return e
}

// lock acquires every recorded entry in ascending name order.
func (ls *lockSet) lock() {
	slices.SortFunc(ls.refs, func(a, b lockRef) int { return strings.Compare(a.name, b.name) })
	for _, r := range ls.refs {
		if r.excl {
			r.e.mu.Lock()
		} else {
			r.e.mu.RLock()
		}
	}
}

// unlock releases the locks taken by lock, in reverse order.
func (ls *lockSet) unlock() {
	for i := len(ls.refs) - 1; i >= 0; i-- {
		if r := ls.refs[i]; r.excl {
			r.e.mu.Unlock()
		} else {
			r.e.mu.RUnlock()
		}
	}
}

// entry returns the recorded entry for name, nil when absent.
func (ls *lockSet) entry(name string) *entry {
	for _, r := range ls.refs {
		if r.name == name {
			return r.e
		}
	}
	return nil
}

// bits returns the locked entry's plain bit vector, rejecting vertical
// entries: bitwise ops, eval and query compute over flat vectors only
// (vertical ones are /v1/arith operands).
func (ls *lockSet) bits(name string) (*elp2im.BitVector, error) {
	e := ls.entry(name)
	if e.vert != nil {
		return nil, badRequestf("server: %q is a vertical vector; bitwise operands are bit vectors", name)
	}
	return e.vec, nil
}

// exprVars binds an expression's variables to the locked entries' bit
// vectors and checks that they share one length, which it returns. A
// variable's store name is prefix + its name: eval passes "", a query
// its "<namespace>/".
func (ls *lockSet) exprVars(names []string, prefix string) (map[string]*elp2im.BitVector, int, error) {
	vars := make(map[string]*elp2im.BitVector, len(names))
	n := 0
	for _, name := range names {
		v, err := ls.bits(prefix + name)
		if err != nil {
			return nil, 0, err
		}
		if n == 0 {
			n = v.Len()
		} else if v.Len() != n {
			return nil, 0, badRequestf("server: expression vectors differ in length (%q has %d bits, want %d)",
				prefix+name, v.Len(), n)
		}
		vars[name] = v
	}
	return vars, n, nil
}
