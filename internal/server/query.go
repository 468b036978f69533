package server

import (
	"fmt"
	"math/bits"
	"net/http"
	"sync"

	elp2im "repro"
	"repro/internal/wire"
)

// This file is the bitmap-index query layer: POST /v1/query (and its wire
// twin, KindQuery) evaluates a boolean predicate over the bitmap indices
// of a namespace. Indices are ordinary stored bit vectors under the key
// "<namespace>/<index>", so they inherit the store's FNV shard placement,
// kind guards and entry locking unchanged; predicates compile through
// plan.Compile via the shared -evalcache LRU, so they inherit clustering,
// CSE and the fused kernel tier exactly like /v1/eval. Unlike eval, a
// query stores nothing: the match vector is private to the request and is
// rendered as a count, the whole bitvector, or a cursor/limit page of
// set-bit positions.

// Query sentinels. All four are request faults, so each wraps
// errBadRequest — errorClasses classifies them as 400 / bad_request with
// no rows of their own, and TestErrorStatusContract pins every one by
// name.
var (
	// errUnknownNamespace tags a query whose namespace has no stored
	// indices at all.
	errUnknownNamespace = fmt.Errorf("%w: unknown namespace", errBadRequest)
	// errUnknownIndex tags a predicate referencing an index the namespace
	// does not hold.
	errUnknownIndex = fmt.Errorf("%w: unknown index", errBadRequest)
	// errQueryBudget tags a predicate whose command-accurate fallback
	// would not fit the module's subarray rows (too many distinct indices
	// plus temps).
	errQueryBudget = fmt.Errorf("%w: predicate exceeds the row budget", errBadRequest)
	// errBadCursor tags a pagination cursor beyond the namespace universe.
	errBadCursor = fmt.Errorf("%w: bad cursor", errBadRequest)
)

// Pagination bounds for the positions mode.
const (
	// defaultQueryLimit is the page size when the client does not pass
	// one.
	defaultQueryLimit = 4096
	// maxQueryLimit caps the page size a client may request, bounding the
	// response size a single positions page can demand.
	maxQueryLimit = 65536
)

// parseQueryMode maps the JSON mode strings onto the wire mode codes —
// the single mode vocabulary both protocols share (pinned by
// TestQueryModeTable).
func parseQueryMode(s string) (uint8, error) {
	switch s {
	case "", "count":
		return wire.QueryCount, nil
	case "bits":
		return wire.QueryBits, nil
	case "positions":
		return wire.QueryPositions, nil
	default:
		return 0, badRequestf("server: unknown query mode %q", s)
	}
}

// pageLimit normalizes a client-requested page size: zero (or negative,
// via JSON) selects the default, and anything beyond the cap clamps.
func pageLimit(limit int) int {
	if limit <= 0 {
		return defaultQueryLimit
	}
	if limit > maxQueryLimit {
		return maxQueryLimit
	}
	return limit
}

// indexKey is the store key of one bitmap index: the namespace and index
// name joined by "/". Index names are expression identifiers (no slash),
// so the prefix "<namespace>/" delimits a namespace unambiguously.
func indexKey(namespace, index string) string { return namespace + "/" + index }

// matchPool recycles query match vectors. Every query of a namespace
// evaluates into a vector of the namespace's universe width, and
// EvalExprInto overwrites every word, so a pooled vector of the right
// length needs no clearing; one of another length is dropped.
var matchPool sync.Pool

// getMatch returns a match vector of n bits, pooled when one fits.
func getMatch(n int) *elp2im.BitVector {
	if v, ok := matchPool.Get().(*elp2im.BitVector); ok && v.Len() == n {
		return v
	}
	return elp2im.NewBitVector(n)
}

// putMatch recycles a match vector once its response has copied out
// everything it needs.
func putMatch(v *elp2im.BitVector) { matchPool.Put(v) }

// queryCore is the protocol-independent query body shared by the HTTP
// and wire paths, mirroring evalCore's shape: compile the predicate
// through the shared plan cache, pre-check the row budget, admit through
// the namespace's home-shard gate, read-lock the index entries, and
// evaluate the compiled plan on that shard's accelerator, which charges
// it. The match vector is private to the call (nothing is stored) and
// comes from matchPool, so the caller renders it lock-free and hands it
// back with putMatch.
func (s *Server) queryCore(namespace, predicate string) (*elp2im.BitVector, elp2im.Stats, error) {
	if namespace == "" || predicate == "" {
		return nil, elp2im.Stats{}, badRequestf("server: query needs namespace and predicate")
	}
	ce, err := s.cachedExpr(predicate)
	if err != nil {
		return nil, elp2im.Stats{}, err
	}
	// The command-accurate fallback's row demand is checked up front: the
	// facade reports it as an untagged internal error mid-eval, but an
	// over-deep predicate is the client's fault and must answer 400.
	g := s.gateFor(namespace)
	if need, have := g.acc.ExprRowDemand(ce); need > have {
		return nil, elp2im.Stats{}, fmt.Errorf("%w: predicate needs %d rows per subarray, module has %d",
			errQueryBudget, need, have)
	}
	// Queries are read-only but still pass the namespace's home-shard
	// gate: in-flight queries count against its bound and finish before
	// Drain returns, and draining servers refuse new ones with the 503
	// class.
	if err := g.acquire(); err != nil {
		return nil, elp2im.Stats{}, err
	}
	defer g.release()

	names := ce.Vars()
	var refs [8]lockRef
	ls := lockSet{refs: refs[:0]}
	for _, name := range names {
		if ls.add(s.store, indexKey(namespace, name), false) == nil {
			if !s.store.hasPrefix(namespace + "/") {
				return nil, elp2im.Stats{}, fmt.Errorf("%w %q", errUnknownNamespace, namespace)
			}
			return nil, elp2im.Stats{}, fmt.Errorf("%w %q in namespace %q", errUnknownIndex, name, namespace)
		}
	}
	ls.lock()
	vars, universe, err := ls.exprVars(names, indexKey(namespace, ""))
	if err != nil {
		ls.unlock()
		return nil, elp2im.Stats{}, err
	}
	out := getMatch(universe)
	st, err := g.acc.EvalExprInto(ce, vars, out)
	ls.unlock()
	if err != nil {
		putMatch(out)
		return nil, elp2im.Stats{}, err
	}
	return out, st, nil
}

// queryPage scans the match vector for set-bit positions in
// [cursor, Len), up to limit of them, returning the page and the cursor
// resuming after it — zero when the page reached the last match, which is
// unambiguous because a resume cursor is always at least one past a set
// bit.
func queryPage(match *elp2im.BitVector, cursor, limit int) (positions []uint64, next uint64) {
	words := match.Words()
	n := match.Len()
	positions = make([]uint64, 0, limit)
	for w := cursor / 64; w < len(words); w++ {
		x := words[w]
		if w == cursor/64 {
			x &= ^uint64(0) << (cursor % 64)
		}
		for x != 0 {
			pos := w*64 + bits.TrailingZeros64(x)
			if pos >= n {
				return positions, 0
			}
			if len(positions) == limit {
				return positions, positions[limit-1] + 1
			}
			positions = append(positions, uint64(pos))
			x &= x - 1
		}
	}
	return positions, 0
}

// handleQuery answers POST /v1/query: evaluate a boolean predicate over
// a namespace's bitmap indices and render the match per the requested
// mode. The response always carries the universe width and the match
// cardinality; bits mode adds the match vector (base64, the
// /v1/vectors data encoding), positions mode a cursor/limit page of
// set-bit positions.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) error {
	var body QueryRequest
	if err := decodeBody(r, &body); err != nil {
		return err
	}
	mode, err := parseQueryMode(body.Mode)
	if err != nil {
		return err
	}
	if body.Cursor < 0 {
		return fmt.Errorf("%w: cursor %d is negative", errBadCursor, body.Cursor)
	}
	match, st, err := s.queryCore(body.Namespace, body.Predicate)
	if err != nil {
		return err
	}
	defer putMatch(match)
	resp := QueryResponse{
		Stats: statsJSON(st),
		Bits:  match.Len(),
		Count: match.Popcount(),
	}
	switch mode {
	case wire.QueryBits:
		words := match.Words()
		return writePayloadJSON(w, resp, "data", (match.Len()+7)/8, func(dst []byte, off int) {
			putLE(dst, words[off/8:])
		})
	case wire.QueryPositions:
		if body.Cursor > match.Len() {
			return fmt.Errorf("%w: cursor %d beyond universe %d", errBadCursor, body.Cursor, match.Len())
		}
		positions, next := queryPage(match, body.Cursor, pageLimit(body.Limit))
		resp.Positions = make([]int, len(positions))
		for i, p := range positions {
			resp.Positions[i] = int(p)
		}
		resp.NextCursor = int(next)
	}
	return writeJSON(w, resp)
}

// handleQuery is the binary twin of POST /v1/query, sharing queryCore.
func (wb *wireBackend) handleQuery(req *wire.Request, resp *wire.Response) error {
	match, st, err := wb.s.queryCore(req.Name, req.Expr)
	if err != nil {
		return err
	}
	defer putMatch(match)
	resp.AppendStats(wireStats(st))
	resp.AppendU32(uint32(match.Len()))
	resp.AppendU64(uint64(match.Popcount()))
	switch req.Mode {
	case wire.QueryBits:
		resp.AppendWords(match.Words())
	case wire.QueryPositions:
		if req.Cursor > uint64(match.Len()) {
			return fmt.Errorf("%w: cursor %d beyond universe %d", errBadCursor, req.Cursor, match.Len())
		}
		positions, next := queryPage(match, int(req.Cursor), pageLimit(int(req.Limit)))
		resp.AppendU64(next)
		resp.AppendWords(positions)
	}
	return nil
}

// queryStatusSentinels lists the query-specific 400 sentinels — exported
// to the contract tests so a new sentinel cannot land without a status
// row (see TestErrorStatusContract).
var queryStatusSentinels = []error{errUnknownNamespace, errUnknownIndex, errQueryBudget, errBadCursor}
