package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"math/rand/v2"
	"net/http"
	"sort"
	"strings"
	"sync"

	elp2im "repro"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/server"
)

// query_json: bitmap-index queries (the paper's Fig 13 application) on
// the HTTP/JSON endpoint of a 4-shard server, 2 connections with one
// request outstanding on each. Each connection queries its own namespace
// of 8 weekly-activity bitmaps and 1 gender bitmap over 4 Mi rows. Half
// the queries are Fig 13's Q1/Q2 over the last w weeks; the other half
// are ad-hoc predicates drawn Zipfian from a set four times the size of
// the server's 256-entry compiled-program cache, so the tail misses it.
const (
	queryRows   = 4 << 20
	queryWords  = queryRows / 64
	queryAdhoc  = 1024
	queryStream = 2100 // whole mix blocks of 28 and of 20
	queryLimit  = 1024 // positions page size
)

// queryIndex names a namespace's bitmaps: eight weeks, then gender.
var queryIndex = [...]string{"w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7", "g"}

// qnode is a predicate tree the oracle evaluates on the host.
type qnode struct {
	op   byte // 'v' (an index), '~', '&', '|' or '^'
	leaf int
	l, r *qnode
}

func (n *qnode) String() string {
	switch n.op {
	case 'v':
		return queryIndex[n.leaf]
	case '~':
		return "~" + n.l.String()
	default:
		return "(" + n.l.String() + " " + string(n.op) + " " + n.r.String() + ")"
	}
}

// eval computes the predicate over a namespace's bitmaps.
func (n *qnode) eval(idx []*elp2im.BitVector) []uint64 {
	if n.op == 'v' {
		return append([]uint64(nil), idx[n.leaf].Words()...)
	}
	out := n.l.eval(idx)
	if n.op == '~' {
		for i := range out {
			out[i] = ^out[i]
		}
		return out
	}
	r := n.r.eval(idx)
	for i := range out {
		switch n.op {
		case '&':
			out[i] &= r[i]
		case '|':
			out[i] |= r[i]
		case '^':
			out[i] ^= r[i]
		}
	}
	return out
}

// queryReq is one generated query: a predicate index, a result mode and,
// for positions pages, the cursor.
type queryReq struct {
	pred   int
	mode   string // "count", "positions" or "bits"
	cursor int
}

// queryRec is one recorded answer.
type queryRec struct {
	seq       int
	bits      int
	count     int
	positions []int
	next      int
	hash      uint64
}

type queryWorkload struct {
	vecs    [][]*elp2im.BitVector // per namespace (one per slot)
	ns      []string
	preds   []*qnode
	srcs    []string
	streams [][]queryReq

	url     string
	clients []*http.Client
	recs    [][]queryRec
}

func queryShape() shape {
	return shape{protocol: "json", shards: 4, conns: 2, window: 1, warmup: 100, replay: 140}
}

func (w *queryWorkload) shape() shape { return queryShape() }

func newQuery(seed int64) *queryWorkload {
	sh := queryShape()
	rng := rand.New(rand.NewPCG(uint64(seed), 0x71756572795f6a73))
	w := &queryWorkload{
		vecs:    make([][]*elp2im.BitVector, sh.slots()),
		ns:      make([]string, sh.slots()),
		streams: make([][]queryReq, sh.slots()),
	}
	for s := range w.vecs {
		w.ns[s] = fmt.Sprintf("tenant%d", s)
		w.vecs[s] = make([]*elp2im.BitVector, len(queryIndex))
		for i := range w.vecs[s] {
			v := elp2im.NewBitVector(queryRows)
			words := v.Words()
			for j := range words {
				// Weekly activity is set for about 3 in 4 users, so the
				// 8-week conjunctions keep tens of thousands of matches;
				// gender splits users in half.
				if i == len(queryIndex)-1 {
					words[j] = rng.Uint64()
				} else {
					words[j] = rng.Uint64() | rng.Uint64()
				}
			}
			w.vecs[s][i] = v
		}
	}
	// Fig 13: Q1 counts users active in each of the last w weeks, Q2 the
	// male users among them.
	for weeks := 2; weeks <= 8; weeks++ {
		var q1 *qnode
		for i := 8 - weeks; i < 8; i++ {
			leaf := &qnode{op: 'v', leaf: i}
			if q1 == nil {
				q1 = leaf
			} else {
				q1 = &qnode{op: '&', l: q1, r: leaf}
			}
		}
		w.preds = append(w.preds, q1, &qnode{op: '&', l: &qnode{op: 'v', leaf: 8}, r: q1})
	}
	fig13 := len(w.preds)
	seen := make(map[string]bool)
	for len(w.preds) < fig13+queryAdhoc {
		p := adhocPredicate(rng, len(w.preds)-fig13)
		if src := p.String(); !seen[src] {
			seen[src] = true
			w.preds = append(w.preds, p)
		}
	}
	w.srcs = make([]string, len(w.preds))
	for i, p := range w.preds {
		w.srcs[i] = p.String()
	}
	zipf := rand.NewZipf(rng, 1.1, 1, queryAdhoc-1)
	for s := range w.streams {
		reqs := make([]queryReq, queryStream)
		// Per block of 28: each Fig 13 query once and 14 ad-hoc ones.
		// Modes are dealt independently, per block of 20: 16 counts, 3
		// position pages and 1 whole bitmap.
		kinds := dealt(rng, queryStream, 14, 14)
		modes := dealt(rng, queryStream, 16, 3, 1)
		var fig13Left []int
		for i := range reqs {
			r := queryReq{mode: [...]string{"count", "positions", "bits"}[modes[i]]}
			if kinds[i] == 0 {
				if len(fig13Left) == 0 {
					fig13Left = rng.Perm(fig13)
				}
				r.pred, fig13Left = fig13Left[0], fig13Left[1:]
			} else {
				r.pred = fig13 + int(zipf.Uint64())
			}
			if r.mode == "positions" {
				r.cursor = rng.IntN(queryRows)
			}
			reqs[i] = r
		}
		w.streams[s] = reqs
	}
	return w
}

// adhocPredicate draws the ad-hoc predicate of Zipf rank i: 3 to 6
// distinct indices, by rank, joined by AND/OR/XOR gates in a rank-fixed
// order, with the first input negated on every third rank. The seed picks
// the indices and the tree, so the predicate text varies with the seed
// while its gate mix, and so its cost, stays with its rank: the popular
// ranks weigh the same in every seed's mix.
func adhocPredicate(rng *rand.Rand, i int) *qnode {
	leaves := rng.Perm(len(queryIndex))[:3+i%4]
	nodes := make([]*qnode, len(leaves))
	for j, l := range leaves {
		nodes[j] = &qnode{op: 'v', leaf: l}
	}
	if i%3 == 0 {
		nodes[0] = &qnode{op: '~', l: nodes[0]}
	}
	for g := 0; len(nodes) > 1; g++ {
		j := rng.IntN(len(nodes) - 1)
		n := &qnode{op: "&|^"[(i+g)%3], l: nodes[j], r: nodes[j+1]}
		nodes = append(append(nodes[:j:j], n), nodes[j+2:]...)
	}
	return nodes[0]
}

func (w *queryWorkload) req(slot, seq int) *queryReq { return &w.streams[slot][seq%queryStream] }

// request is the JSON body of request seq of slot.
func (w *queryWorkload) request(slot, seq int) server.QueryRequest {
	r := w.req(slot, seq)
	q := server.QueryRequest{Namespace: w.ns[slot], Predicate: w.srcs[r.pred], Mode: r.mode}
	if r.mode == "positions" {
		q.Cursor, q.Limit = r.cursor, queryLimit
	}
	return q
}

func (w *queryWorkload) streamBytes() []byte {
	var b []byte
	for s := range w.vecs {
		for _, v := range w.vecs[s] {
			b = appendWords(b, v.Words())
		}
	}
	for s := range w.streams {
		for i := range w.streams[s] {
			body, _ := json.Marshal(w.request(s, i))
			b = append(append(b, body...), '\n')
		}
	}
	return b
}

func (w *queryWorkload) connect(addr string) error {
	sh := w.shape()
	w.url = "http://" + addr
	w.clients = make([]*http.Client, sh.conns)
	for i := range w.clients {
		w.clients[i] = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		}}
	}
	w.recs = make([][]queryRec, sh.slots())
	return nil
}

func (w *queryWorkload) closeClients() {
	for _, c := range w.clients {
		c.CloseIdleConnections()
	}
	w.clients = nil
}

// load stores each namespace's bitmaps over its own connection.
func (w *queryWorkload) load() error {
	errs := make([]error, len(w.vecs))
	var wg sync.WaitGroup
	for s := range w.vecs {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i, v := range w.vecs[s] {
				name := w.ns[s] + "/" + queryIndex[i]
				body, err := json.Marshal(server.VectorPayload{Bits: v.Len(), Data: server.EncodeBits(v)})
				if err == nil {
					err = w.send(s, http.MethodPut, "/v1/vectors/"+name, body, nil)
				}
				if err != nil {
					errs[s] = fmt.Errorf("put %s: %w", name, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// httpStatusError is a non-200 answer.
type httpStatusError struct {
	code int
	msg  string
}

func (e *httpStatusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.msg) }

// send makes one request on slot's connection and decodes a 200 answer
// into out (nil discards it).
func (w *queryWorkload) send(slot int, method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, w.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.clients[slot%len(w.clients)].Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return &httpStatusError{code: resp.StatusCode, msg: strings.TrimSpace(string(msg))}
	}
	if out != nil {
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	// Drain the rest so the connection is reused.
	_, _ = io.Copy(io.Discard, resp.Body)
	return err
}

func (w *queryWorkload) issue(slot, seq int) result {
	body, err := json.Marshal(w.request(slot, seq))
	if err != nil {
		return result{out: outWrong, err: err}
	}
	var qr server.QueryResponse
	if err := w.send(slot, http.MethodPost, "/v1/query", body, &qr); err != nil {
		var se *httpStatusError
		switch {
		case !errors.As(err, &se):
			return result{out: outTransport, err: err}
		case se.code == http.StatusServiceUnavailable:
			return result{out: outRejected, err: err}
		case se.code == http.StatusGatewayTimeout:
			return result{out: outDeadline, err: err}
		default:
			return result{out: outWrong, err: err}
		}
	}
	rec := queryRec{seq: seq, bits: qr.Bits, count: qr.Count, positions: qr.Positions, next: qr.NextCursor}
	if w.req(slot, seq).mode == "bits" {
		v, err := server.DecodeBits(qr.Data, qr.Bits)
		if err != nil {
			return result{out: outWrong, err: err}
		}
		rec.hash = hashWords(v.Words())
	}
	w.recs[slot] = append(w.recs[slot], rec)
	st := qr.Stats
	return result{st: modeled{latencyNS: st.LatencyNS, energyNJ: st.EnergyNJ, rowOps: uint64(st.RowOps), commands: uint64(st.Commands), wordlines: uint64(st.Wordlines)}}
}

// page is the positions page the server answers from cursor: up to
// queryLimit set-bit positions, and the cursor after them, zero when the
// page reached the last match.
func page(words []uint64, cursor int) (positions []int, next int) {
	for i := cursor / 64; i < len(words); i++ {
		x := words[i]
		if i == cursor/64 {
			x &= ^uint64(0) << (cursor % 64)
		}
		for ; x != 0; x &= x - 1 {
			if len(positions) == queryLimit {
				return positions, positions[queryLimit-1] + 1
			}
			positions = append(positions, i*64+bits.TrailingZeros64(x))
		}
	}
	return positions, 0
}

// verify checks every recorded answer against the oracle: the count, the
// positions page and its cursor, and the bitmap. Answers are grouped by
// predicate so each is evaluated once per namespace.
func (w *queryWorkload) verify() error {
	for s := range w.recs {
		recs := w.recs[s]
		sort.SliceStable(recs, func(i, j int) bool { return w.req(s, recs[i].seq).pred < w.req(s, recs[j].seq).pred })
		var want []uint64
		cur := -1
		for _, rec := range recs {
			r := w.req(s, rec.seq)
			if r.pred != cur {
				cur, want = r.pred, w.preds[r.pred].eval(w.vecs[s])
			}
			if err := checkQuery(r, rec, want); err != nil {
				return fmt.Errorf("query_json: %s request %d (%q, %s): %w", w.ns[s], rec.seq, w.srcs[r.pred], r.mode, err)
			}
		}
	}
	return nil
}

func checkQuery(r *queryReq, rec queryRec, want []uint64) error {
	if rec.bits != queryRows {
		return fmt.Errorf("universe %d, want %d", rec.bits, queryRows)
	}
	if n := int(popcount(want)); rec.count != n {
		return fmt.Errorf("count %d, want %d", rec.count, n)
	}
	switch r.mode {
	case "positions":
		positions, next := page(want, r.cursor)
		if rec.next != next || len(rec.positions) != len(positions) {
			return fmt.Errorf("page of %d positions ending at cursor %d, want %d ending at %d", len(rec.positions), rec.next, len(positions), next)
		}
		for i := range positions {
			if rec.positions[i] != positions[i] {
				return fmt.Errorf("position %d is %d, want %d", i, rec.positions[i], positions[i])
			}
		}
	case "bits":
		if rec.hash != hashWords(want) {
			return errors.New("bitmap disagrees")
		}
	}
	return nil
}

// replay sends the first n requests through encoding/json over the
// server's request and response types (with server.EncodeBits for bitmap
// answers), CompileExpr, Shard.EvalExpr on a benchmark-owned 4-shard
// router, and the fused kernels of the predicate's plan.
func (w *queryWorkload) replay(tr *tracer, n int) (replayStats, error) {
	var rs replayStats
	sh, err := elp2im.NewShard(w.shape().shards)
	if err != nil {
		return rs, err
	}
	cr := newClusterRunner(sh.ShardAccelerator(0))
	kout := make([]uint64, queryWords)
	slots := w.shape().slots()
	for i := 0; i < n; i++ {
		slot, seq := i%slots, i/slots
		r := w.req(slot, seq)
		id := reqID(slot, seq)
		root := tr.begin("request", id, 0)
		var body []byte
		var encErr error
		rs.codecNS += tr.do("json.encode", id, root.id, func() { body, encErr = json.Marshal(w.request(slot, seq)) })
		var q server.QueryRequest
		var decErr error
		rs.codecNS += tr.do("json.decode", id, root.id, func() { decErr = json.Unmarshal(body, &q) })
		if err := errors.Join(encErr, decErr); err != nil {
			return rs, fmt.Errorf("query_json: replay request codec: %w", err)
		}
		rs.requests++
		var ce *elp2im.CompiledExpr
		var cerr error
		tr.do("plan.compile", id, root.id, func() { ce, cerr = elp2im.CompileExpr(q.Predicate) })
		if cerr != nil {
			return rs, cerr
		}
		vars := make(map[string]*elp2im.BitVector, len(ce.Vars()))
		for _, name := range ce.Vars() {
			for j, idx := range queryIndex {
				if idx == name {
					vars[name] = w.vecs[slot][j]
				}
			}
		}
		var out *elp2im.BitVector
		var st elp2im.Stats
		var xerr error
		rs.execNS += tr.do("elp2im.exec", id, root.id, func() { out, st, xerr = sh.EvalExpr(ce, vars) })
		if xerr != nil {
			return rs, fmt.Errorf("query_json: replay exec: %w", xerr)
		}
		rs.execs++
		p, err := predicatePlan(q.Predicate)
		if err != nil {
			return rs, err
		}
		if err := cr.run(tr, id, root.id, p, func(name string) []uint64 { return vars[name].Words() }, kout, &rs); err != nil {
			return rs, err
		}
		if !equalWords(kout, out.Words()) {
			return rs, fmt.Errorf("query_json: kernel replay of %q disagrees with EvalExpr", q.Predicate)
		}
		resp := server.QueryResponse{Bits: out.Len(), Count: out.Popcount()}
		resp.Stats = server.StatsJSON{LatencyNS: st.LatencyNS, EnergyNJ: st.EnergyNJ, AveragePowerW: st.AveragePowerW,
			RowOps: st.RowOps, Commands: st.Commands, Wordlines: st.Wordlines}
		if r.mode == "positions" {
			resp.Positions, resp.NextCursor = page(out.Words(), r.cursor)
		}
		var raw []byte
		rs.codecNS += tr.do("json.encode", id, root.id, func() {
			if r.mode == "bits" {
				resp.Data = server.EncodeBits(out)
			}
			raw, encErr = json.Marshal(resp)
		})
		var back server.QueryResponse
		rs.codecNS += tr.do("json.decode", id, root.id, func() { decErr = json.Unmarshal(raw, &back) })
		if err := errors.Join(encErr, decErr); err != nil {
			return rs, fmt.Errorf("query_json: replay response codec: %w", err)
		}
		root.end()
	}
	return rs, nil
}

// predicatePlan compiles a predicate to the fused plan CompileExpr builds.
func predicatePlan(src string) (*plan.Plan, error) {
	node, err := expr.Parse(src)
	if err != nil {
		return nil, err
	}
	d, err := expr.BuildDAG(node)
	if err != nil {
		return nil, err
	}
	return plan.Compile(d)
}
