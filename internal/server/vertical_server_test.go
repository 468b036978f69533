package server

import (
	"encoding/base64"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"

	elp2im "repro"
	"repro/internal/vertical"
	"repro/internal/wire"
)

// putVertJSON stores a vertical vector through the JSON path.
func putVertJSON(t *testing.T, client *http.Client, base, name string, width int, elems []uint64) {
	t.Helper()
	payload := VectorPayload{ElemWidth: width, Elems: EncodeElems(elems)}
	if code, _ := doJSON(t, client, http.MethodPut, base+"/v1/vectors/"+name, payload, nil); code != http.StatusOK {
		t.Fatalf("json PUT vertical %s: status %d", name, code)
	}
}

// getVertJSON reads a vertical vector's elements back through the JSON
// path.
func getVertJSON(t *testing.T, client *http.Client, base, name string) (int, []uint64) {
	t.Helper()
	var got VectorPayload
	if code, _ := doJSON(t, client, http.MethodGet, base+"/v1/vectors/"+name, nil, &got); code != http.StatusOK {
		t.Fatalf("json GET vertical %s: status %d", name, code)
	}
	elems, err := DecodeElems(got.Elems)
	if err != nil {
		t.Fatalf("json GET vertical %s: %v", name, err)
	}
	if got.Bits != len(elems)*got.ElemWidth {
		t.Fatalf("json GET vertical %s: bits %d, want %d", name, got.Bits, len(elems)*got.ElemWidth)
	}
	return got.ElemWidth, elems
}

// TestArithJSONWireEquivalence is the vertical twin of
// TestWireJSONEquivalence: the same vertical workload — element PUTs,
// every arithmetic op — driven through the HTTP/JSON path on one server
// and the elpwire path on an identically configured second server must
// produce element-identical results, struct-equal modeled stats, and
// match the host-integer oracle. Run at shard widths 1 and 4.
func TestArithJSONWireEquivalence(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			js, ts, ws, wc := newWirePair(t, shards)
			client := ts.Client()
			rng := rand.New(rand.NewSource(7))
			const n, width = 300, 8
			x := make([]uint64, n)
			y := make([]uint64, n)
			for i := range x {
				x[i] = rng.Uint64() & 0xFF
				y[i] = rng.Uint64() & 0xFF
			}
			maskWords := make([]uint64, (n+63)/64)
			for i := range maskWords {
				maskWords[i] = rng.Uint64()
			}
			maskWords[len(maskWords)-1] &= 1<<uint(n%64) - 1

			putVertJSON(t, client, ts.URL, "x", width, x)
			putVertJSON(t, client, ts.URL, "y", width, y)
			maskBytes := wordsToBytes(maskWords, (n+7)/8)
			maskPayload := VectorPayload{Bits: n, Data: base64.StdEncoding.EncodeToString(maskBytes)}
			if code, _ := doJSON(t, client, http.MethodPut, ts.URL+"/v1/vectors/m", maskPayload, nil); code != http.StatusOK {
				t.Fatalf("json PUT mask: status %d", code)
			}
			if err := wc.PutVert("x", width, x); err != nil {
				t.Fatalf("wire PutVert x: %v", err)
			}
			if err := wc.PutVert("y", width, y); err != nil {
				t.Fatalf("wire PutVert y: %v", err)
			}
			if err := wc.Put("m", n, maskWords); err != nil {
				t.Fatalf("wire Put mask: %v", err)
			}

			ops := []struct {
				name string
				code uint8
				op   vertical.Op
				y    string
				mask string
			}{
				{"add", wire.ArithAdd, vertical.OpAdd, "y", ""},
				{"sub", wire.ArithSub, vertical.OpSub, "y", ""},
				{"lt", wire.ArithLt, vertical.OpLT, "y", ""},
				{"le", wire.ArithLe, vertical.OpLE, "y", ""},
				{"eq", wire.ArithEq, vertical.OpEQ, "y", ""},
				{"lts", wire.ArithLts, vertical.OpLTS, "y", ""},
				{"les", wire.ArithLes, vertical.OpLES, "y", ""},
				{"popcount", wire.ArithPopcount, vertical.OpPopcount, "", ""},
				{"select", wire.ArithSelect, vertical.OpSelect, "y", "m"},
			}
			for _, op := range ops {
				dst := "r_" + op.name
				var jr OpResponse
				body := ArithRequest{Op: op.name, Dst: dst, X: "x", Y: op.y, Mask: op.mask}
				if code, _ := doJSON(t, client, http.MethodPost, ts.URL+"/v1/arith", body, &jr); code != http.StatusOK {
					t.Fatalf("json arith %s: status %d", op.name, code)
				}
				wst, wWidth, wElems, err := wc.Arith(op.code, 0, dst, "x", op.y, op.mask)
				if err != nil {
					t.Fatalf("wire arith %s: %v", op.name, err)
				}
				if jr.Stats != statsJSON(wireToStats(wst)) {
					t.Fatalf("arith %s stats diverge:\njson %+v\nwire %+v", op.name, jr.Stats, wst)
				}
				wantWidth := op.op.OutWidth(width)
				if jr.Elems != n || jr.ElemWidth != wantWidth {
					t.Fatalf("json arith %s: elems=%d width=%d, want %d/%d", op.name, jr.Elems, jr.ElemWidth, n, wantWidth)
				}
				if wElems != n || wWidth != wantWidth {
					t.Fatalf("wire arith %s: elems=%d width=%d, want %d/%d", op.name, wElems, wWidth, n, wantWidth)
				}
				want := vertical.Reference(op.op, width, x, y, maskWords)
				gotWidth, jelems := getVertJSON(t, client, ts.URL, dst)
				if gotWidth != wantWidth {
					t.Fatalf("json GET %s: width %d, want %d", dst, gotWidth, wantWidth)
				}
				gWidth, welems, err := wc.GetVert(dst, nil)
				if err != nil {
					t.Fatalf("wire GetVert %s: %v", dst, err)
				}
				if gWidth != wantWidth {
					t.Fatalf("wire GetVert %s: width %d, want %d", dst, gWidth, wantWidth)
				}
				for i := range want {
					if jelems[i] != want[i] || welems[i] != want[i] {
						t.Fatalf("arith %s element %d: json %d wire %d, reference %d",
							op.name, i, jelems[i], welems[i], want[i])
					}
				}
			}
			if js.Totals() != ws.Totals() {
				t.Fatalf("totals diverge:\njson %+v\nwire %+v", js.Totals(), ws.Totals())
			}
		})
	}
}

// TestWireArithOpTable pins the wire arith codes onto the same facade ops
// the JSON mnemonics parse to — the cross-protocol contract that makes
// ArithAdd mean "add" forever, mirroring TestWireBitOpTable.
func TestWireArithOpTable(t *testing.T) {
	codes := map[string]uint8{
		"add": wire.ArithAdd, "sub": wire.ArithSub,
		"lt": wire.ArithLt, "le": wire.ArithLe, "eq": wire.ArithEq,
		"lts": wire.ArithLts, "les": wire.ArithLes,
		"popcount": wire.ArithPopcount, "select": wire.ArithSelect,
	}
	for name, code := range codes {
		want, err := elp2im.ParseArithOp(name)
		if err != nil {
			t.Fatalf("ParseArithOp(%q): %v", name, err)
		}
		got, ok := arithOpFor(code)
		if !ok || got != want {
			t.Errorf("wire code %d maps to %v, JSON %q maps to %v", code, got, name, want)
		}
	}
	if _, ok := arithOpFor(9); ok {
		t.Error("arithOpFor(9) accepted an out-of-range code")
	}
}

// TestVerticalKindGuards pins the dual-kind store contract on every
// consumer: bitwise ops, reductions and eval reject vertical operands and
// destinations; arith rejects plain operands; GETs of the wrong kind over
// the wire say which call to use instead. Everything answers 400-class,
// never 500.
func TestVerticalKindGuards(t *testing.T) {
	s, ts := newTestServer(t, nil)
	wc := startWire(t, s)
	client := ts.Client()
	putVertJSON(t, client, ts.URL, "v", 8, []uint64{1, 2, 3})
	putVertJSON(t, client, ts.URL, "v2", 8, []uint64{4, 5, 6})
	for _, name := range []string{"p", "q"} {
		if code, _ := doJSON(t, client, http.MethodPut, ts.URL+"/v1/vectors/"+name,
			VectorPayload{Bits: 192}, nil); code != http.StatusOK {
			t.Fatalf("PUT %s: status %d", name, code)
		}
	}
	post := func(path string, body any) int {
		t.Helper()
		code, _ := doJSON(t, client, http.MethodPost, ts.URL+path, body, nil)
		return code
	}
	cases := []struct {
		name string
		code int
	}{
		{"op with vertical x", post("/v1/op", OpRequest{Op: "and", Dst: "d", X: "v", Y: "p"})},
		{"op with vertical y", post("/v1/op", OpRequest{Op: "and", Dst: "d", X: "p", Y: "v"})},
		{"op with vertical dst", post("/v1/op", OpRequest{Op: "and", Dst: "v", X: "p", Y: "q"})},
		{"reduce with vertical src", post("/v1/reduce", ReduceRequest{Op: "and", Dst: "d", Srcs: []string{"p", "v"}})},
		{"eval with vertical operand", post("/v1/eval", EvalRequest{Expr: "v & p", Dst: "d"})},
		{"arith with plain x", post("/v1/arith", ArithRequest{Op: "add", Dst: "d", X: "p", Y: "q"})},
		{"arith with plain y", post("/v1/arith", ArithRequest{Op: "add", Dst: "d", X: "v", Y: "p"})},
		{"arith with vertical mask", post("/v1/arith", ArithRequest{Op: "select", Dst: "d", X: "v", Y: "v2", Mask: "v2"})},
		{"arith unknown op", post("/v1/arith", ArithRequest{Op: "mul", Dst: "d", X: "v", Y: "v2"})},
		{"arith popcount with y", post("/v1/arith", ArithRequest{Op: "popcount", Dst: "d", X: "v", Y: "v2"})},
		{"vertical put with bits", func() int {
			code, _ := doJSON(t, client, http.MethodPut, ts.URL+"/v1/vectors/bad",
				VectorPayload{Bits: 64, ElemWidth: 8, Elems: EncodeElems([]uint64{1})}, nil)
			return code
		}()},
		{"vertical put width out of range", func() int {
			code, _ := doJSON(t, client, http.MethodPut, ts.URL+"/v1/vectors/bad",
				VectorPayload{ElemWidth: 65, Elems: EncodeElems([]uint64{1})}, nil)
			return code
		}()},
		{"vertical put stray bits", func() int {
			code, _ := doJSON(t, client, http.MethodPut, ts.URL+"/v1/vectors/bad",
				VectorPayload{ElemWidth: 4, Elems: EncodeElems([]uint64{16})}, nil)
			return code
		}()},
	}
	for _, tc := range cases {
		if tc.code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, tc.code)
		}
	}
	// Missing operands stay 404, not 400.
	if code := post("/v1/arith", ArithRequest{Op: "add", Dst: "d", X: "nope", Y: "v"}); code != http.StatusNotFound {
		t.Errorf("arith missing operand: status %d, want 404", code)
	}
	// Wrong-kind GETs over the wire point at the right call.
	var se *wire.StatusError
	if _, _, _, err := wc.Get("v", nil); !errors.As(err, &se) || se.Code != wire.StatusBadRequest {
		t.Errorf("wire Get of vertical: %v, want bad_request", err)
	}
	if _, _, err := wc.GetVert("p", nil); !errors.As(err, &se) || se.Code != wire.StatusBadRequest {
		t.Errorf("wire GetVert of plain: %v, want bad_request", err)
	}
	if _, _, err := wc.GetVert("nope", nil); !errors.As(err, &se) || se.Code != wire.StatusNotFound {
		t.Errorf("wire GetVert of missing: %v, want not_found", err)
	}
	// GET_VERT answers in slices, but a vertical whose elements would
	// not fit one frame at 8 bytes each is refused in band, so a
	// client's element buffer stays within the frame limit: 8 Mi 1-bit
	// elements are 1 MiB of slices and 64 MiB of elements.
	huge, err := elp2im.NewVertical(wire.DefaultMaxFrame/8, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.store.setVert("huge", huge)
	if _, _, err := wc.GetVert("huge", nil); !errors.As(err, &se) || se.Code != wire.StatusBadRequest ||
		!strings.Contains(se.Msg, fmt.Sprintf("(limit %d)", wire.DefaultMaxFrame)) {
		t.Errorf("wire GetVert of %d elements: %v, want bad_request naming the frame limit", huge.Len(), err)
	}
	if w, elems, err := wc.GetVert("v", nil); err != nil || w != 8 || len(elems) == 0 {
		t.Errorf("wire GetVert after a refused one: width=%d elems=%d err=%v", w, len(elems), err)
	}
	// A vertical PUT over an existing plain name swaps the entry's kind,
	// and back.
	putVertJSON(t, client, ts.URL, "p", 4, []uint64{9, 10})
	if w, elems := getVertJSON(t, client, ts.URL, "p"); w != 4 || len(elems) != 2 {
		t.Fatalf("kind swap to vertical: width=%d elems=%v", w, elems)
	}
	if code, _ := doJSON(t, client, http.MethodPut, ts.URL+"/v1/vectors/p",
		VectorPayload{Bits: 64}, nil); code != http.StatusOK {
		t.Fatalf("kind swap back to plain: status %d", code)
	}
	if raw := fetchBytes(t, client, ts.URL, "p"); len(raw) != 8 {
		t.Fatalf("kind swap back: got %d bytes, want 8", len(raw))
	}
}

// TestEvalCacheCounters pins the compiled-program LRU: the first eval of
// an expression (and the first arith of an (op, width) shape) misses and
// compiles, repeats hit, and the server.evalcache.hit/miss series count
// exactly that.
func TestEvalCacheCounters(t *testing.T) {
	s, ts := newTestServer(t, nil)
	client := ts.Client()
	for _, name := range []string{"a", "b"} {
		if code, _ := doJSON(t, client, http.MethodPut, ts.URL+"/v1/vectors/"+name,
			VectorPayload{Bits: 256}, nil); code != http.StatusOK {
			t.Fatalf("PUT %s: status %d", name, code)
		}
	}
	putVertJSON(t, client, ts.URL, "vx", 8, []uint64{1, 2, 3, 4})
	putVertJSON(t, client, ts.URL, "vy", 8, []uint64{5, 6, 7, 8})
	hits0, miss0 := s.obs.evalCacheHits.Value(), s.obs.evalCacheMisses.Value()
	eval := func() {
		t.Helper()
		if code, _ := doJSON(t, client, http.MethodPost, ts.URL+"/v1/eval",
			EvalRequest{Expr: "a & ~b", Dst: "r"}, nil); code != http.StatusOK {
			t.Fatalf("eval: status %d", code)
		}
	}
	arith := func() {
		t.Helper()
		if code, _ := doJSON(t, client, http.MethodPost, ts.URL+"/v1/arith",
			ArithRequest{Op: "add", Dst: "vr", X: "vx", Y: "vy"}, nil); code != http.StatusOK {
			t.Fatalf("arith: status %d", code)
		}
	}
	eval()
	arith()
	if h, m := s.obs.evalCacheHits.Value()-hits0, s.obs.evalCacheMisses.Value()-miss0; h != 0 || m != 2 {
		t.Fatalf("cold eval+arith: hits=%d misses=%d, want 0/2", h, m)
	}
	eval()
	eval()
	arith()
	if h, m := s.obs.evalCacheHits.Value()-hits0, s.obs.evalCacheMisses.Value()-miss0; h != 3 || m != 2 {
		t.Fatalf("warm eval+arith: hits=%d misses=%d, want 3/2", h, m)
	}
	if n := s.cache.len(); n != 2 {
		t.Fatalf("cache holds %d entries, want 2", n)
	}
	// A failed compile is not cached: both attempts miss.
	for i := 0; i < 2; i++ {
		if code, _ := doJSON(t, client, http.MethodPost, ts.URL+"/v1/eval",
			EvalRequest{Expr: "a &", Dst: "r"}, nil); code != http.StatusBadRequest {
			t.Fatalf("bad expr: status %d", code)
		}
	}
	if h, m := s.obs.evalCacheHits.Value()-hits0, s.obs.evalCacheMisses.Value()-miss0; h != 3 || m != 4 {
		t.Fatalf("after failed compiles: hits=%d misses=%d, want 3/4", h, m)
	}
	if n := s.cache.len(); n != 2 {
		t.Fatalf("failed compiles were cached: %d entries, want 2", n)
	}
}

// TestEvalCacheEviction pins the LRU bound: a capacity-2 cache holding
// {A, B} evicts A (the least recently used) when C lands, so A misses
// again while B and C still hit.
func TestEvalCacheEviction(t *testing.T) {
	s, ts := newTestServer(t, func(cfg *Config) { cfg.EvalCacheSize = 2 })
	client := ts.Client()
	for _, name := range []string{"a", "b"} {
		if code, _ := doJSON(t, client, http.MethodPut, ts.URL+"/v1/vectors/"+name,
			VectorPayload{Bits: 128}, nil); code != http.StatusOK {
			t.Fatalf("PUT %s: status %d", name, code)
		}
	}
	eval := func(expr string) {
		t.Helper()
		if code, _ := doJSON(t, client, http.MethodPost, ts.URL+"/v1/eval",
			EvalRequest{Expr: expr, Dst: "r"}, nil); code != http.StatusOK {
			t.Fatalf("eval %q: status %d", expr, code)
		}
	}
	exprA, exprB, exprC := "a & b", "a | b", "a ^ b"
	eval(exprA) // miss: {A}
	eval(exprB) // miss: {B, A}
	eval(exprB) // hit, refreshes B
	eval(exprC) // miss, evicts A: {C, B}
	if n := s.cache.len(); n != 2 {
		t.Fatalf("cache holds %d entries, want 2", n)
	}
	miss0 := s.obs.evalCacheMisses.Value()
	hits0 := s.obs.evalCacheHits.Value()
	eval(exprB) // still cached
	eval(exprC) // still cached
	eval(exprA) // evicted → miss
	if h, m := s.obs.evalCacheHits.Value()-hits0, s.obs.evalCacheMisses.Value()-miss0; h != 2 || m != 1 {
		t.Fatalf("post-eviction: hits=%d misses=%d, want 2/1", h, m)
	}
}

// TestConcurrentPutGetConsistency pins the snapshot-GET contract under
// contention: writers replace a vector's contents while readers GET it
// through both protocols, and every response must be self-consistent —
// the reported popcount computed from the same snapshot as the returned
// data, never a torn mix of old and new words. Runs under the race
// detector in the lint gate, which also proves the encode-outside-the-
// lock path never touches live words.
func TestConcurrentPutGetConsistency(t *testing.T) {
	s, ts := newTestServer(t, nil)
	wc := startWire(t, s)
	client := ts.Client()
	const bits = 2048
	const rounds = 60
	// Alternate between two patterns with different popcounts so a torn
	// snapshot is visible as a popcount/data mismatch.
	patterns := [][]uint64{make([]uint64, bits/64), make([]uint64, bits/64)}
	for i := range patterns[0] {
		patterns[0][i] = 0xAAAA_AAAA_AAAA_AAAA
		patterns[1][i] = ^uint64(0)
	}
	if err := wc.Put("hot", bits, patterns[0]); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			raw := wordsToBytes(patterns[i%2], bits/8)
			payload := VectorPayload{Bits: bits, Data: base64.StdEncoding.EncodeToString(raw)}
			if code, _ := doJSON(t, client, http.MethodPut, ts.URL+"/v1/vectors/hot", payload, nil); code != http.StatusOK {
				t.Errorf("writer PUT: status %d", code)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			var got VectorPayload
			if code, _ := doJSON(t, client, http.MethodGet, ts.URL+"/v1/vectors/hot", nil, &got); code != http.StatusOK {
				t.Errorf("json GET: status %d", code)
				return
			}
			raw, err := base64.StdEncoding.DecodeString(got.Data)
			if err != nil || got.Popcount == nil {
				t.Errorf("json GET: data %v popcount %v", err, got.Popcount)
				return
			}
			if pop := popcountWords(bytesToWords(raw)); pop != *got.Popcount {
				t.Errorf("json GET: popcount %d but data has %d set bits", *got.Popcount, pop)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			gotBits, pop, words, err := wc.Get("hot", nil)
			if err != nil {
				t.Errorf("wire GET: %v", err)
				return
			}
			if gotBits != bits || pop != uint64(popcountWords(words)) {
				t.Errorf("wire GET: bits=%d popcount %d but data has %d set bits",
					gotBits, pop, popcountWords(words))
				return
			}
		}
	}()
	wg.Wait()
}

// TestConcurrentVerticalPutGetConsistency is the vertical twin of
// TestConcurrentPutGetConsistency: one writer replaces a vertical vector
// by cycling through wire PutVerts of three element patterns (two at
// width 8, one at width 16) and arith selects that write either width-8
// pattern under the same name, and a second wire writer issues only such
// selects, while a wire GetVert reader and a JSON GET reader fetch it.
// Every answer must be one whole pattern at its own width: a read that
// mixed two versions — a width from one and slices from another, or
// slices from each — matches none of them. That pins that a vertical GET
// reads the width, the length and every slice under one hold of the
// entry's read lock. An arith that replaces an arith result recycles the
// old slices into the shard's slice pool, and the next select leases
// them while the readers are in flight, so the test also pins that no
// reader still holds a vertical once it is recycled. Runs under the race
// detector in the lint gate.
func TestConcurrentVerticalPutGetConsistency(t *testing.T) {
	s, ts := newTestServer(t, nil)
	writer, selector, reader := startWire(t, s), startWire(t, s), startWire(t, s)
	client := ts.Client()
	const n, rounds = 4096 + 77, 200
	type pattern struct {
		width int
		elems []uint64
	}
	patterns := []pattern{{8, make([]uint64, n)}, {8, make([]uint64, n)}, {16, make([]uint64, n)}}
	for i := 0; i < n; i++ {
		patterns[0].elems[i] = uint64(i*37) & 0xFF
		patterns[1].elems[i] = ^patterns[0].elems[i] & 0xFF
		patterns[2].elems[i] = uint64(i*977+5) & 0xFFFF
	}
	for k, name := range []string{"pa", "pb"} {
		if err := writer.PutVert(name, 8, patterns[k].elems); err != nil {
			t.Fatal(err)
		}
	}
	ones := make([]uint64, (n+63)/64)
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	ones[len(ones)-1] = 1<<(n%64) - 1
	if err := writer.Put("ones", n, ones); err != nil {
		t.Fatal(err)
	}
	if err := writer.Put("zeros", n, nil); err != nil {
		t.Fatal(err)
	}
	if err := writer.PutVert("hot", 8, patterns[0].elems); err != nil {
		t.Fatal(err)
	}
	whole := func(width int, elems []uint64) bool {
		for _, p := range patterns {
			if p.width == width && len(elems) == n && equalElems(elems, p.elems) {
				return true
			}
		}
		return false
	}
	// The readers keep reading until the writer is done, so every write
	// lands while reads are in flight.
	writing := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		defer close(writing)
		for i := 0; i < rounds; i++ {
			var err error
			switch i % 5 {
			case 0, 1, 2:
				p := patterns[i%5]
				err = writer.PutVert("hot", p.width, p.elems)
			case 3:
				_, _, _, err = writer.Arith(wire.ArithSelect, 0, "hot", "pa", "pb", "ones")
			case 4:
				_, _, _, err = writer.Arith(wire.ArithSelect, 0, "hot", "pa", "pb", "zeros")
			}
			if err != nil {
				t.Errorf("writer round %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		masks := [...]string{"ones", "zeros"}
		for i := 0; !closed(writing); i++ {
			if _, _, _, err := selector.Arith(wire.ArithSelect, 0, "hot", "pa", "pb", masks[i%2]); err != nil {
				t.Errorf("selector round %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		var buf []uint64
		for i := 0; !closed(writing); i++ {
			width, elems, err := reader.GetVert("hot", buf)
			if err != nil {
				t.Errorf("wire GetVert: %v", err)
				return
			}
			if !whole(width, elems) {
				t.Errorf("wire GetVert round %d: width %d with elements of no whole pattern", i, width)
				return
			}
			buf = elems
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; !closed(writing); i++ {
			var got VectorPayload
			if code, _ := doJSON(t, client, http.MethodGet, ts.URL+"/v1/vectors/hot", nil, &got); code != http.StatusOK {
				t.Errorf("json GET: status %d", code)
				return
			}
			elems, err := DecodeElems(got.Elems)
			if err != nil || !whole(got.ElemWidth, elems) {
				t.Errorf("json GET round %d: width %d with elements of no whole pattern (%v)", i, got.ElemWidth, err)
				return
			}
		}
	}()
	wg.Wait()
}

// closed reports whether ch is closed.
func closed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// equalElems reports whether two element arrays are identical.
func equalElems(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
