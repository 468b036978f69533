package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	elp2im "repro"
	"repro/internal/wire"
)

// TestQueryModeTable pins the shared mode vocabulary: the JSON mode
// strings, the wire mode codes they map onto, and the codes' numeric
// values (a wire contract — reordering the constants breaks clients).
func TestQueryModeTable(t *testing.T) {
	if wire.QueryCount != 0 || wire.QueryBits != 1 || wire.QueryPositions != 2 {
		t.Fatalf("wire mode codes moved: count=%d bits=%d positions=%d",
			wire.QueryCount, wire.QueryBits, wire.QueryPositions)
	}
	cases := []struct {
		s    string
		mode uint8
	}{
		{"", wire.QueryCount},
		{"count", wire.QueryCount},
		{"bits", wire.QueryBits},
		{"positions", wire.QueryPositions},
	}
	for _, tc := range cases {
		mode, err := parseQueryMode(tc.s)
		if err != nil || mode != tc.mode {
			t.Errorf("parseQueryMode(%q) = (%d, %v), want (%d, nil)", tc.s, mode, err, tc.mode)
		}
	}
	if _, err := parseQueryMode("popcount"); !errors.Is(err, errBadRequest) {
		t.Errorf("unknown mode error = %v, want errBadRequest class", err)
	}
}

// queryPredicates pairs each differential predicate with its host-side
// byte-level oracle — an implementation independent of the expression
// compiler, the plan IR and the device model.
var queryPredicates = []struct {
	src  string
	host func(in map[string][]byte, i int) byte
}{
	{"i0 & i1", func(in map[string][]byte, i int) byte { return in["i0"][i] & in["i1"][i] }},
	{"(i0 & i1) | ~i2", func(in map[string][]byte, i int) byte { return (in["i0"][i] & in["i1"][i]) | ^in["i2"][i] }},
	{"i0 ^ i1 ^ i2", func(in map[string][]byte, i int) byte { return in["i0"][i] ^ in["i1"][i] ^ in["i2"][i] }},
	{"~(i3 | i4) & i5", func(in map[string][]byte, i int) byte { return ^(in["i3"][i] | in["i4"][i]) & in["i5"][i] }},
	{"(i0 | i1) & (i2 | i3) & ~(i4 ^ i5)", func(in map[string][]byte, i int) byte {
		return (in["i0"][i] | in["i1"][i]) & (in["i2"][i] | in["i3"][i]) & ^(in["i4"][i] ^ in["i5"][i])
	}},
}

// TestQueryDifferential drives the same namespace and predicates through
// three independent evaluators — POST /v1/query on a JSON server,
// KindQuery on an identically configured wire server, and the facade's
// EvalExpr — and requires a bit-for-bit identical match vector from all
// three, a byte-level host oracle agreeing with every one, and
// struct-equal Stats across the two protocols. Shard widths 1 and 4 pin
// both the single-accelerator path and the home-shard path.
func TestQueryDifferential(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			_, ts, _, wc := newWirePair(t, shards)
			client := ts.Client()
			rng := rand.New(rand.NewSource(7))
			const (
				namespace = "events"
				nbytes    = 512
			)
			inputs := map[string][]byte{}
			vars := map[string]*elp2im.BitVector{}
			for _, name := range []string{"i0", "i1", "i2", "i3", "i4", "i5"} {
				raw := make([]byte, nbytes)
				rng.Read(raw)
				inputs[name] = raw
				key := indexKey(namespace, name)
				payload := VectorPayload{Bits: nbytes * 8, Data: base64.StdEncoding.EncodeToString(raw)}
				if code, _ := doJSON(t, client, http.MethodPut, ts.URL+"/v1/vectors/"+key, payload, nil); code != http.StatusOK {
					t.Fatalf("json PUT %s: status %d", key, code)
				}
				if err := wc.Put(key, nbytes*8, bytesToWords(raw)); err != nil {
					t.Fatalf("wire PUT %s: %v", key, err)
				}
				v, err := DecodeBits(payload.Data, nbytes*8)
				if err != nil {
					t.Fatal(err)
				}
				vars[name] = v
			}
			oracle, err := elp2im.New()
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range queryPredicates {
				// Host oracle bytes.
				want := make([]byte, nbytes)
				for i := range want {
					want[i] = p.host(inputs, i)
				}
				// JSON, bits mode.
				var jr QueryResponse
				code, _ := doJSON(t, client, http.MethodPost, ts.URL+"/v1/query",
					QueryRequest{Namespace: namespace, Predicate: p.src, Mode: "bits"}, &jr)
				if code != http.StatusOK {
					t.Fatalf("json query %q: status %d", p.src, code)
				}
				jraw, err := base64.StdEncoding.DecodeString(jr.Data)
				if err != nil {
					t.Fatalf("json query %q: bad base64: %v", p.src, err)
				}
				if jr.Bits != nbytes*8 || !bytesEqual(jraw, want) {
					t.Fatalf("json query %q diverges from the host oracle", p.src)
				}
				// Wire, bits mode.
				qr, err := wc.Query(0, namespace, p.src, wire.QueryBits, 0, 0)
				if err != nil {
					t.Fatalf("wire query %q: %v", p.src, err)
				}
				if qr.Bits != nbytes*8 || !bytesEqual(wordsToBytes(qr.Words, nbytes), want) {
					t.Fatalf("wire query %q diverges from the host oracle", p.src)
				}
				// The two protocols agree on cardinality and Stats exactly.
				if int(qr.Count) != jr.Count {
					t.Fatalf("query %q counts diverge: json %d wire %d", p.src, jr.Count, qr.Count)
				}
				if jr.Stats != statsJSON(wireToStats(qr.Stats)) {
					t.Fatalf("query %q stats diverge:\njson %+v\nwire %+v", p.src, jr.Stats, qr.Stats)
				}
				// Facade leg: the same predicate through EvalExpr directly.
				ce, err := elp2im.CompileExpr(p.src)
				if err != nil {
					t.Fatal(err)
				}
				fv, _, err := oracle.EvalExpr(ce, vars)
				if err != nil {
					t.Fatalf("facade eval %q: %v", p.src, err)
				}
				if !bytesEqual(wordsToBytes(fv.Words(), nbytes), want) {
					t.Fatalf("facade eval %q diverges from the host oracle", p.src)
				}
				// Count mode carries cardinality only.
				var cr QueryResponse
				if code, _ := doJSON(t, client, http.MethodPost, ts.URL+"/v1/query",
					QueryRequest{Namespace: namespace, Predicate: p.src}, &cr); code != http.StatusOK {
					t.Fatalf("json count query %q: status %d", p.src, code)
				}
				if cr.Count != jr.Count || cr.Data != "" || cr.Positions != nil {
					t.Fatalf("count mode response carries extra payload: %+v", cr)
				}
				// Positions mode: page through both protocols with a small
				// limit and require identical, host-checked pages.
				var jpos []int
				cursor := 0
				for {
					var pr QueryResponse
					if code, _ := doJSON(t, client, http.MethodPost, ts.URL+"/v1/query",
						QueryRequest{Namespace: namespace, Predicate: p.src, Mode: "positions",
							Cursor: cursor, Limit: 1000}, &pr); code != http.StatusOK {
						t.Fatalf("json positions query %q: status %d", p.src, code)
					}
					wr, err := wc.Query(0, namespace, p.src, wire.QueryPositions, uint64(cursor), 1000)
					if err != nil {
						t.Fatalf("wire positions query %q: %v", p.src, err)
					}
					if len(wr.Positions) != len(pr.Positions) || int(wr.NextCursor) != pr.NextCursor {
						t.Fatalf("positions pages diverge at cursor %d: json %d+%d wire %d+%d",
							cursor, len(pr.Positions), pr.NextCursor, len(wr.Positions), wr.NextCursor)
					}
					for i, p := range pr.Positions {
						if uint64(p) != wr.Positions[i] {
							t.Fatalf("position %d diverges: json %d wire %d", i, p, wr.Positions[i])
						}
					}
					jpos = append(jpos, pr.Positions...)
					if pr.NextCursor == 0 {
						break
					}
					cursor = pr.NextCursor
				}
				if len(jpos) != jr.Count {
					t.Fatalf("query %q paged %d positions, count is %d", p.src, len(jpos), jr.Count)
				}
				for _, pos := range jpos {
					if want[pos/8]&(1<<(pos%8)) == 0 {
						t.Fatalf("query %q returned clear position %d", p.src, pos)
					}
				}
			}
		})
	}
}

// TestQueryPaginationLarge pins pagination at a megabit universe: paging
// a dense match set at the clamped maximum limit reconstructs exactly
// the host-computed position list, page boundaries resume without
// duplicates or gaps, and the final page answers a zero cursor.
func TestQueryPaginationLarge(t *testing.T) {
	_, ts := newTestServer(t, nil)
	client := ts.Client()
	rng := rand.New(rand.NewSource(21))
	const (
		namespace = "big"
		bits      = 1 << 20
		nbytes    = bits / 8
	)
	raws := map[string][]byte{}
	for _, name := range []string{"x", "y"} {
		raw := make([]byte, nbytes)
		rng.Read(raw)
		raws[name] = raw
		payload := VectorPayload{Bits: bits, Data: base64.StdEncoding.EncodeToString(raw)}
		if code, _ := doJSON(t, client, http.MethodPut, ts.URL+"/v1/vectors/"+indexKey(namespace, name), payload, nil); code != http.StatusOK {
			t.Fatalf("PUT %s: status %d", name, code)
		}
	}
	var want []int
	for i := 0; i < bits; i++ {
		if (raws["x"][i/8]|raws["y"][i/8])&(1<<(i%8)) != 0 {
			want = append(want, i)
		}
	}
	var got []int
	cursor, pages := 0, 0
	for {
		var pr QueryResponse
		code, _ := doJSON(t, client, http.MethodPost, ts.URL+"/v1/query",
			QueryRequest{Namespace: namespace, Predicate: "x | y", Mode: "positions",
				Cursor: cursor, Limit: maxQueryLimit}, &pr)
		if code != http.StatusOK {
			t.Fatalf("positions page at cursor %d: status %d", cursor, code)
		}
		if pr.Bits != bits || pr.Count != len(want) {
			t.Fatalf("page header = (%d bits, %d count), want (%d, %d)", pr.Bits, pr.Count, bits, len(want))
		}
		got = append(got, pr.Positions...)
		pages++
		if pr.NextCursor == 0 {
			break
		}
		if len(pr.Positions) != maxQueryLimit {
			t.Fatalf("non-final page carried %d positions, want %d", len(pr.Positions), maxQueryLimit)
		}
		cursor = pr.NextCursor
	}
	if pages != (len(want)+maxQueryLimit-1)/maxQueryLimit {
		t.Errorf("paged %d matches in %d pages at limit %d", len(want), pages, maxQueryLimit)
	}
	if len(got) != len(want) {
		t.Fatalf("paged %d positions, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d = %d, want %d", i, got[i], want[i])
		}
	}
	// An over-limit request clamps rather than failing.
	var pr QueryResponse
	if code, _ := doJSON(t, client, http.MethodPost, ts.URL+"/v1/query",
		QueryRequest{Namespace: namespace, Predicate: "x | y", Mode: "positions",
			Limit: maxQueryLimit * 10}, &pr); code != http.StatusOK {
		t.Fatalf("over-limit page: status %d", code)
	}
	if len(pr.Positions) != maxQueryLimit {
		t.Fatalf("over-limit page carried %d positions, want clamp to %d", len(pr.Positions), maxQueryLimit)
	}
}

// TestQueryErrorsEndToEnd drives every query request fault through both
// protocols and requires the 400 class each time: unknown namespace,
// unknown index within a live namespace, a cursor beyond the universe, a
// negative JSON cursor, an unknown mode, and a predicate overflowing the
// row budget of a deliberately shallow module.
func TestQueryErrorsEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, nil)
	client := ts.Client()
	rng := rand.New(rand.NewSource(3))
	putRandom(t, client, ts.URL, indexKey("tenants", "active"), rng, 64)
	wc := startWire(t, s)

	expectJSON := func(name string, body QueryRequest, wantFragment string) {
		t.Helper()
		var er ErrorResponse
		code, _ := doJSON(t, client, http.MethodPost, ts.URL+"/v1/query", body, &er)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: json status %d, want 400", name, code)
		}
		if !strings.Contains(er.Error, wantFragment) {
			t.Fatalf("%s: json error %q missing %q", name, er.Error, wantFragment)
		}
	}
	expectWire := func(name string, namespace, predicate string, mode uint8, cursor uint64) {
		t.Helper()
		_, err := wc.Query(0, namespace, predicate, mode, cursor, 0)
		var se *wire.StatusError
		if !errors.As(err, &se) || se.Code != wire.StatusBadRequest {
			t.Fatalf("%s: wire error %v, want StatusBadRequest", name, err)
		}
	}

	expectJSON("unknown namespace", QueryRequest{Namespace: "nope", Predicate: "active"}, "unknown namespace")
	expectWire("unknown namespace", "nope", "active", wire.QueryCount, 0)
	expectJSON("unknown index", QueryRequest{Namespace: "tenants", Predicate: "active & missing"}, "unknown index")
	expectWire("unknown index", "tenants", "active & missing", wire.QueryCount, 0)
	expectJSON("bad cursor", QueryRequest{Namespace: "tenants", Predicate: "active", Mode: "positions", Cursor: 1 << 20}, "bad cursor")
	expectWire("bad cursor", "tenants", "active", wire.QueryPositions, 1<<20)
	expectJSON("negative cursor", QueryRequest{Namespace: "tenants", Predicate: "active", Mode: "positions", Cursor: -1}, "bad cursor")
	expectJSON("bad mode", QueryRequest{Namespace: "tenants", Predicate: "active", Mode: "popcount"}, "unknown query mode")
	expectJSON("bad predicate", QueryRequest{Namespace: "tenants", Predicate: "active &"}, "expr")

	// Row-budget overflow needs a shallow module: 12 rows per subarray
	// cannot hold a predicate demanding more distinct indices plus temps
	// than that.
	shallow, err := elp2im.New(func(c *elp2im.Config) { c.Module.RowsPerSubarray = 12 })
	if err != nil {
		t.Fatal(err)
	}
	ss, sts := newTestServer(t, func(c *Config) { c.Accelerator = shallow })
	sclient := sts.Client()
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}
	for _, n := range names {
		putRandom(t, sclient, sts.URL, indexKey("deep", n), rng, 64)
	}
	deep := "(a ^ b) & (c ^ d) & (e ^ f) & (g ^ h) & (i ^ j) & (k ^ l)"
	var er ErrorResponse
	if code, _ := doJSON(t, sclient, http.MethodPost, sts.URL+"/v1/query",
		QueryRequest{Namespace: "deep", Predicate: deep, Mode: "count"}, &er); code != http.StatusBadRequest {
		t.Fatalf("row-budget overflow: json status %d, want 400 (%s)", code, er.Error)
	}
	if !strings.Contains(er.Error, "row budget") {
		t.Fatalf("row-budget overflow: error %q missing cause", er.Error)
	}
	swc := startWire(t, ss)
	_, err = swc.Query(0, "deep", deep, wire.QueryCount, 0, 0)
	var se *wire.StatusError
	if !errors.As(err, &se) || se.Code != wire.StatusBadRequest {
		t.Fatalf("row-budget overflow: wire error %v, want StatusBadRequest", err)
	}
}

// TestQueryFusionCounters pins the /v1/stats fusion telemetry: fused
// query evaluation increments fusion_hits, and the same workload on a
// command-accurate server (the engine installed with SetExecutor)
// increments fusion_fallbacks instead.
func TestQueryFusionCounters(t *testing.T) {
	run := func(cmd bool) ServerStats {
		acc, err := elp2im.New()
		if err != nil {
			t.Fatal(err)
		}
		if cmd {
			acc.SetExecutor(acc.BaseExecutor())
		}
		_, ts := newTestServer(t, func(c *Config) { c.Accelerator = acc })
		client := ts.Client()
		rng := rand.New(rand.NewSource(9))
		for _, n := range []string{"p", "q", "r"} {
			putRandom(t, client, ts.URL, indexKey("ns", n), rng, 64)
		}
		if code, _ := doJSON(t, client, http.MethodPost, ts.URL+"/v1/query",
			QueryRequest{Namespace: "ns", Predicate: "(p & q) | ~r"}, nil); code != http.StatusOK {
			t.Fatalf("query: status %d", code)
		}
		var sr StatsPayload
		if code, _ := doJSON(t, client, http.MethodGet, ts.URL+"/v1/stats", nil, &sr); code != http.StatusOK {
			t.Fatalf("stats: status %d", code)
		}
		return sr.Server
	}
	fused := run(false)
	if fused.FusionHits == 0 {
		t.Errorf("fused query left fusion_hits at 0: %+v", fused)
	}
	cmd := run(true)
	if cmd.FusionHits != 0 || cmd.FusionFallbacks == 0 {
		t.Errorf("command-accurate query counters = hits %d fallbacks %d, want 0 and >0",
			cmd.FusionHits, cmd.FusionFallbacks)
	}
}

// FuzzQuery feeds arbitrary predicates, modes, cursors and limits into
// the HTTP query path over a live store and checks the structural
// invariants every accepted response must satisfy: count ≤ bits,
// positions strictly increasing, every position under the universe and
// consistent with the bits-mode vector of the same predicate, and a
// next-cursor that is zero or past the final position. Rejected inputs
// must answer the 400 class, never 500.
func FuzzQuery(f *testing.F) {
	f.Add("i0 & i1", "count", 0, 0)
	f.Add("(i0 | i1) & ~i2", "bits", 0, 0)
	f.Add("i0 ^ i1 ^ i2", "positions", 0, 7)
	f.Add("i0", "positions", 63, 1)
	f.Add("~i2", "", 0, 0)
	f.Add("i0 & (", "count", 0, 0)
	f.Add("i0 & nope", "positions", -5, -1)
	f.Add("i9", "weird", 1<<30, 1<<30)

	acc, err := elp2im.New()
	if err != nil {
		f.Fatal(err)
	}
	s, err := New(Config{Accelerator: acc})
	if err != nil {
		f.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	f.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	client := ts.Client()
	rng := rand.New(rand.NewSource(17))
	const nbytes = 128
	for _, name := range []string{"i0", "i1", "i2"} {
		raw := make([]byte, nbytes)
		rng.Read(raw)
		payload := VectorPayload{Bits: nbytes * 8, Data: base64.StdEncoding.EncodeToString(raw)}
		if code, err := rawJSON(client, http.MethodPut, ts.URL+"/v1/vectors/"+indexKey("fz", name), payload, nil); err != nil || code != http.StatusOK {
			f.Fatalf("PUT %s: status %d, err %v", name, code, err)
		}
	}

	f.Fuzz(func(t *testing.T, predicate, mode string, cursor, limit int) {
		var qr QueryResponse
		code, err := rawJSON(client, http.MethodPost, ts.URL+"/v1/query",
			QueryRequest{Namespace: "fz", Predicate: predicate, Mode: mode, Cursor: cursor, Limit: limit}, &qr)
		if err != nil {
			t.Fatalf("query(%q, %q, %d, %d): %v", predicate, mode, cursor, limit, err)
		}
		switch {
		case code == http.StatusOK:
		case code == http.StatusBadRequest:
			return
		default:
			t.Fatalf("query(%q, %q, %d, %d): status %d, want 200 or 400", predicate, mode, cursor, limit, code)
		}
		if qr.Bits != nbytes*8 || qr.Count < 0 || qr.Count > qr.Bits {
			t.Fatalf("header out of range: %d count over %d bits", qr.Count, qr.Bits)
		}
		if mode != "positions" {
			return
		}
		var br QueryResponse
		if code, err := rawJSON(client, http.MethodPost, ts.URL+"/v1/query",
			QueryRequest{Namespace: "fz", Predicate: predicate, Mode: "bits"}, &br); err != nil || code != http.StatusOK {
			t.Fatalf("bits twin: status %d, err %v", code, err)
		}
		match, err := base64.StdEncoding.DecodeString(br.Data)
		if err != nil {
			t.Fatal(err)
		}
		last := -1
		for _, p := range qr.Positions {
			if p <= last || p >= qr.Bits {
				t.Fatalf("positions not strictly increasing under %d: %v", qr.Bits, qr.Positions)
			}
			if match[p/8]&(1<<(p%8)) == 0 {
				t.Fatalf("position %d is clear in the bits-mode vector", p)
			}
			last = p
		}
		if qr.NextCursor != 0 && qr.NextCursor <= last {
			t.Fatalf("next cursor %d not past final position %d", qr.NextCursor, last)
		}
	})
}

// rawJSON is doJSON without a *testing.T, for fuzz setup and bodies.
func rawJSON(client *http.Client, method, url string, body, out any) (int, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if out != nil && resp.StatusCode == http.StatusOK && len(rb) > 0 {
		if err := json.Unmarshal(rb, out); err != nil {
			return resp.StatusCode, fmt.Errorf("unmarshal %q: %w", rb, err)
		}
	}
	return resp.StatusCode, nil
}

// TestQueryPooledMatchVector pins that a query overwrites every word of
// its recycled match vector: before each query the pool is handed a
// vector of the universe width filled with ones (tail bits included),
// and the count, the bits and every positions page must equal a
// fresh-vector evaluation. The universe is ragged and spans several
// stripes, on one shard and on four.
func TestQueryPooledMatchVector(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var s *Server
			if shards == 1 {
				s, _ = newTestServer(t, nil)
			} else {
				s, _ = newShardedTestServer(t, shards, nil)
			}
			const namespace, n = "pool", 3*8192 + 77
			rng := rand.New(rand.NewSource(9))
			vars := map[string]*elp2im.BitVector{}
			for _, name := range []string{"i0", "i1", "i2", "i3", "i4", "i5"} {
				vars[name] = fillRandom(s.store, indexKey(namespace, name), rng, n)
			}
			oracle, err := elp2im.New()
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range queryPredicates {
				ce, err := elp2im.CompileExpr(p.src)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := oracle.EvalExpr(ce, vars)
				if err != nil {
					t.Fatal(err)
				}
				// Empty the pool so the poisoned vector is the one it
				// holds. It may still drop it (at random under -race, on
				// GC), so poison until a query reuses it.
				reused := false
				for attempt := 0; attempt < 64 && !reused; attempt++ {
					for matchPool.Get() != nil {
					}
					ones := elp2im.NewBitVector(n)
					for i := range ones.Words() {
						ones.Words()[i] = ^uint64(0)
					}
					putMatch(ones)
					got, _, err := s.queryCore(namespace, p.src)
					if err != nil {
						t.Fatalf("%q: %v", p.src, err)
					}
					reused = got == ones
					if got.Popcount() != want.Popcount() {
						t.Fatalf("%q: count %d, want %d", p.src, got.Popcount(), want.Popcount())
					}
					if EncodeBits(got) != EncodeBits(want) {
						t.Fatalf("%q: bits differ from a fresh evaluation", p.src)
					}
					for cursor := 0; ; {
						gp, gnext := queryPage(got, cursor, 997)
						wp, wnext := queryPage(want, cursor, 997)
						if fmt.Sprint(gp) != fmt.Sprint(wp) || gnext != wnext {
							t.Fatalf("%q: positions page at cursor %d differs from a fresh evaluation", p.src, cursor)
						}
						if gnext == 0 {
							break
						}
						cursor = int(gnext)
					}
					putMatch(got)
				}
				if !reused {
					t.Fatalf("%q: no query reused the poisoned vector", p.src)
				}
			}
		})
	}
}

// TestShardedQueryChargesHomeShard pins where a query's modeled cost
// lands on a 4-shard server: the whole query runs on its namespace's
// home shard. Over indices spanning more than 8 stripes, that shard's
// per_shard modeled_busy_ns grows by exactly the response's latency_ns,
// every other shard's stays put, fusion_hits moves by exactly one (one
// fused plan on one accelerator), and the totals equal the per-shard
// sum.
func TestShardedQueryChargesHomeShard(t *testing.T) {
	s, ts := newShardedTestServer(t, 4, nil)
	c := ts.Client()
	rng := rand.New(rand.NewSource(43))
	// Give every shard a nonzero busy time first, so "stays put" is not
	// trivially zero.
	for i := 0; i < s.Shards(); i++ {
		name := shardHomedName(t, s, "busy", i)
		putRandom(t, c, ts.URL, name, rng, 256)
		if code, _ := doJSON(t, c, http.MethodPost, ts.URL+"/v1/op",
			OpRequest{Op: "not", Dst: name, X: name}, nil); code != http.StatusOK {
			t.Fatalf("op on shard %d: status %d", i, code)
		}
	}
	const namespace = "charge"
	home := s.store.shardOf(namespace)
	n := 9*8192 + 77 // default module rows are 8,192 bits: 10 stripes
	for _, name := range []string{"i0", "i1", "i2"} {
		fillRandom(s.store, indexKey(namespace, name), rng, n)
	}
	stats := func() StatsPayload {
		var sp StatsPayload
		if code, _ := doJSON(t, c, http.MethodGet, ts.URL+"/v1/stats", nil, &sp); code != http.StatusOK {
			t.Fatalf("stats: status %d", code)
		}
		return sp
	}
	before := stats()
	var qr QueryResponse
	if code, _ := doJSON(t, c, http.MethodPost, ts.URL+"/v1/query",
		QueryRequest{Namespace: namespace, Predicate: "(i0 & i1) | ~i2"}, &qr); code != http.StatusOK {
		t.Fatalf("query: status %d", code)
	}
	after := stats()
	if qr.Stats.RowOps < 8 || qr.Stats.LatencyNS <= 0 {
		t.Fatalf("query stats %+v: want a priced query over at least 8 stripes", qr.Stats)
	}
	sum := 0.0
	for i, ss := range after.Server.PerShard {
		want := before.Server.PerShard[i].ModeledBusyNS
		if i == home {
			want += qr.Stats.LatencyNS
		}
		if ss.ModeledBusyNS != want {
			t.Errorf("shard %d (home %d): modeled_busy_ns %v, want %v", i, home, ss.ModeledBusyNS, want)
		}
		sum += ss.ModeledBusyNS
	}
	if after.Totals.LatencyNS != sum {
		t.Errorf("totals latency_ns %v, want the per-shard sum %v", after.Totals.LatencyNS, sum)
	}
	if got := after.Server.FusionHits - before.Server.FusionHits; got != 1 {
		t.Errorf("fusion_hits grew by %d, want 1", got)
	}
}
