package server

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"sort"
	"testing"

	elp2im "repro"
	"repro/internal/engine"
	"repro/internal/exp"
)

// TestOpCostMatchesFig12 pins the serving layer to the reproduction: one
// /v1/op AND on a default server costs, per row op, the commands and
// wordlines of its design's AND in Figure 12.
func TestOpCostMatchesFig12(t *testing.T) {
	s, ts := newTestServer(t, nil)
	c := ts.Client()
	rng := rand.New(rand.NewSource(12))
	putRandom(t, c, ts.URL, "f12.a", rng, 8192)
	putRandom(t, c, ts.URL, "f12.b", rng, 8192)
	var resp OpResponse
	if code, _ := doJSON(t, c, http.MethodPost, ts.URL+"/v1/op",
		OpRequest{Op: "and", Dst: "f12.r", X: "f12.a", Y: "f12.b"}, &resp); code != http.StatusOK {
		t.Fatalf("op: status %d", code)
	}
	fig, err := exp.RunFig12()
	if err != nil {
		t.Fatal(err)
	}
	design := s.accs[0].Design()
	for _, col := range fig.Designs {
		if col.Design != design {
			continue
		}
		for i, op := range fig.Ops {
			if op != engine.OpAND {
				continue
			}
			want, got := col.Stats[i], resp.Stats
			if got.RowOps == 0 || got.Commands != want.Commands*got.RowOps || got.Wordlines != want.Wordlines*got.RowOps {
				t.Fatalf("%s AND: %d row ops, %d commands, %d wordlines; Figure 12 gives %d commands and %d wordlines per row op",
					design, got.RowOps, got.Commands, got.Wordlines, want.Commands, want.Wordlines)
			}
			return
		}
	}
	t.Fatalf("Figure 12 has no AND row for %s", design)
}

// TestQueryCostMatchesFig13 pins the served bitmap query to the Figure 13
// case study: per stripe, a /v1/query Q1 over the last w weeks issues the
// commands and wordlines of one staging COPY plus w-1 of the chained AND
// folds apps/bitmap charges (the design's ChainSeq(AND), the call
// bitmap.Run makes), and Q2 = g & Q1 one COPY plus w folds. The staging
// COPY is the one difference from the case study, whose accumulators are
// resident rows. Q1 over two weeks is one gate, so it stays Figure 12's
// three-operand AND.
func TestQueryCostMatchesFig13(t *testing.T) {
	s, ts := newTestServer(t, nil)
	c := ts.Client()
	rng := rand.New(rand.NewSource(13))
	const nbytes = 8192
	for _, index := range []string{"w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7", "g"} {
		putRandom(t, c, ts.URL, indexKey("f13", index), rng, nbytes)
	}
	stripes := nbytes * 8 / elp2im.DefaultConfig().Module.Columns
	eng, ok := s.gateFor("f13").acc.BaseExecutor().(engine.Engine)
	if !ok {
		t.Fatal("the accelerator's base executor is not an engine")
	}
	fold, err := eng.ChainSeq(engine.OpAND)
	if err != nil {
		t.Fatal(err)
	}
	cp, and := eng.Seq(engine.OpCOPY), eng.Seq(engine.OpAND)
	for w := 2; w <= 8; w++ {
		q1 := fmt.Sprintf("w%d", 8-w)
		for i := 9 - w; i < 8; i++ {
			q1 = fmt.Sprintf("(%s & w%d)", q1, i)
		}
		for _, q := range []struct {
			pred  string
			folds int
		}{{q1, w - 1}, {"(g & " + q1 + ")", w}} {
			instrs, cmds, wls := 1+q.folds, len(cp)+q.folds*len(fold), cp.Wordlines()+q.folds*fold.Wordlines()
			if q.folds == 1 { // Q1 over two weeks: one gate
				instrs, cmds, wls = 1, len(and), and.Wordlines()
			}
			var resp QueryResponse
			if code, _ := doJSON(t, c, http.MethodPost, ts.URL+"/v1/query",
				QueryRequest{Namespace: "f13", Predicate: q.pred}, &resp); code != http.StatusOK {
				t.Fatalf("%s: status %d", q.pred, code)
			}
			if got := resp.Stats; got.RowOps != instrs*stripes || got.Commands != cmds*stripes || got.Wordlines != wls*stripes {
				t.Errorf("%s: %d row ops, %d commands, %d wordlines over %d stripes; Figure 13 gives %d row ops, %d commands and %d wordlines per stripe",
					q.pred, got.RowOps, got.Commands, got.Wordlines, stripes, instrs, cmds, wls)
			}
		}
	}
}

// TestStatsPayloadRoundTrip guards the /v1/stats contract: the payload
// must survive a marshal/unmarshal round trip unchanged, and the exact
// JSON key set is pinned so a silent field rename (which would break
// dashboards keying on these names) fails here instead of in production.
func TestStatsPayloadRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, nil)
	c := ts.Client()
	rng := rand.New(rand.NewSource(20))
	putRandom(t, c, ts.URL, "st.a", rng, 1024)
	putRandom(t, c, ts.URL, "st.b", rng, 1024)
	code, _ := doJSON(t, c, http.MethodPost, ts.URL+"/v1/op",
		OpRequest{Op: "and", Dst: "st.r", X: "st.a", Y: "st.b"}, nil)
	if code != http.StatusOK {
		t.Fatalf("op: status %d", code)
	}

	resp, err := c.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	defer resp.Body.Close()
	var payload StatsPayload
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if payload.Design == "" || payload.Totals.LatencyNS <= 0 || payload.Totals.RowOps <= 0 {
		t.Fatalf("implausible stats payload: %+v", payload)
	}

	// Round trip: marshal → unmarshal → identical struct.
	raw, err := json.Marshal(payload)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back StatsPayload
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(payload, back) {
		t.Fatalf("round trip changed the payload:\n  out: %+v\n  back: %+v", payload, back)
	}

	// Pin the exact key sets.
	var tree map[string]json.RawMessage
	if err := json.Unmarshal(raw, &tree); err != nil {
		t.Fatalf("unmarshal tree: %v", err)
	}
	assertKeys(t, "payload", tree, []string{"design", "reserved_rows", "totals", "server"})
	var totals map[string]json.RawMessage
	if err := json.Unmarshal(tree["totals"], &totals); err != nil {
		t.Fatalf("unmarshal totals: %v", err)
	}
	assertKeys(t, "totals", totals, []string{
		"latency_ns", "energy_nj", "average_power_w", "row_ops", "commands", "wordlines",
	})
	var server map[string]json.RawMessage
	if err := json.Unmarshal(tree["server"], &server); err != nil {
		t.Fatalf("unmarshal server: %v", err)
	}
	assertKeys(t, "server", server, []string{
		"queue_depth", "queue_max", "rejected", "deadline_expired",
		"batches_flushed", "requests_coalesced",
		"panics", "wire_flushes", "wire_frames_per_flush",
		"fusion_hits", "fusion_fallbacks",
		"vectors", "draining", "shards",
	})
	// per_shard is omitempty and this is a single-module server, so it must
	// be absent here; the sharded key set is pinned by
	// TestShardedStatsPayload in shard_server_test.go.
	if _, ok := server["per_shard"]; ok {
		t.Error("single-module stats payload unexpectedly carries per_shard")
	}
}

// assertKeys fails unless m's key set is exactly want.
func assertKeys(t *testing.T, label string, m map[string]json.RawMessage, want []string) {
	t.Helper()
	got := make([]string, 0, len(m))
	for k := range m {
		got = append(got, k)
	}
	sort.Strings(got)
	want = append([]string(nil), want...)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s keys = %v, want %v", label, got, want)
	}
}

func TestEncodeDecodeBits(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	chunk := 8 * payloadChunk // bits in one streamed chunk
	for _, bits := range []int{1, 7, 8, 63, 64, 65, 8192, 100_000,
		chunk - 1, chunk, chunk + 1, chunk - 64, chunk + 64, 3 * chunk} {
		v := elp2im.RandomBitVector(rng, bits)
		enc := EncodeBits(v)
		raw := make([]byte, (bits+7)/8)
		for i := range raw {
			raw[i] = byte(v.Words()[i/8] >> (8 * (i % 8)))
		}
		if enc != base64.StdEncoding.EncodeToString(raw) {
			t.Fatalf("bits=%d: encoding differs from the byte-wise little-endian reference", bits)
		}
		back, err := DecodeBits(enc, bits)
		if err != nil {
			t.Fatalf("bits=%d: decode: %v", bits, err)
		}
		if !v.Equal(back) {
			t.Fatalf("bits=%d: round trip mismatch", bits)
		}
	}

	if _, err := DecodeBits("AAAA", 0); err == nil {
		t.Error("DecodeBits accepted zero bits")
	}
	if _, err := DecodeBits("!!", 8); err == nil {
		t.Error("DecodeBits accepted invalid base64")
	}
	// One byte but claiming 4 bits with the high bits set: stray bits
	// beyond the length must be rejected.
	if _, err := DecodeBits("8A==", 4); err == nil { // 0xF0
		t.Error("DecodeBits accepted stray bits beyond the vector length")
	}
	// Wrong byte count for the claimed length.
	if _, err := DecodeBits("AAAA", 8); err == nil {
		t.Error("DecodeBits accepted a length/data mismatch")
	}
}

func TestParseOp(t *testing.T) {
	cases := map[string]elp2im.Op{
		"and": elp2im.OpAnd, "AND": elp2im.OpAnd, "Xor": elp2im.OpXor,
		"not": elp2im.OpNot, "copy": elp2im.OpCopy, "nor": elp2im.OpNor,
		"nand": elp2im.OpNand, "xnor": elp2im.OpXnor, "or": elp2im.OpOr,
	}
	for in, want := range cases {
		got, err := parseOp(in)
		if err != nil || got != want {
			t.Errorf("parseOp(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseOp("mux"); err == nil {
		t.Error("parseOp accepted an unknown mnemonic")
	}
}
