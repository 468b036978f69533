package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	elp2im "repro"
	"repro/internal/wire"
)

// startWire exposes a server over a real TCP listener speaking elpwire
// and returns a connected client. Cleanup closes the client, the
// listener and every tracked connection.
func startWire(t *testing.T, s *Server) *wire.Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := s.ServeWire(ln); err != nil {
			t.Errorf("ServeWire: %v", err)
		}
	}()
	c, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() {
		_ = c.Close()
		_ = ln.Close()
		<-done
		s.CloseWireConns()
	})
	return c
}

// newWirePair builds two servers with identical configuration over fresh
// accelerators (sharded when shards > 1): one fronted by HTTP/JSON, one
// by elpwire. The differential tests drive the same workload through
// both and require identical observable state.
func newWirePair(t *testing.T, shards int) (js *Server, ts *httptest.Server, ws *Server, wc *wire.Client) {
	t.Helper()
	build := func() *Server {
		cfg := Config{}
		if shards > 1 {
			sh, err := elp2im.NewShard(shards)
			if err != nil {
				t.Fatalf("NewShard(%d): %v", shards, err)
			}
			cfg.Shard = sh
		} else {
			acc, err := elp2im.New()
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			cfg.Accelerator = acc
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("server.New: %v", err)
		}
		return s
	}
	js = build()
	ts = httptest.NewServer(js.Handler())
	ws = build()
	wc = startWire(t, ws)
	t.Cleanup(func() {
		ts.Close()
		js.Drain()
		ws.Drain()
	})
	return js, ts, ws, wc
}

// wordsToBytes converts little-endian words to the byte order EncodeBits
// uses (bit i of the vector is bit i%8 of byte i/8 — the same layout,
// so a plain LE serialization matches).
func wordsToBytes(words []uint64, nbytes int) []byte {
	out := make([]byte, len(words)*8)
	for i, w := range words {
		binary.LittleEndian.PutUint64(out[i*8:], w)
	}
	return out[:nbytes]
}

// bytesToWords is the inverse, zero-padding the final partial word.
func bytesToWords(raw []byte) []uint64 {
	words := make([]uint64, (len(raw)+7)/8)
	var buf [8]byte
	for i := range words {
		n := copy(buf[:], raw[i*8:])
		for j := n; j < 8; j++ {
			buf[j] = 0
		}
		words[i] = binary.LittleEndian.Uint64(buf[:])
	}
	return words
}

// TestWireJSONEquivalence is the differential harness: the same workload
// — vector PUTs, every bitwise op, a reduction, an expression eval —
// driven through the HTTP/JSON path on one server and the elpwire path
// on an identically configured second server must leave bit-for-bit
// identical vectors, struct-equal modeled totals, and the same
// deterministic per-shard placement. Run at shard widths 1 and 4 so both
// the single-gate and the sharded routing layers are pinned.
func TestWireJSONEquivalence(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			js, ts, ws, wc := newWirePair(t, shards)
			client := ts.Client()
			rng := rand.New(rand.NewSource(42))
			const nbytes = 512 // 4096 bits
			// Seed identical named vectors through both protocols.
			inputs := map[string][]byte{}
			for _, name := range []string{"a", "b", "c", "d"} {
				raw := make([]byte, nbytes)
				rng.Read(raw)
				inputs[name] = raw
				payload := VectorPayload{Bits: nbytes * 8, Data: base64.StdEncoding.EncodeToString(raw)}
				if code, _ := doJSON(t, client, http.MethodPut, ts.URL+"/v1/vectors/"+name, payload, nil); code != http.StatusOK {
					t.Fatalf("json PUT %s: status %d", name, code)
				}
				if err := wc.Put(name, nbytes*8, bytesToWords(raw)); err != nil {
					t.Fatalf("wire PUT %s: %v", name, err)
				}
			}
			// The same op sequence through both paths, collecting stats.
			ops := []struct {
				name string
				code uint8
				dst  string
				x, y string
			}{
				{"and", wire.BitAnd, "r_and", "a", "b"},
				{"or", wire.BitOr, "r_or", "a", "c"},
				{"xor", wire.BitXor, "r_xor", "b", "c"},
				{"nand", wire.BitNand, "r_nand", "a", "d"},
				{"nor", wire.BitNor, "r_nor", "b", "d"},
				{"xnor", wire.BitXnor, "r_xnor", "c", "d"},
				{"not", wire.BitNot, "r_not", "a", ""},
				{"copy", wire.BitCopy, "r_copy", "d", ""},
			}
			for _, op := range ops {
				var jr OpResponse
				body := OpRequest{Op: op.name, Dst: op.dst, X: op.x, Y: op.y}
				if code, _ := doJSON(t, client, http.MethodPost, ts.URL+"/v1/op", body, &jr); code != http.StatusOK {
					t.Fatalf("json op %s: status %d", op.name, code)
				}
				wst, err := wc.Op(op.code, 0, op.dst, op.x, op.y)
				if err != nil {
					t.Fatalf("wire op %s: %v", op.name, err)
				}
				if jr.Stats != statsJSON(wireToStats(wst)) {
					t.Fatalf("op %s stats diverge:\njson %+v\nwire %+v", op.name, jr.Stats, wst)
				}
			}
			var jr OpResponse
			if code, _ := doJSON(t, client, http.MethodPost, ts.URL+"/v1/reduce",
				ReduceRequest{Op: "and", Dst: "r_reduce", Srcs: []string{"a", "b", "c", "d"}}, &jr); code != http.StatusOK {
				t.Fatalf("json reduce: status %d", code)
			}
			wst, err := wc.Reduce(wire.BitAnd, 0, "r_reduce", []string{"a", "b", "c", "d"})
			if err != nil {
				t.Fatalf("wire reduce: %v", err)
			}
			if jr.Stats != statsJSON(wireToStats(wst)) {
				t.Fatalf("reduce stats diverge: json %+v wire %+v", jr.Stats, wst)
			}
			const evalExpr = "(a & b) | ~c"
			if code, _ := doJSON(t, client, http.MethodPost, ts.URL+"/v1/eval",
				EvalRequest{Expr: evalExpr, Dst: "r_eval"}, &jr); code != http.StatusOK {
				t.Fatalf("json eval: status %d", code)
			}
			wst, bits, err := wc.Eval(0, "r_eval", evalExpr)
			if err != nil {
				t.Fatalf("wire eval: %v", err)
			}
			if bits != nbytes*8 {
				t.Fatalf("wire eval bits = %d, want %d", bits, nbytes*8)
			}
			if jr.Stats != statsJSON(wireToStats(wst)) {
				t.Fatalf("eval stats diverge: json %+v wire %+v", jr.Stats, wst)
			}

			// Every stored vector must now be bit-for-bit identical across
			// the two servers, read back through each server's own protocol.
			names := []string{"a", "b", "c", "d"}
			for _, op := range ops {
				names = append(names, op.dst)
			}
			names = append(names, "r_reduce", "r_eval")
			for _, name := range names {
				jraw := fetchBytes(t, client, ts.URL, name)
				wbits, wpop, words, err := wc.Get(name, nil)
				if err != nil {
					t.Fatalf("wire GET %s: %v", name, err)
				}
				wraw := wordsToBytes(words, len(jraw))
				if wbits != len(jraw)*8 {
					t.Fatalf("%s: wire bits %d, json bytes %d", name, wbits, len(jraw))
				}
				if !bytesEqual(jraw, wraw) {
					t.Fatalf("%s: vectors diverge between protocols", name)
				}
				var pop uint64
				for _, w := range words {
					pop += uint64(popcount64(w))
				}
				if wpop != pop {
					t.Fatalf("%s: wire popcount %d, recomputed %d", name, wpop, pop)
				}
			}

			// Modeled totals are deterministic functions of the executed op
			// sequence: struct-equal across protocols.
			if js.Totals() != ws.Totals() {
				t.Fatalf("totals diverge:\njson %+v\nwire %+v", js.Totals(), ws.Totals())
			}
			// Per-shard deterministic stats agree (flush counts are timing-
			// dependent and excluded; placement and modeled busy time are not).
			jst, wsst := js.Stats(), ws.Stats()
			if jst.Totals != wsst.Totals {
				t.Fatalf("stats totals diverge:\njson %+v\nwire %+v", jst.Totals, wsst.Totals)
			}
			if jst.Server.Vectors != wsst.Server.Vectors || jst.Server.Shards != wsst.Server.Shards {
				t.Fatalf("server stats diverge:\njson %+v\nwire %+v", jst.Server, wsst.Server)
			}
			for i := range jst.Server.PerShard {
				jp, wp := jst.Server.PerShard[i], wsst.Server.PerShard[i]
				if jp.Vectors != wp.Vectors || jp.ModeledBusyNS != wp.ModeledBusyNS {
					t.Fatalf("shard %d diverges:\njson %+v\nwire %+v", i, jp, wp)
				}
			}
			// Identical error mapping: an op on a missing vector is 404 on
			// both paths, with the same message.
			var jerr ErrorResponse
			code, _ := doJSON(t, client, http.MethodPost, ts.URL+"/v1/op",
				OpRequest{Op: "and", Dst: "z", X: "nope", Y: "a"}, &jerr)
			if code != http.StatusNotFound {
				t.Fatalf("json missing operand: status %d", code)
			}
			_, werr := wc.Op(wire.BitAnd, 0, "z", "nope", "a")
			var se *wire.StatusError
			if !errors.As(werr, &se) || se.Code != wire.StatusNotFound {
				t.Fatalf("wire missing operand: %v", werr)
			}
			if se.Msg != jerr.Error {
				t.Fatalf("error messages diverge: json %q wire %q", jerr.Error, se.Msg)
			}
		})
	}
}

// bytesEqual avoids importing bytes for one comparison.
func bytesEqual(a, b []byte) bool {
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

// popcount64 is a dependency-free popcount for the test.
func popcount64(w uint64) int {
	n := 0
	for ; w != 0; w &= w - 1 {
		n++
	}
	return n
}

// wireToStats converts a wire stats block back to the facade's shape for
// comparison against the JSON path.
func wireToStats(st wire.Stats) elp2im.Stats {
	return elp2im.Stats{
		LatencyNS:     st.LatencyNS,
		EnergyNJ:      st.EnergyNJ,
		AveragePowerW: st.AveragePowerW,
		RowOps:        int(st.RowOps),
		Commands:      int(st.Commands),
		Wordlines:     int(st.Wordlines),
	}
}

// TestWireStatsMatchesJSON pins that KindStats serves the exact payload
// /v1/stats serves — same marshaling, so the protocols cannot drift.
func TestWireStatsMatchesJSON(t *testing.T) {
	acc, err := elp2im.New()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Accelerator: acc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)
	wc := startWire(t, s)
	if err := wc.Put("v", 64, []uint64{7}); err != nil {
		t.Fatal(err)
	}
	raw, err := wc.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	var got StatsPayload
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("wire stats is not the JSON payload: %v", err)
	}
	want, err := json.Marshal(s.Stats())
	if err != nil {
		t.Fatal(err)
	}
	// The wire flush counters tick with every response write — including
	// the stats response itself — so they legitimately differ between the
	// two snapshots. Pin their presence but compare everything else
	// byte-for-byte (maps marshal with sorted keys on both sides).
	normalize := func(p []byte) string {
		t.Helper()
		var tree map[string]json.RawMessage
		if err := json.Unmarshal(p, &tree); err != nil {
			t.Fatalf("unmarshal payload: %v", err)
		}
		var srv map[string]json.RawMessage
		if err := json.Unmarshal(tree["server"], &srv); err != nil {
			t.Fatalf("unmarshal server section: %v", err)
		}
		for _, k := range []string{"wire_flushes", "wire_frames_per_flush"} {
			if _, ok := srv[k]; !ok {
				t.Fatalf("server section is missing %q", k)
			}
			srv[k] = json.RawMessage("0")
		}
		sb, err := json.Marshal(srv)
		if err != nil {
			t.Fatal(err)
		}
		tree["server"] = sb
		out, err := json.Marshal(tree)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	if normalize(raw) != normalize(want) {
		t.Fatalf("wire stats bytes diverge from /v1/stats marshaling:\nwire %s\njson %s", raw, want)
	}
}

// TestWireErrorStatusContract pins the sentinel-error → wire-status
// mapping in one table, mirroring TestErrorStatusContract's HTTP table:
// the same error classes, the binary status codes, and the retry-after
// hint on the 503-class statuses.
func TestWireErrorStatusContract(t *testing.T) {
	cases := []struct {
		name    string
		err     error
		code    uint8
		retryMS uint32
	}{
		{"saturated", ErrSaturated, wire.StatusSaturated, wireRetryAfterMS},
		{"saturated wrapped", fmt.Errorf("admit: %w", ErrSaturated), wire.StatusSaturated, wireRetryAfterMS},
		{"draining", ErrDraining, wire.StatusDraining, wireRetryAfterMS},
		{"draining wrapped", fmt.Errorf("admit: %w", ErrDraining), wire.StatusDraining, wireRetryAfterMS},
		{"deadline", context.DeadlineExceeded, wire.StatusDeadline, 0},
		{"canceled", context.Canceled, wire.StatusCanceled, 0},
		{"unknown vector", fmt.Errorf("%w: %q", ErrUnknownVector, "v"), wire.StatusNotFound, 0},
		{"bad request", badRequestf("nope"), wire.StatusBadRequest, 0},
		{"malformed frame", wire.ErrMalformed, wire.StatusBadRequest, 0},
		{"bad expression", fmt.Errorf("eval: %w", elp2im.ErrBadExpr), wire.StatusBadRequest, 0},
		{"query unknown namespace", fmt.Errorf("%w %q", errUnknownNamespace, "t"), wire.StatusBadRequest, 0},
		{"query unknown index", fmt.Errorf("%w %q in namespace %q", errUnknownIndex, "nx", "t"), wire.StatusBadRequest, 0},
		{"query temp budget", fmt.Errorf("%w: too deep", errQueryBudget), wire.StatusBadRequest, 0},
		{"query bad cursor", fmt.Errorf("%w: cursor 9", errBadCursor), wire.StatusBadRequest, 0},
		{"internal", errors.New("disk on fire"), wire.StatusInternal, 0},
	}
	for _, tc := range cases {
		code, retry := wireStatusFor(tc.err)
		if code != tc.code || retry != tc.retryMS {
			t.Errorf("%s: wireStatusFor = (%s, %d), want (%s, %d)",
				tc.name, wire.StatusName(code), retry, wire.StatusName(tc.code), tc.retryMS)
		}
	}
}

// TestWireDrainingStatus drives the drain path end to end over the wire:
// after Drain, operations answer StatusDraining with the backoff hint,
// exactly as the HTTP path answers 503 + Retry-After.
func TestWireDrainingStatus(t *testing.T) {
	acc, err := elp2im.New()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Accelerator: acc})
	if err != nil {
		t.Fatal(err)
	}
	wc := startWire(t, s)
	if err := wc.Put("a", 64, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := wc.Put("b", 64, []uint64{2}); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	_, err = wc.Op(wire.BitAnd, 0, "dst", "a", "b")
	var se *wire.StatusError
	if !errors.As(err, &se) {
		t.Fatalf("op after drain: %v (%T), want *StatusError", err, err)
	}
	if se.Code != wire.StatusDraining || se.RetryAfterMS != wireRetryAfterMS {
		t.Fatalf("op after drain: status %s retry %d, want draining/%d",
			wire.StatusName(se.Code), se.RetryAfterMS, wireRetryAfterMS)
	}
	// Reads still work while draining, like the HTTP path.
	if _, _, _, err := wc.Get("a", nil); err != nil {
		t.Fatalf("get after drain: %v", err)
	}
}

// TestWireDrainDeliversPendingResponses pins the graceful-shutdown
// contract with the frame writer in play: every request admitted
// before Drain must settle with a real answer (OK or an in-band wire
// status), never a truncated stream, even when CloseWireConns runs while
// responses are still queued in per-connection frame writers. The ops
// are all dispatched before Drain, so their responses complete and
// coalesce right as shutdown begins.
func TestWireDrainDeliversPendingResponses(t *testing.T) {
	acc, err := elp2im.New()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Accelerator: acc})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		if err := s.ServeWire(ln); err != nil {
			t.Errorf("ServeWire: %v", err)
		}
	}()
	wc, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	if err := wc.Put("a", 64, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := wc.Put("b", 64, []uint64{2}); err != nil {
		t.Fatal(err)
	}

	const ops = 48
	results := make(chan error, ops)
	for i := 0; i < ops; i++ {
		go func(i int) {
			_, err := wc.Op(wire.BitAnd, 0, fmt.Sprintf("d%d", i), "a", "b")
			results <- err
		}(i)
	}
	// Wait until every op has been dispatched into the backend (the two
	// puts also count), so all of them are admitted before shutdown.
	deadline := time.Now().Add(5 * time.Second)
	for s.obs.wire.requests.Value() < ops+2 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests dispatched", s.obs.wire.requests.Value(), ops+2)
		}
		time.Sleep(time.Millisecond)
	}

	// Shutdown sequence, exactly as elpd runs it: drain, stop accepting,
	// then end the surviving connections.
	s.Drain()
	_ = ln.Close()
	<-served
	s.CloseWireConns()

	for i := 0; i < ops; i++ {
		err := <-results
		if err == nil {
			continue
		}
		var se *wire.StatusError
		if !errors.As(err, &se) {
			t.Fatalf("admitted op settled with transport error %v (%T), want OK or in-band status", err, err)
		}
	}
}

// TestWireEvalBadExpression drives a malformed expression end to end
// over the wire: compilation fails server-side (elp2im.ErrBadExpr) and
// the client sees bad_request — the binary twin of /v1/eval's 400 —
// never internal.
func TestWireEvalBadExpression(t *testing.T) {
	acc, err := elp2im.New()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Accelerator: acc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)
	wc := startWire(t, s)
	if err := wc.Put("wx", 64, []uint64{3}); err != nil {
		t.Fatal(err)
	}
	_, _, err = wc.Eval(0, "wr", "wx &")
	var se *wire.StatusError
	if !errors.As(err, &se) || se.Code != wire.StatusBadRequest {
		t.Fatalf("malformed expression over wire: %v, want bad_request", err)
	}
}

// TestWirePutValidation pins the PUT contract across the wire: tail bits
// beyond the declared length are rejected (the JSON DecodeBits rule),
// and an empty word payload stores an all-zero vector.
func TestWirePutValidation(t *testing.T) {
	acc, err := elp2im.New()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Accelerator: acc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)
	wc := startWire(t, s)
	// 65 bits → 2 words; word 1 may only use bit 0.
	err = wc.Put("bad", 65, []uint64{0, 2})
	var se *wire.StatusError
	if !errors.As(err, &se) || se.Code != wire.StatusBadRequest {
		t.Fatalf("tail-bit put: %v, want bad_request", err)
	}
	if err := wc.Put("ok", 65, []uint64{^uint64(0), 1}); err != nil {
		t.Fatalf("legal tail put: %v", err)
	}
	if err := wc.Put("zeros", 100, nil); err != nil {
		t.Fatalf("zero put: %v", err)
	}
	bits, pop, _, err := wc.Get("zeros", nil)
	if err != nil || bits != 100 || pop != 0 {
		t.Fatalf("zero vector readback: bits=%d pop=%d err=%v", bits, pop, err)
	}
}

// TestWireBitOpTable pins the wire op codes onto the same facade ops the
// JSON op names parse to — the cross-protocol contract that makes
// BitAnd mean "and" forever.
func TestWireBitOpTable(t *testing.T) {
	codes := map[string]uint8{
		"not": wire.BitNot, "and": wire.BitAnd, "or": wire.BitOr,
		"nand": wire.BitNand, "nor": wire.BitNor, "xor": wire.BitXor,
		"xnor": wire.BitXnor, "copy": wire.BitCopy,
	}
	for name, code := range codes {
		want, err := parseOp(name)
		if err != nil {
			t.Fatalf("parseOp(%q): %v", name, err)
		}
		got, ok := bitOpFor(code)
		if !ok || got != want {
			t.Errorf("wire code %d maps to %v, JSON %q maps to %v", code, got, name, want)
		}
	}
	if _, ok := bitOpFor(8); ok {
		t.Error("bitOpFor(8) accepted an out-of-range code")
	}
}

// TestShardOfMatchesFNV pins the inlined placement hash to hash/fnv:
// the two must agree byte-for-byte on every name, or vectors stored by
// an old server would be homed differently by a new one.
func TestShardOfMatchesFNV(t *testing.T) {
	names := []string{"", "a", "v0", "vector-with-a-long-name", "日本語", "x/y/z"}
	for i := 0; i < 100; i++ {
		names = append(names, fmt.Sprintf("client-%d-vec-%d", i%7, i))
	}
	for _, name := range names {
		h := fnv.New64a()
		_, _ = h.Write([]byte(name))
		if got, want := fnv64aString(name), h.Sum64(); got != want {
			t.Fatalf("fnv64aString(%q) = %d, hash/fnv = %d", name, got, want)
		}
	}
	st := NewStore(4)
	for _, name := range names {
		h := fnv.New64a()
		_, _ = h.Write([]byte(name))
		if got, want := st.shardOf(name), int(h.Sum64()%4); got != want {
			t.Fatalf("shardOf(%q) = %d, want %d", name, got, want)
		}
	}
}

// BenchmarkWireOp measures one op round trip over the elpwire path —
// the number bench.sh's Part 4 compares against BenchmarkJSONOp.
func BenchmarkWireOp(b *testing.B) {
	acc, err := elp2im.New()
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Accelerator: acc})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Drain()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = s.ServeWire(ln) }()
	defer func() {
		_ = ln.Close()
		s.CloseWireConns()
	}()
	wc, err := wire.Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer wc.Close()
	words := make([]uint64, 64) // 4096 bits
	for i := range words {
		words[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	if err := wc.Put("x", 4096, words); err != nil {
		b.Fatal(err)
	}
	if err := wc.Put("y", 4096, words); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wc.Op(wire.BitAnd, 0, "dst", "x", "y"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJSONOp measures the same op round trip over the HTTP/JSON
// path, same server configuration, for the protocol comparison.
func BenchmarkJSONOp(b *testing.B) {
	acc, err := elp2im.New()
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Accelerator: acc})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()
	raw := make([]byte, 512) // 4096 bits
	for i := range raw {
		raw[i] = byte(i)
	}
	payload, _ := json.Marshal(VectorPayload{Bits: 4096, Data: base64.StdEncoding.EncodeToString(raw)})
	for _, name := range []string{"x", "y"} {
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/vectors/"+name, bytes.NewReader(payload))
		resp, err := client.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("PUT %s: %d", name, resp.StatusCode)
		}
	}
	body, _ := json.Marshal(OpRequest{Op: "and", Dst: "dst", X: "x", Y: "y"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(ts.URL+"/v1/op", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("op: %d", resp.StatusCode)
		}
	}
}
