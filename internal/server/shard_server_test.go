package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	elp2im "repro"
)

// newShardedTestServer builds a Server over a fresh shard deployment of the
// given width plus an httptest front end, draining both on cleanup.
func newShardedTestServer(t *testing.T, shards int, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	sh, err := elp2im.NewShard(shards)
	if err != nil {
		t.Fatalf("NewShard(%d): %v", shards, err)
	}
	cfg := Config{Shard: sh}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	return s, ts
}

// TestErrorStatusContract pins the full sentinel-error → (status, headers)
// mapping of the serving layer in one table. Every entry is exercised
// through wrap + writeError — the exact path a handler error takes — so a
// regression in either statusFor's classification or writeError's
// Retry-After attachment (the bug class where ErrDraining answered 503
// without the backoff hint ErrSaturated carried) fails here by name.
func TestErrorStatusContract(t *testing.T) {
	s, _ := newTestServer(t, nil)
	_, badExpr := elp2im.CompileExpr("a & (")
	if badExpr == nil {
		t.Fatal("CompileExpr accepted a malformed expression")
	}
	cases := []struct {
		name       string
		err        error
		status     int
		retryAfter bool
	}{
		{"saturated", ErrSaturated, http.StatusServiceUnavailable, true},
		{"draining", ErrDraining, http.StatusServiceUnavailable, true},
		{"draining wrapped", fmt.Errorf("admit: %w", ErrDraining), http.StatusServiceUnavailable, true},
		{"saturated wrapped", fmt.Errorf("admit: %w", ErrSaturated), http.StatusServiceUnavailable, true},
		{"deadline", context.DeadlineExceeded, http.StatusGatewayTimeout, false},
		{"deadline wrapped", fmt.Errorf("queued: %w", context.DeadlineExceeded), http.StatusGatewayTimeout, false},
		{"canceled", context.Canceled, 499, false},
		{"unknown vector", fmt.Errorf("%w: %q", ErrUnknownVector, "nx"), http.StatusNotFound, false},
		{"bad request", badRequestf("server: bits must be positive"), http.StatusBadRequest, false},
		{"bad request wrapped", fmt.Errorf("decode: %w", badRequestf("bad body")), http.StatusBadRequest, false},
		{"bad expression", badExpr, http.StatusBadRequest, false},
		{"bad expression wrapped", fmt.Errorf("eval: %w", badExpr), http.StatusBadRequest, false},
		{"query unknown namespace", fmt.Errorf("%w %q", errUnknownNamespace, "tenants"), http.StatusBadRequest, false},
		{"query unknown index", fmt.Errorf("%w %q in namespace %q", errUnknownIndex, "nx", "t"), http.StatusBadRequest, false},
		{"query temp budget", fmt.Errorf("%w: predicate needs 40 rows", errQueryBudget), http.StatusBadRequest, false},
		{"query bad cursor", fmt.Errorf("%w: cursor 9 beyond universe 8", errBadCursor), http.StatusBadRequest, false},
		{"unrecognized", errors.New("server: disk on fire"), http.StatusInternalServerError, false},
	}
	// Every query sentinel must have a row above: a new sentinel cannot
	// land without extending the contract table.
	for _, sentinel := range queryStatusSentinels {
		found := false
		for _, tc := range cases {
			if errors.Is(tc.err, sentinel) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("query sentinel %v has no contract row", sentinel)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := statusFor(tc.err); got != tc.status {
				t.Fatalf("statusFor(%v) = %d, want %d", tc.err, got, tc.status)
			}
			h := s.wrap("op", func(http.ResponseWriter, *http.Request) error {
				return tc.err
			})
			rec := httptest.NewRecorder()
			h(rec, httptest.NewRequest(http.MethodPost, "/v1/op", strings.NewReader("{}")))
			if rec.Code != tc.status {
				t.Fatalf("rendered status %d, want %d", rec.Code, tc.status)
			}
			if got := rec.Header().Get("Retry-After") != ""; got != tc.retryAfter {
				t.Fatalf("Retry-After present = %v, want %v", got, tc.retryAfter)
			}
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Fatalf("error body %q not a JSON ErrorResponse", rec.Body.String())
			}
			if !strings.Contains(er.Error, tc.err.Error()) {
				t.Fatalf("error body %q lost the cause %q", er.Error, tc.err)
			}
		})
	}
}

// TestServerConfigValidation pins New's exactly-one-backend contract.
func TestServerConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with neither Accelerator nor Shard must fail")
	}
	acc, err := elp2im.New()
	if err != nil {
		t.Fatal(err)
	}
	sh, err := elp2im.NewShard(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Accelerator: acc, Shard: sh}); err == nil {
		t.Fatal("New with both Accelerator and Shard must fail")
	}
}

// shardHomedName returns a vector name with the given prefix homed on the
// wanted shard, by probing the store's deterministic placement.
func shardHomedName(t *testing.T, s *Server, prefix string, shard int) string {
	t.Helper()
	for i := 0; i < 4096; i++ {
		name := fmt.Sprintf("%s%d", prefix, i)
		if s.store.shardOf(name) == shard {
			return name
		}
	}
	t.Fatalf("no %q-prefixed name homed on shard %d in 4096 probes", prefix, shard)
	return ""
}

// TestShardedServerEndToEnd drives the same op/reduce/eval workload
// through a single-module server and sharded ones of several widths over
// HTTP, requiring byte-identical results, identical modeled totals, and
// placement-consistent listings.
func TestShardedServerEndToEnd(t *testing.T) {
	const nbytes = 2048
	type result struct {
		vecs   map[string][]byte
		totals StatsJSON
	}
	workload := func(t *testing.T, s *Server, ts *httptest.Server) result {
		c := ts.Client()
		rng := rand.New(rand.NewSource(77))
		a := putRandom(t, c, ts.URL, "e2e_a", rng, nbytes)
		b := putRandom(t, c, ts.URL, "e2e_b", rng, nbytes)
		d := putRandom(t, c, ts.URL, "e2e_d", rng, nbytes)
		want := map[string][]byte{"e2e_a": a, "e2e_b": b, "e2e_d": d}
		for i, op := range []string{"and", "xor", "nor", "not"} {
			dst := fmt.Sprintf("e2e_r%d", i)
			req := OpRequest{Op: op, Dst: dst, X: "e2e_a", Y: "e2e_b"}
			if op == "not" {
				req.Y = ""
			}
			code, _ := doJSON(t, c, http.MethodPost, ts.URL+"/v1/op", req, nil)
			if code != http.StatusOK {
				t.Fatalf("op %s: status %d", op, code)
			}
			want[dst] = opBytes(op, a, b)
		}
		code, _ := doJSON(t, c, http.MethodPost, ts.URL+"/v1/reduce",
			ReduceRequest{Op: "or", Dst: "e2e_red", Srcs: []string{"e2e_a", "e2e_b", "e2e_d"}}, nil)
		if code != http.StatusOK {
			t.Fatalf("reduce: status %d", code)
		}
		want["e2e_red"] = opBytes("or", opBytes("or", a, b), d)
		code, _ = doJSON(t, c, http.MethodPost, ts.URL+"/v1/eval",
			EvalRequest{Expr: "(e2e_a ^ e2e_b) & ~e2e_d", Dst: "e2e_ev"}, nil)
		if code != http.StatusOK {
			t.Fatalf("eval: status %d", code)
		}
		want["e2e_ev"] = opBytes("and", opBytes("xor", a, b), opBytes("not", d, nil))

		got := make(map[string][]byte, len(want))
		for name := range want {
			got[name] = fetchBytes(t, c, ts.URL, name)
		}
		return result{vecs: got, totals: s.Stats().Totals}
	}

	sSingle, tsSingle := newTestServer(t, nil)
	base := workload(t, sSingle, tsSingle)

	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, ts := newShardedTestServer(t, shards, nil)
			got := workload(t, s, ts)
			for name, want := range base.vecs {
				if !bytes.Equal(got.vecs[name], want) {
					t.Errorf("vector %s diverges from single-module baseline", name)
				}
			}
			// The op/command/wordline counts must match exactly; the modeled
			// float totals are sums over per-shard accelerators whose addition
			// order depends on the placement, so they are compared within a few
			// ULPs rather than bit-for-bit.
			if got.totals.RowOps != base.totals.RowOps ||
				got.totals.Commands != base.totals.Commands ||
				got.totals.Wordlines != base.totals.Wordlines {
				t.Errorf("modeled counts %+v != single-module baseline %+v", got.totals, base.totals)
			}
			almost := func(a, b float64) bool {
				diff := a - b
				if diff < 0 {
					diff = -diff
				}
				scale := b
				if scale < 0 {
					scale = -scale
				}
				return diff <= 1e-12*scale
			}
			if !almost(got.totals.LatencyNS, base.totals.LatencyNS) ||
				!almost(got.totals.EnergyNJ, base.totals.EnergyNJ) ||
				!almost(got.totals.AveragePowerW, base.totals.AveragePowerW) {
				t.Errorf("modeled totals %+v drifted from single-module baseline %+v", got.totals, base.totals)
			}

			// Listing reports each vector's true home shard and the per-shard
			// vector counts in Stats add back up to the total.
			var list ListResponse
			code, _ := doJSON(t, ts.Client(), http.MethodGet, ts.URL+"/v1/vectors", nil, &list)
			if code != http.StatusOK {
				t.Fatalf("list: status %d", code)
			}
			for _, vi := range list.Vectors {
				if want := s.store.shardOf(vi.Name); vi.Shard != want {
					t.Errorf("list reports %s on shard %d, placement says %d", vi.Name, vi.Shard, want)
				}
			}
			st := s.Stats()
			if st.Server.Shards != shards {
				t.Errorf("Stats.Server.Shards = %d, want %d", st.Server.Shards, shards)
			}
			if shards == 1 {
				if st.Server.PerShard != nil {
					t.Error("single-shard server must not report PerShard")
				}
				return
			}
			if len(st.Server.PerShard) != shards {
				t.Fatalf("PerShard has %d entries, want %d", len(st.Server.PerShard), shards)
			}
			var vecs int
			var busy, flushes, coalesced int64
			for i, ss := range st.Server.PerShard {
				if ss.Shard != i {
					t.Errorf("PerShard[%d].Shard = %d", i, ss.Shard)
				}
				vecs += ss.Vectors
				busy += int64(ss.ModeledBusyNS)
				flushes += ss.BatchesFlushed
				coalesced += ss.RequestsCoalesced
			}
			if vecs != st.Server.Vectors {
				t.Errorf("per-shard vectors sum to %d, total says %d", vecs, st.Server.Vectors)
			}
			if busy <= 0 {
				t.Error("no shard accumulated modeled busy time")
			}
			if flushes != st.Server.BatchesFlushed || coalesced != st.Server.RequestsCoalesced {
				t.Errorf("per-shard flush counters (%d, %d) disagree with aggregate (%d, %d)",
					flushes, coalesced, st.Server.BatchesFlushed, st.Server.RequestsCoalesced)
			}
		})
	}
}

// TestShardedStatsPayload pins the per_shard JSON key set (the flat
// sections are pinned by TestStatsPayloadRoundTrip on a single-module
// server, where per_shard must be absent).
func TestShardedStatsPayload(t *testing.T) {
	_, ts := newShardedTestServer(t, 2, nil)
	c := ts.Client()
	rng := rand.New(rand.NewSource(30))
	putRandom(t, c, ts.URL, "sp.a", rng, 256)
	putRandom(t, c, ts.URL, "sp.b", rng, 256)
	code, _ := doJSON(t, c, http.MethodPost, ts.URL+"/v1/op",
		OpRequest{Op: "and", Dst: "sp.r", X: "sp.a", Y: "sp.b"}, nil)
	if code != http.StatusOK {
		t.Fatalf("op: status %d", code)
	}
	resp, err := c.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	defer resp.Body.Close()
	var tree map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&tree); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	var server map[string]json.RawMessage
	if err := json.Unmarshal(tree["server"], &server); err != nil {
		t.Fatalf("unmarshal server: %v", err)
	}
	var perShard []map[string]json.RawMessage
	if err := json.Unmarshal(server["per_shard"], &perShard); err != nil {
		t.Fatalf("unmarshal per_shard: %v", err)
	}
	if len(perShard) != 2 {
		t.Fatalf("per_shard has %d entries, want 2", len(perShard))
	}
	for i, ss := range perShard {
		assertKeys(t, fmt.Sprintf("per_shard[%d]", i), ss, []string{
			"shard", "queue_depth", "rejected", "deadline_expired",
			"batches_flushed", "requests_coalesced", "vectors", "draining",
			"modeled_busy_ns",
		})
	}
}

// TestShardedMetricNames checks the per-shard series registration: every
// server registers server.shard.<i>.* for each of its shards (visible in
// the deployment's merged snapshot) — a single-module server and a
// 1-shard deployment as shard 0 — and no flat server.queue.* names,
// which would double-count.
func TestShardedMetricNames(t *testing.T) {
	check := func(name string, shards int, snap elp2im.MetricsSnapshot) {
		t.Helper()
		for i := 0; i < shards; i++ {
			gauge := fmt.Sprintf("server.shard.%d.queue.max", i)
			if _, ok := snap.Gauges[gauge]; !ok {
				t.Errorf("%s: gauge %s missing from snapshot", name, gauge)
			}
		}
		if _, ok := snap.Gauges["server.queue.max"]; ok {
			t.Errorf("%s: server registered the flat server.queue.max gauge", name)
		}
		if _, ok := snap.Counters["server.http.requests.op"]; !ok {
			t.Errorf("%s: route counters missing from snapshot", name)
		}
	}
	single, _ := newTestServer(t, nil)
	check("single-module", 1, single.cfg.Accelerator.Snapshot())
	for _, n := range []int{1, 3} {
		s, ts := newShardedTestServer(t, n, nil)
		c := ts.Client()
		rng := rand.New(rand.NewSource(31))
		putRandom(t, c, ts.URL, "mn.a", rng, 128)
		code, _ := doJSON(t, c, http.MethodPost, ts.URL+"/v1/op",
			OpRequest{Op: "not", Dst: "mn.r", X: "mn.a"}, nil)
		if code != http.StatusOK {
			t.Fatalf("%d shards: op: status %d", n, code)
		}
		check(fmt.Sprintf("%d-shard", n), n, s.cfg.Shard.Snapshot())
	}
}

// TestShardSaturation503Isolation is the sharded server's failure
// isolation at test scale: with MaxQueue 1, a request stalled on a held
// entry lock fills shard 0, so the next shard-0 request answers 503 +
// Retry-After while shard 1 keeps serving — and only the hot shard's
// rejected counter moves.
func TestShardSaturation503Isolation(t *testing.T) {
	s, ts := newShardedTestServer(t, 2, func(c *Config) {
		c.MaxQueue = 1
		c.RequestTimeout = time.Minute
	})
	c := ts.Client()
	rng := rand.New(rand.NewSource(32))
	putRandom(t, c, ts.URL, "iso.x", rng, 256)
	putRandom(t, c, ts.URL, "iso.y", rng, 256)
	putRandom(t, c, ts.URL, "iso.z", rng, 256)

	// Destinations on each side of the placement: requests execute on the
	// destination's home shard regardless of where the operands live.
	hot0 := shardHomedName(t, s, "iso.h0.", 0)
	hot1 := shardHomedName(t, s, "iso.h1.", 0)
	cold := shardHomedName(t, s, "iso.c", 1)

	release := holdEntry(t, s, "iso.x")
	stalled := make(chan int, 1)
	go func() {
		stalled <- postStatus(c, ts.URL+"/v1/op", OpRequest{Op: "and", Dst: hot0, X: "iso.x", Y: "iso.y"})
	}()
	waitInFlight(t, s.gates[0], 1)

	code, hdr := doJSON(t, c, http.MethodPost, ts.URL+"/v1/op",
		OpRequest{Op: "and", Dst: hot1, X: "iso.y", Y: "iso.z"}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("second hot-shard request: status %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("hot-shard 503 without Retry-After")
	}
	coldCode, _ := doJSON(t, c, http.MethodPost, ts.URL+"/v1/op",
		OpRequest{Op: "or", Dst: cold, X: "iso.y", Y: "iso.z"}, nil)
	if coldCode != http.StatusOK {
		t.Fatalf("op on the cold shard: status %d, want 200", coldCode)
	}
	release()
	if code := <-stalled; code != http.StatusOK {
		t.Fatalf("stalled hot-shard request: status %d, want 200", code)
	}

	st := s.Stats()
	if got := st.Server.PerShard[0].Rejected; got != 1 {
		t.Errorf("hot shard rejected %d requests, want 1", got)
	}
	if got := st.Server.PerShard[1].Rejected; got != 0 {
		t.Errorf("cold shard rejected %d requests, want 0", got)
	}
}

// TestShardedDrain checks instance-wide drain on a sharded server: every
// shard refuses new work with 503 + Retry-After and /healthz flips to
// draining when any shard drains.
func TestShardedDrain(t *testing.T) {
	s, ts := newShardedTestServer(t, 2, nil)
	c := ts.Client()
	rng := rand.New(rand.NewSource(33))
	putRandom(t, c, ts.URL, "sd.a", rng, 64)
	s.Drain()

	var hp healthPayload
	code, _ := doJSON(t, c, http.MethodGet, ts.URL+"/healthz", nil, &hp)
	if code != http.StatusOK || hp.Status != "draining" {
		t.Fatalf("healthz while draining: %d %+v", code, hp)
	}
	for _, shard := range []int{0, 1} {
		dst := shardHomedName(t, s, fmt.Sprintf("sd.d%d.", shard), shard)
		code, hdr := doJSON(t, c, http.MethodPost, ts.URL+"/v1/op",
			OpRequest{Op: "not", Dst: dst, X: "sd.a"}, nil)
		if code != http.StatusServiceUnavailable {
			t.Errorf("op on shard %d while draining: status %d, want 503", shard, code)
		}
		if hdr.Get("Retry-After") == "" {
			t.Errorf("shard %d draining 503 without Retry-After", shard)
		}
	}
	st := s.Stats()
	if !st.Server.Draining {
		t.Error("Stats does not report draining")
	}
	for i, ss := range st.Server.PerShard {
		if !ss.Draining {
			t.Errorf("PerShard[%d] not draining after instance drain", i)
		}
	}
}
