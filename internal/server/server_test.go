package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	elp2im "repro"
	"repro/internal/wire"
)

// newTestServer builds a Server over a fresh default accelerator plus an
// httptest front end, draining both on cleanup.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	acc, err := elp2im.New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cfg := Config{Accelerator: acc}
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

// doJSON issues one JSON request and decodes the response body.
func doJSON(t *testing.T, client *http.Client, method, url string, body, out any) (int, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal body: %v", err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("unmarshal %s %s response %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode, resp.Header
}

// putRandom stores n random bytes (8n bits) under name and returns them.
func putRandom(t *testing.T, client *http.Client, base, name string, rng *rand.Rand, nbytes int) []byte {
	t.Helper()
	raw := make([]byte, nbytes)
	rng.Read(raw)
	payload := VectorPayload{Bits: nbytes * 8, Data: base64.StdEncoding.EncodeToString(raw)}
	code, _ := doJSON(t, client, http.MethodPut, base+"/v1/vectors/"+name, payload, nil)
	if code != http.StatusOK {
		t.Fatalf("PUT %s: status %d", name, code)
	}
	return raw
}

// fetchBytes reads a vector's contents back as raw bytes.
func fetchBytes(t *testing.T, client *http.Client, base, name string) []byte {
	t.Helper()
	var got VectorPayload
	code, _ := doJSON(t, client, http.MethodGet, base+"/v1/vectors/"+name, nil, &got)
	if code != http.StatusOK {
		t.Fatalf("GET %s: status %d", name, code)
	}
	raw, err := base64.StdEncoding.DecodeString(got.Data)
	if err != nil {
		t.Fatalf("GET %s: bad base64: %v", name, err)
	}
	return raw
}

// opBytes computes the expected result of a bitwise op on raw operand
// bytes (test lengths are byte-aligned, so no tail masking is needed).
func opBytes(op string, x, y []byte) []byte {
	out := make([]byte, len(x))
	for i := range x {
		switch op {
		case "and":
			out[i] = x[i] & y[i]
		case "or":
			out[i] = x[i] | y[i]
		case "xor":
			out[i] = x[i] ^ y[i]
		case "nand":
			out[i] = ^(x[i] & y[i])
		case "nor":
			out[i] = ^(x[i] | y[i])
		case "xnor":
			out[i] = ^(x[i] ^ y[i])
		case "not":
			out[i] = ^x[i]
		case "copy":
			out[i] = x[i]
		default:
			panic("opBytes: " + op)
		}
	}
	return out
}

func TestVectorCRUD(t *testing.T) {
	_, ts := newTestServer(t, nil)
	c := ts.Client()
	rng := rand.New(rand.NewSource(1))

	raw := putRandom(t, c, ts.URL, "crud.a", rng, 2048)
	if got := fetchBytes(t, c, ts.URL, "crud.a"); !bytes.Equal(got, raw) {
		t.Fatalf("round-trip mismatch: got %d bytes", len(got))
	}

	// Zero-fill PUT without data.
	code, _ := doJSON(t, c, http.MethodPut, ts.URL+"/v1/vectors/crud.z", VectorPayload{Bits: 128}, nil)
	if code != http.StatusOK {
		t.Fatalf("PUT zero vector: status %d", code)
	}
	var got VectorPayload
	code, _ = doJSON(t, c, http.MethodGet, ts.URL+"/v1/vectors/crud.z", nil, &got)
	if code != http.StatusOK || got.Bits != 128 || got.Popcount == nil || *got.Popcount != 0 {
		t.Fatalf("GET zero vector: status %d payload %+v", code, got)
	}

	var list ListResponse
	code, _ = doJSON(t, c, http.MethodGet, ts.URL+"/v1/vectors", nil, &list)
	if code != http.StatusOK || len(list.Vectors) != 2 {
		t.Fatalf("list: status %d, %d vectors", code, len(list.Vectors))
	}
	if list.Vectors[0].Name != "crud.a" || list.Vectors[1].Name != "crud.z" {
		t.Fatalf("list not sorted: %+v", list.Vectors)
	}

	code, _ = doJSON(t, c, http.MethodDelete, ts.URL+"/v1/vectors/crud.a", nil, nil)
	if code != http.StatusNoContent {
		t.Fatalf("DELETE: status %d", code)
	}
	code, _ = doJSON(t, c, http.MethodGet, ts.URL+"/v1/vectors/crud.a", nil, nil)
	if code != http.StatusNotFound {
		t.Fatalf("GET deleted: status %d, want 404", code)
	}
	code, _ = doJSON(t, c, http.MethodDelete, ts.URL+"/v1/vectors/crud.a", nil, nil)
	if code != http.StatusNotFound {
		t.Fatalf("DELETE missing: status %d, want 404", code)
	}
}

// TestPutBitsBound pins the vector-length bound on both protocols: a
// PUT declaring more than wire.MaxBits bits answers 400 and stores
// nothing — over JSON a data-less PUT would otherwise allocate whatever
// it declares, so a 2^40-bit request killed the process.
func TestPutBitsBound(t *testing.T) {
	s, ts := newTestServer(t, nil)
	wc := startWire(t, s)
	c := ts.Client()
	for _, bits := range []int{wire.MaxBits + 1, 1 << 31, 1 << 40} {
		name := fmt.Sprintf("huge%d", bits)
		code, _ := doJSON(t, c, http.MethodPut, ts.URL+"/v1/vectors/"+name, VectorPayload{Bits: bits}, nil)
		if code != http.StatusBadRequest {
			t.Errorf("json PUT of %d bits: status %d, want 400", bits, code)
		}
		if code, _ := doJSON(t, c, http.MethodGet, ts.URL+"/v1/vectors/"+name, nil, nil); code != http.StatusNotFound {
			t.Errorf("json PUT of %d bits stored a vector: GET status %d, want 404", bits, code)
		}
	}
	var se *wire.StatusError
	if err := wc.Put("huge", wire.MaxBits+1, nil); !errors.As(err, &se) || se.Code != wire.StatusBadRequest {
		t.Errorf("wire Put of %d bits: %v, want bad_request", wire.MaxBits+1, err)
	}
	if _, _, _, err := wc.Get("huge", nil); !errors.As(err, &se) || se.Code != wire.StatusNotFound {
		t.Errorf("wire Put of %d bits stored a vector: Get %v, want not_found", wire.MaxBits+1, err)
	}
	if n := s.store.size(); n != 0 {
		t.Fatalf("store holds %d vectors after refused PUTs, want 0", n)
	}
}

func TestOpReduceEvalCorrectness(t *testing.T) {
	_, ts := newTestServer(t, nil)
	c := ts.Client()
	rng := rand.New(rand.NewSource(2))
	const nbytes = 2048 // 16384 bits = 2 stripes on the default module

	a := putRandom(t, c, ts.URL, "w.a", rng, nbytes)
	b := putRandom(t, c, ts.URL, "w.b", rng, nbytes)
	d := putRandom(t, c, ts.URL, "w.d", rng, nbytes)

	for _, op := range []string{"and", "or", "xor", "nand", "nor", "xnor", "not", "copy"} {
		var resp OpResponse
		code, _ := doJSON(t, c, http.MethodPost, ts.URL+"/v1/op",
			OpRequest{Op: op, Dst: "w.r", X: "w.a", Y: "w.b"}, &resp)
		if code != http.StatusOK {
			t.Fatalf("op %s: status %d", op, code)
		}
		if resp.Stats.LatencyNS <= 0 || resp.Stats.RowOps <= 0 {
			t.Fatalf("op %s: implausible stats %+v", op, resp.Stats)
		}
		if got, want := fetchBytes(t, c, ts.URL, "w.r"), opBytes(op, a, b); !bytes.Equal(got, want) {
			t.Fatalf("op %s: wrong result", op)
		}
	}

	var resp OpResponse
	code, _ := doJSON(t, c, http.MethodPost, ts.URL+"/v1/reduce",
		ReduceRequest{Op: "and", Dst: "w.red", Srcs: []string{"w.a", "w.b", "w.d"}}, &resp)
	if code != http.StatusOK {
		t.Fatalf("reduce: status %d", code)
	}
	want := opBytes("and", opBytes("and", a, b), d)
	if got := fetchBytes(t, c, ts.URL, "w.red"); !bytes.Equal(got, want) {
		t.Fatal("reduce: wrong result")
	}

	// Expression identifiers are [letter_][letter digit _]*, so the eval
	// operands use underscore names.
	putAlias := func(alias string, raw []byte) {
		payload := VectorPayload{Bits: len(raw) * 8, Data: base64.StdEncoding.EncodeToString(raw)}
		code, _ := doJSON(t, c, http.MethodPut, ts.URL+"/v1/vectors/"+alias, payload, nil)
		if code != http.StatusOK {
			t.Fatalf("PUT %s: status %d", alias, code)
		}
	}
	putAlias("w_a", a)
	putAlias("w_b", b)
	putAlias("w_d", d)
	code, _ = doJSON(t, c, http.MethodPost, ts.URL+"/v1/eval",
		EvalRequest{Expr: "(w_a & ~w_b) | w_d", Dst: "w.ev"}, &resp)
	if code != http.StatusOK {
		t.Fatalf("eval: status %d", code)
	}
	wantEval := opBytes("or", opBytes("and", a, opBytes("not", b, nil)), d)
	if got := fetchBytes(t, c, ts.URL, "w.ev"); !bytes.Equal(got, wantEval) {
		t.Fatal("eval: wrong result")
	}
	if resp.Bits != nbytes*8 {
		t.Fatalf("eval: bits %d, want %d", resp.Bits, nbytes*8)
	}
}

// TestConcurrentMixedWorkload is the acceptance scenario at test scale:
// 64 concurrent clients on mixed AND/OR/XOR + Reduce, with client-side
// result verification.
func TestConcurrentMixedWorkload(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.RequestTimeout = time.Minute })
	c := ts.Client()
	const clients = 64
	const opsPerClient = 6
	const nbytes = 1024

	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + i)))
			pfx := fmt.Sprintf("c%02d.", i)
			a := putRandom(t, c, ts.URL, pfx+"a", rng, nbytes)
			b := putRandom(t, c, ts.URL, pfx+"b", rng, nbytes)
			d := putRandom(t, c, ts.URL, pfx+"d", rng, nbytes)
			ops := []string{"and", "or", "xor", "reduce"}
			for k := 0; k < opsPerClient; k++ {
				op := ops[k%len(ops)]
				var code int
				var want []byte
				if op == "reduce" {
					code, _ = doJSON(t, c, http.MethodPost, ts.URL+"/v1/reduce",
						ReduceRequest{Op: "or", Dst: pfx + "r", Srcs: []string{pfx + "a", pfx + "b", pfx + "d"}}, nil)
					want = opBytes("or", opBytes("or", a, b), d)
				} else {
					code, _ = doJSON(t, c, http.MethodPost, ts.URL+"/v1/op",
						OpRequest{Op: op, Dst: pfx + "r", X: pfx + "a", Y: pfx + "b"}, nil)
					want = opBytes(op, a, b)
				}
				if code != http.StatusOK {
					errCh <- fmt.Errorf("client %d %s: status %d", i, op, code)
					return
				}
				if got := fetchBytes(t, c, ts.URL, pfx+"r"); !bytes.Equal(got, want) {
					errCh <- fmt.Errorf("client %d %s: wrong result", i, op)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	st := s.Stats()
	if want := int64(clients * opsPerClient); st.Server.BatchesFlushed != want {
		t.Fatalf("%d ops executed, want %d", st.Server.BatchesFlushed, want)
	}
	if st.Totals.LatencyNS <= 0 {
		t.Error("accelerator totals did not accumulate")
	}
}

// TestBackpressure503 pins the in-flight bound: with MaxQueue 1 and one
// request stalled on a held entry lock, the next request is refused with
// 503 + Retry-After at once, and the stalled one completes normally when
// the lock is released.
func TestBackpressure503(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.MaxQueue = 1
		c.RequestTimeout = time.Minute
	})
	c := ts.Client()
	rng := rand.New(rand.NewSource(3))
	putRandom(t, c, ts.URL, "bp.a", rng, 256)
	putRandom(t, c, ts.URL, "bp.b", rng, 256)

	release := holdEntry(t, s, "bp.a")
	codeCh := make(chan int, 1)
	go func() {
		codeCh <- postStatus(c, ts.URL+"/v1/op", OpRequest{Op: "and", Dst: "bp.r0", X: "bp.a", Y: "bp.b"})
	}()
	waitInFlight(t, s.gates[0], 1)

	code, hdr := doJSON(t, c, http.MethodPost, ts.URL+"/v1/op",
		OpRequest{Op: "or", Dst: "bp.r1", X: "bp.b", Y: "bp.b"}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("request past the in-flight bound: status %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("503 without Retry-After header")
	}
	if got := s.Stats().Server.Rejected; got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
	release()
	if code := <-codeCh; code != http.StatusOK {
		t.Fatalf("stalled request: status %d, want 200", code)
	}
	// The slot is free again.
	code, _ = doJSON(t, c, http.MethodPost, ts.URL+"/v1/op",
		OpRequest{Op: "or", Dst: "bp.r1", X: "bp.b", Y: "bp.b"}, nil)
	if code != http.StatusOK {
		t.Fatalf("request after the stall cleared: status %d, want 200", code)
	}
}

func TestPanicIsolation(t *testing.T) {
	s, _ := newTestServer(t, nil)
	h := s.wrap("op", func(http.ResponseWriter, *http.Request) error {
		panic("boom")
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodPost, "/v1/op", strings.NewReader("{}")))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", rec.Code)
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
		t.Fatalf("panicking handler: body %q", rec.Body.String())
	}
	if got := s.obs.panics.Value(); got != 1 {
		t.Fatalf("server.panics = %d, want 1", got)
	}
}

// TestStatusClassification pins the 4xx/5xx split: length mismatches and
// malformed input are client faults (400), while a panic after the
// response is committed must not append a second status/body.
func TestStatusClassification(t *testing.T) {
	_, ts := newTestServer(t, nil)
	c := ts.Client()
	rng := rand.New(rand.NewSource(6))
	putRandom(t, c, ts.URL, "sc.a", rng, 256)
	putRandom(t, c, ts.URL, "sc.b", rng, 512)

	code, _ := doJSON(t, c, http.MethodPost, ts.URL+"/v1/op",
		OpRequest{Op: "and", Dst: "sc.r", X: "sc.a", Y: "sc.b"}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("length-mismatched op: status %d, want 400", code)
	}
	code, _ = doJSON(t, c, http.MethodGet, ts.URL+"/v1/vectors/sc.r", nil, nil)
	if code != http.StatusNotFound {
		t.Fatalf("dst of failed op: status %d, want 404 (no spurious vector)", code)
	}
	code, _ = doJSON(t, c, http.MethodPost, ts.URL+"/v1/op",
		OpRequest{Op: "mux", Dst: "sc.r", X: "sc.a", Y: "sc.b"}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown op: status %d, want 400", code)
	}
	code, _ = doJSON(t, c, http.MethodPost, ts.URL+"/v1/eval",
		EvalRequest{Expr: "sc_a &", Dst: "sc.r"}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("malformed expression: status %d, want 400", code)
	}
}

// TestPanicAfterCommitDoesNotRewrite verifies that wrap's recovery path
// leaves an already committed response alone instead of appending a
// superfluous 500 header and a second JSON body.
func TestPanicAfterCommitDoesNotRewrite(t *testing.T) {
	s, _ := newTestServer(t, nil)
	h := s.wrap("op", func(w http.ResponseWriter, _ *http.Request) error {
		_ = writeJSON(w, healthPayload{Status: "ok"})
		panic("late boom")
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodPost, "/v1/op", strings.NewReader("{}")))
	if rec.Code != http.StatusOK {
		t.Fatalf("committed-then-panic: status %d, want the committed 200", rec.Code)
	}
	var hp healthPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &hp); err != nil || hp.Status != "ok" {
		t.Fatalf("committed-then-panic: body %q corrupted", rec.Body.String())
	}
	if got := s.obs.panics.Value(); got != 1 {
		t.Fatalf("server.panics = %d, want 1", got)
	}
}

func TestHealthAndDrain(t *testing.T) {
	s, ts := newTestServer(t, nil)
	c := ts.Client()
	var hp healthPayload
	code, _ := doJSON(t, c, http.MethodGet, ts.URL+"/healthz", nil, &hp)
	if code != http.StatusOK || hp.Status != "ok" {
		t.Fatalf("healthz: %d %+v", code, hp)
	}

	s.Drain()
	code, _ = doJSON(t, c, http.MethodGet, ts.URL+"/healthz", nil, &hp)
	if code != http.StatusOK || hp.Status != "draining" {
		t.Fatalf("healthz while draining: %d %+v", code, hp)
	}
	rng := rand.New(rand.NewSource(5))
	putRandom(t, c, ts.URL, "dr.a", rng, 64)
	code, hdr := doJSON(t, c, http.MethodPost, ts.URL+"/v1/op",
		OpRequest{Op: "not", Dst: "dr.r", X: "dr.a"}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("op while draining: status %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("draining 503 without Retry-After")
	}
}

func TestUnknownOperandIs404(t *testing.T) {
	_, ts := newTestServer(t, nil)
	c := ts.Client()
	code, _ := doJSON(t, c, http.MethodPost, ts.URL+"/v1/op",
		OpRequest{Op: "and", Dst: "nx.r", X: "nx.a", Y: "nx.b"}, nil)
	if code != http.StatusNotFound {
		t.Fatalf("op on unknown vectors: status %d, want 404", code)
	}
}

func TestRouteMetricsRegistered(t *testing.T) {
	s, ts := newTestServer(t, nil)
	c := ts.Client()
	code, _ := doJSON(t, c, http.MethodGet, ts.URL+"/healthz", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	snap := s.cfg.Accelerator.Snapshot()
	for _, name := range sortedRouteNames() {
		if _, ok := snap.Counters["server.http.requests."+name]; !ok {
			t.Errorf("route series server.http.requests.%s missing from accelerator snapshot", name)
		}
	}
	if snap.Counter("server.http.requests.health") == 0 {
		t.Error("health route counter did not move")
	}
}

// TestHTTPServerTimeouts pins the slowloris bounds of the http.Server
// elpd and elpload serve with: a header-read timeout and an idle
// keep-alive timeout. With the header timeout shortened, a client that
// never finishes its request header is disconnected instead of holding
// its connection open.
func TestHTTPServerTimeouts(t *testing.T) {
	s, _ := newTestServer(t, nil)
	hs := s.HTTPServer()
	if hs.ReadHeaderTimeout != httpReadHeaderTimeout || hs.ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", hs.ReadHeaderTimeout, httpReadHeaderTimeout)
	}
	if hs.IdleTimeout != httpIdleTimeout || hs.IdleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v, want %v", hs.IdleTimeout, httpIdleTimeout)
	}

	hs.ReadHeaderTimeout = 50 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: elpd\r\n")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("half-sent header: connection not closed by the server (%v)", err)
	}
}
