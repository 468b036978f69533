package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/vertical"
)

// reqEqual compares two decoded requests, treating nil and empty Srcs as
// the same (reset keeps the backing array).
func reqEqual(a, b *Request) bool {
	if a.ID != b.ID || a.Kind != b.Kind || a.Op != b.Op || a.TimeoutMS != b.TimeoutMS {
		return false
	}
	if a.Name != b.Name || a.Dst != b.Dst || a.X != b.X || a.Y != b.Y || a.Expr != b.Expr {
		return false
	}
	if a.Bits != b.Bits || string(a.WordData) != string(b.WordData) {
		return false
	}
	if a.Mode != b.Mode || a.Cursor != b.Cursor || a.Limit != b.Limit {
		return false
	}
	if len(a.Srcs) != len(b.Srcs) {
		return false
	}
	for i := range a.Srcs {
		if a.Srcs[i] != b.Srcs[i] {
			return false
		}
	}
	return true
}

// seedFrames returns one well-formed frame body (everything after the
// length word) per request kind — the decode fixtures and the fuzz seed
// corpus source.
func seedFrames() map[string][]byte {
	frames := map[string][]byte{
		"ping":   AppendPingRequest(nil, 1),
		"put":    AppendPutRequest(nil, 2, "v0", 130, []uint64{^uint64(0), ^uint64(0), 3}),
		"putz":   AppendPutRequest(nil, 3, "zeros", 64, nil),
		"get":    AppendGetRequest(nil, 4, "v0"),
		"delete": AppendDeleteRequest(nil, 5, "v0"),
		"op":     AppendOpRequest(nil, 6, BitAnd, 0, "dst", "x", "y"),
		"opnot":  AppendOpRequest(nil, 7, BitNot, 250, "dst", "x", ""),
		"reduce": AppendReduceRequest(nil, 8, BitOr, 0, "dst", []string{"a", "b", "c"}),
		"eval":   AppendEvalRequest(nil, 9, 0, "dst", "(a & b) | ~c"),
		"stats":  AppendStatsRequest(nil, 10),
		"arith":  AppendArithRequest(nil, 11, ArithAdd, 0, "z", "a", "b", ""),
		"arithm": AppendArithRequest(nil, 12, ArithSelect, 100, "z", "a", "b", "m"),
		"pvert":  AppendPutVertRequest(nil, 13, "v", 8, []uint64{5, 250, 77}),
		"gvert":  AppendGetVertRequest(nil, 14, "v"),
		"query":  AppendQueryRequest(nil, 15, 0, "ns", "(a & b) | ~c", QueryCount, 0, 0),
		"queryp": AppendQueryRequest(nil, 16, 250, "ns", "a ^ b", QueryPositions, 4096, 128),
	}
	for k, f := range frames {
		frames[k] = f[frameLenSize:] // DecodeRequest takes the body only
	}
	return frames
}

func TestDecodeRequestRoundTrip(t *testing.T) {
	for name, body := range seedFrames() {
		var req Request
		if err := DecodeRequest(body, &req, nil); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		re := EncodeRequest(nil, &req)
		if string(re[frameLenSize:]) != string(body) {
			t.Fatalf("%s: re-encode mismatch\n got %x\nwant %x", name, re[frameLenSize:], body)
		}
		var req2 Request
		if err := DecodeRequest(re[frameLenSize:], &req2, nil); err != nil {
			t.Fatalf("%s: re-decode: %v", name, err)
		}
		if !reqEqual(&req, &req2) {
			t.Fatalf("%s: round trip changed request: %+v vs %+v", name, req, req2)
		}
	}
}

func TestDecodeRequestFields(t *testing.T) {
	body := AppendOpRequest(nil, 42, BitXor, 1500, "dst", "x", "y")[frameLenSize:]
	var req Request
	if err := DecodeRequest(body, &req, nil); err != nil {
		t.Fatal(err)
	}
	want := Request{ID: 42, Kind: KindOp, Op: BitXor, TimeoutMS: 1500, Dst: "dst", X: "x", Y: "y"}
	if !reqEqual(&req, &want) {
		t.Fatalf("got %+v, want %+v", req, want)
	}

	body = AppendPutRequest(nil, 7, "vec", 65, []uint64{^uint64(0), 1})[frameLenSize:]
	if err := DecodeRequest(body, &req, nil); err != nil {
		t.Fatal(err)
	}
	if req.Kind != KindPut || req.Name != "vec" || req.Bits != 65 || req.WordCount() != 2 {
		t.Fatalf("put decoded wrong: %+v", req)
	}
}

// TestDecodeRequestMalformed feeds the decoder a gallery of malformed
// frames; every one must come back tagged ErrMalformed — never a panic,
// never silent acceptance.
func TestDecodeRequestMalformed(t *testing.T) {
	valid := AppendOpRequest(nil, 1, BitAnd, 0, "dst", "x", "y")[frameLenSize:]
	cases := map[string][]byte{
		"empty":            {},
		"short header":     valid[:8],
		"header only op":   valid[:headerLen], // op payload truncated away
		"unknown kind":     {1, 0, 0, 0, 0, 0, 0, 0, 0xEE},
		"trailing garbage": append(append([]byte{}, valid...), 0xFF),
		"truncated str16":  valid[:len(valid)-2],
		"put zero bits":    AppendPutRequest(nil, 1, "v", 0, nil)[frameLenSize:],
		"put bits too big": AppendPutRequest(nil, 1, "v", MaxBits+1, nil)[frameLenSize:],
		"put empty name":   AppendPutRequest(nil, 1, "", 64, nil)[frameLenSize:],
		"get empty name":   AppendGetRequest(nil, 1, "")[frameLenSize:],
		"op empty dst":     AppendOpRequest(nil, 1, BitAnd, 0, "", "x", "y")[frameLenSize:],
		"op empty x":       AppendOpRequest(nil, 1, BitAnd, 0, "dst", "", "y")[frameLenSize:],
		"reduce one src":   AppendReduceRequest(nil, 1, BitAnd, 0, "dst", []string{"a"})[frameLenSize:],
		"reduce empty src": AppendReduceRequest(nil, 1, BitAnd, 0, "dst", []string{"a", ""})[frameLenSize:],
		"eval empty expr":  AppendEvalRequest(nil, 1, 0, "dst", "")[frameLenSize:],
		"query empty ns":   AppendQueryRequest(nil, 1, 0, "", "a & b", QueryCount, 0, 0)[frameLenSize:],
		"query empty pred": AppendQueryRequest(nil, 1, 0, "ns", "", QueryCount, 0, 0)[frameLenSize:],
		"query bad mode":   AppendQueryRequest(nil, 1, 0, "ns", "a", QueryPositions+1, 0, 0)[frameLenSize:],
	}
	// Word-count mismatch: name "v", bits 64, but 5 words declared.
	bad := appendHeader(nil, 1, KindPut)
	bad = appendStr16(bad, "v")
	bad = appendU32(bad, 64)
	bad = appendU32(bad, 5)
	cases["put word mismatch"] = bad

	var req Request
	for name, frame := range cases {
		err := DecodeRequest(frame, &req, nil)
		if err == nil {
			t.Errorf("%s: decoder accepted malformed frame %x", name, frame)
			continue
		}
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: error not tagged ErrMalformed: %v", name, err)
		}
	}
}

func TestStatsRoundTrip(t *testing.T) {
	st := Stats{LatencyNS: 123.5, EnergyNJ: 88.25, AveragePowerW: 0.75, RowOps: 9, Commands: 27, Wordlines: 1024}
	b := AppendStats(nil, st)
	if len(b) != statsWireLen {
		t.Fatalf("encoded stats is %d bytes, want %d", len(b), statsWireLen)
	}
	got, err := DecodeStats(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != st {
		t.Fatalf("got %+v, want %+v", got, st)
	}
	if _, err := DecodeStats(b[:47]); !errors.Is(err, ErrMalformed) {
		t.Fatalf("short stats: got %v, want ErrMalformed", err)
	}
}

func TestErrorPayloadRoundTrip(t *testing.T) {
	b := AppendErrorPayload(nil, 1000, "queue is full")
	se := DecodeErrorPayload(StatusSaturated, b)
	if se.Code != StatusSaturated || se.RetryAfterMS != 1000 || se.Msg != "queue is full" {
		t.Fatalf("got %+v", se)
	}
	if !strings.Contains(se.Error(), "saturated") {
		t.Fatalf("Error() = %q, want status name", se.Error())
	}
}

// echoBackend is a minimal stub backend: op/reduce answer a fixed stats
// block, put/get echo geometry, everything else is empty-OK. notFound
// and boom trigger the error paths.
type echoBackend struct {
	stats Stats
}

var errStubNotFound = errors.New("stub: not found")

func (e *echoBackend) Handle(_ context.Context, req *Request, resp *Response) error {
	switch req.Kind {
	case KindOp, KindReduce:
		if req.Dst == "missing" {
			return errStubNotFound
		}
		resp.AppendStats(e.stats)
	case KindEval:
		resp.AppendStats(e.stats)
		resp.AppendU32(64)
	case KindPut:
		resp.AppendU32(uint32(req.Bits))
	case KindGet:
		if req.Name == "missing" {
			return errStubNotFound
		}
		resp.AppendU32(128)
		resp.AppendU64(2)
		resp.AppendWords([]uint64{1, 2})
	case KindArith:
		if req.Dst == "missing" {
			return errStubNotFound
		}
		resp.AppendStats(e.stats)
		resp.AppendU8(8)
		resp.AppendU32(4)
	case KindPutVert:
		resp.AppendU32(uint32(req.WordCount()))
	case KindGetVert:
		if req.Name == "missing" {
			return errStubNotFound
		}
		return resp.AppendVert(2, vertical.Slice([]uint64{5, 250}, 8))
	case KindStats:
		resp.AppendBytes([]byte(`{"stub":true}`))
	}
	return nil
}

func stubStatusOf(err error) (uint8, uint32) {
	if errors.Is(err, errStubNotFound) {
		return StatusNotFound, 0
	}
	return StatusInternal, 0
}

// startStub serves one echo backend over an in-memory pipe and returns a
// connected client.
func startStub(t *testing.T, cfg ServerConfig) *Client {
	t.Helper()
	cn, sn := net.Pipe()
	if cfg.Backend == nil {
		cfg.Backend = &echoBackend{stats: Stats{LatencyNS: 10, RowOps: 1}}
	}
	if cfg.StatusOf == nil {
		cfg.StatusOf = stubStatusOf
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = ServeConn(sn, cfg)
	}()
	c := NewClient(cn)
	t.Cleanup(func() {
		_ = c.Close()
		_ = sn.Close()
		<-done
	})
	return c
}

func TestClientServerLoopback(t *testing.T) {
	c := startStub(t, ServerConfig{})
	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if err := c.Put("v", 128, []uint64{1, 2}); err != nil {
		t.Fatalf("put: %v", err)
	}
	bits, pop, words, err := c.Get("v", nil)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if bits != 128 || pop != 2 || len(words) != 2 || words[0] != 1 || words[1] != 2 {
		t.Fatalf("get returned bits=%d pop=%d words=%v", bits, pop, words)
	}
	st, err := c.Op(BitAnd, 0, "dst", "x", "y")
	if err != nil {
		t.Fatalf("op: %v", err)
	}
	if st.LatencyNS != 10 || st.RowOps != 1 {
		t.Fatalf("op stats %+v", st)
	}
	if _, err := c.Reduce(BitOr, 0, "dst", []string{"a", "b"}); err != nil {
		t.Fatalf("reduce: %v", err)
	}
	if _, _, err := c.Eval(0, "dst", "a & b"); err != nil {
		t.Fatalf("eval: %v", err)
	}
	if err := c.Delete("v"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := c.PutVert("vert", 8, []uint64{5, 250, 17, 3}); err != nil {
		t.Fatalf("put_vert: %v", err)
	}
	width, elems, err := c.GetVert("vert", nil)
	if err != nil {
		t.Fatalf("get_vert: %v", err)
	}
	if width != 8 || len(elems) != 2 || elems[0] != 5 || elems[1] != 250 {
		t.Fatalf("get_vert returned width=%d elems=%v", width, elems)
	}
	st, elemWidth, elemCount, err := c.Arith(ArithAdd, 0, "dst", "x", "y", "")
	if err != nil {
		t.Fatalf("arith: %v", err)
	}
	if st.LatencyNS != 10 || elemWidth != 8 || elemCount != 4 {
		t.Fatalf("arith returned %+v width=%d elems=%d", st, elemWidth, elemCount)
	}
	payload, err := c.StatsJSON()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if string(payload) != `{"stub":true}` {
		t.Fatalf("stats payload %q", payload)
	}
}

func TestClientServerErrorStatus(t *testing.T) {
	c := startStub(t, ServerConfig{})
	_, err := c.Op(BitAnd, 0, "missing", "x", "y")
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("op error %v (%T), want *StatusError", err, err)
	}
	if se.Code != StatusNotFound {
		t.Fatalf("status %d, want not_found", se.Code)
	}
	if !strings.Contains(se.Msg, "not found") {
		t.Fatalf("msg %q lost the backend error", se.Msg)
	}
}

// TestPipelinedConcurrentCalls hammers one connection from many
// goroutines: request-id multiplexing must match every response to its
// caller even when the worker pool completes them out of order.
func TestPipelinedConcurrentCalls(t *testing.T) {
	c := startStub(t, ServerConfig{})
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if g%2 == 0 {
					st, err := c.Op(BitAnd, 0, "dst", "x", "y")
					if err != nil {
						errCh <- err
						return
					}
					if st.LatencyNS != 10 {
						errCh <- fmt.Errorf("goroutine %d got stats %+v", g, st)
						return
					}
				} else {
					_, err := c.Op(BitAnd, 0, "missing", "x", "y")
					var se *StatusError
					if !errors.As(err, &se) || se.Code != StatusNotFound {
						errCh <- fmt.Errorf("goroutine %d got %v, want not_found", g, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestOversizeFrameClosesConn sends a frame declaring a body beyond the
// connection's MaxFrame: the server must drop the connection (the stream
// cannot be re-synchronized), and the client's in-flight call fails.
func TestOversizeFrameClosesConn(t *testing.T) {
	cn, sn := net.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- ServeConn(sn, ServerConfig{
			Backend:  &echoBackend{},
			MaxFrame: 1024,
		})
	}()
	// Length word declaring 1 MiB.
	frame := appendU32(nil, 1<<20)
	if _, err := cn.Write(frame); err != nil {
		t.Fatal(err)
	}
	err := <-done
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("ServeConn returned %v, want ErrFrameTooLarge", err)
	}
	_ = cn.Close()
}

// TestUndersizeFrameClosesConn sends a length word smaller than the fixed
// header: a framing violation, so the connection ends.
func TestUndersizeFrameClosesConn(t *testing.T) {
	cn, sn := net.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- ServeConn(sn, ServerConfig{Backend: &echoBackend{}})
	}()
	if _, err := cn.Write(appendU32(nil, 3)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrMalformed) {
		t.Fatalf("ServeConn returned %v, want ErrMalformed", err)
	}
	_ = cn.Close()
}

// TestMalformedFrameAnsweredInBand sends a well-framed but semantically
// bad request (unknown opcode): the server answers StatusBadRequest on
// the same connection, which stays usable.
func TestMalformedFrameAnsweredInBand(t *testing.T) {
	c := startStub(t, ServerConfig{})
	// Reach into the connection to send a raw frame with an unknown
	// kind, then a valid ping: the ping must still succeed.
	body := appendHeader(nil, 999, 0xEE)
	frame := appendU32(nil, uint32(len(body)))
	frame = append(frame, body...)
	bp := getBuf(0)
	*bp = append(*bp, frame...)
	if err := c.w.send(bp); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unusable after in-band decode error: %v", err)
	}
}

// TestWireHandlerAllocFree is the zero-allocation gate on the hot serving
// loop: a steady-state op request — read, decode, dispatch to the
// backend, encode the stats response, write — must allocate nothing on
// either side of the connection once pools are warm. Regressions here are
// exactly the per-request garbage elpwire exists to eliminate.
func TestWireHandlerAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs in the plain pass")
	}
	c := startStub(t, ServerConfig{})
	// Warm every pool and the connection's name interner.
	for i := 0; i < 64; i++ {
		if _, err := c.Op(BitAnd, 0, "dst", "x", "y"); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.Op(BitAnd, 0, "dst", "x", "y"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("hot op path allocates %.1f times per request, want 0", allocs)
	}
}

// TestInternBounded checks the per-connection name cache stops growing at
// maxInterned instead of letting a hostile client exhaust memory.
func TestInternBounded(t *testing.T) {
	c := &serverConn{names: make(map[string]string)}
	for i := 0; i < maxInterned+100; i++ {
		name := fmt.Sprintf("v%d", i)
		if got := c.intern([]byte(name)); got != name {
			t.Fatalf("intern(%q) = %q", name, got)
		}
	}
	if len(c.names) > maxInterned {
		t.Fatalf("intern cache grew to %d entries, bound is %d", len(c.names), maxInterned)
	}
}

// TestEncodeableString pins the str16 bound.
func TestEncodeableString(t *testing.T) {
	if !EncodeableString(strings.Repeat("a", maxString)) {
		t.Fatal("maxString-long string must be encodeable")
	}
	if EncodeableString(strings.Repeat("a", maxString+1)) {
		t.Fatal("oversize string must not be encodeable")
	}
}

// TestRequestReset pins that reset clears every field (a stale field
// leaking across pooled requests would corrupt unrelated requests).
func TestRequestReset(t *testing.T) {
	req := Request{
		ID: 1, Kind: KindReduce, Op: BitOr, TimeoutMS: 5,
		Name: "n", Dst: "d", X: "x", Y: "y",
		Srcs: []string{"a", "b"}, Expr: "e", Bits: 64, WordData: []byte{1},
		Mode: QueryPositions, Cursor: 7, Limit: 9,
	}
	req.reset()
	empty := Request{Srcs: req.Srcs} // reset keeps the backing array
	if !reflect.DeepEqual(req, empty) || len(req.Srcs) != 0 {
		t.Fatalf("reset left state behind: %+v", req)
	}
}

// sizedBackend answers KindGet and KindGetVert with payloads of a size
// chosen by name: "big" outgrows the test's frame limit, anything else
// fits. Get builds its words with AppendWords, so only the finished frame
// can be checked; GetVert reserves its eight bit slices through Extend,
// which refuses before anything is written (filled counts the fills).
type sizedBackend struct {
	filled atomic.Int64
}

func (sb *sizedBackend) Handle(_ context.Context, req *Request, resp *Response) error {
	n := 2
	if req.Name == "big" {
		n = 1025 // 8 slices of 17 words: 1,088 bytes
	}
	switch req.Kind {
	case KindGet:
		resp.AppendU32(uint32(64 * n))
		resp.AppendU64(0)
		resp.AppendWords(make([]uint64, n))
	case KindGetVert:
		resp.AppendU8(8)
		resp.AppendU32(uint32(n))
		payload, err := resp.Extend(8 * 8 * vertical.SliceWords(n))
		if err != nil {
			return err
		}
		sb.filled.Add(1)
		clear(payload)
	}
	return nil
}

// TestOversizeResponseAnsweredInBand: a response whose frame body would
// exceed the connection's MaxFrame is answered with StatusBadRequest
// naming the limit — the peer would refuse the oversized frame and drop
// the connection — and the next calls on the same connection succeed.
func TestOversizeResponseAnsweredInBand(t *testing.T) {
	sb := &sizedBackend{}
	c := startStub(t, ServerConfig{Backend: sb, MaxFrame: 1024})
	wantLimit := func(what string, err error) {
		t.Helper()
		var se *StatusError
		if !errors.As(err, &se) || se.Code != StatusBadRequest || !strings.Contains(se.Msg, "(limit 1024)") {
			t.Fatalf("%s: %v, want bad_request naming the 1024-byte limit", what, err)
		}
	}
	_, _, _, err := c.Get("big", nil)
	wantLimit("Get of an oversized vector", err)
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping after an oversized Get: %v", err)
	}
	_, _, err = c.GetVert("big", nil)
	wantLimit("GetVert of an oversized vector", err)
	if n := sb.filled.Load(); n != 0 {
		t.Fatalf("oversized GetVert filled its payload %d times, want 0", n)
	}
	if bits, _, words, err := c.Get("small", nil); err != nil || bits != 128 || len(words) != 2 {
		t.Fatalf("Get after oversized responses: bits=%d words=%d err=%v", bits, len(words), err)
	}
	if width, elems, err := c.GetVert("small", nil); err != nil || width != 8 || len(elems) != 2 {
		t.Fatalf("GetVert after oversized responses: width=%d elems=%d err=%v", width, len(elems), err)
	}
}

// TestAppendVert: AppendVert writes the slice layout decodeGetVert reads
// back, and refuses both a vector whose elements would not fit the frame
// limit at 8 bytes each and one whose slices would not fit it, leaving
// the response as it was.
func TestAppendVert(t *testing.T) {
	const limit = 1024
	for _, tc := range []struct {
		name     string
		width, n int
		refused  bool
	}{
		{"fits", 7, 100, false},
		// A 9-byte header and 5 bytes of width and count leave room for
		// 126 elements at 8 bytes each.
		{"elements over the limit", 1, 127, true}, // 16 bytes of slices
		{"slices over the limit", 64, 126, true},  // 1,024 bytes of slices
	} {
		elems := make([]uint64, tc.n)
		for i := range elems {
			elems[i] = uint64(37*i) & vertical.WidthMask(tc.width)
		}
		r := Response{b: BeginFrame(nil, 1, StatusOK), limit: limit}
		before := len(r.b)
		err := r.AppendVert(tc.n, vertical.Slice(elems, tc.width))
		if tc.refused {
			if !errors.Is(err, ErrFrameTooLarge) || len(r.b) != before {
				t.Errorf("%s: err = %v after writing %d bytes, want ErrFrameTooLarge and nothing written", tc.name, err, len(r.b)-before)
			}
			continue
		}
		w, n, raw, err := decodeGetVert(r.b[before:])
		if err != nil || w != tc.width || n != tc.n || !reflect.DeepEqual(unsliceInto(nil, raw, w, n), elems) {
			t.Errorf("%s: decoded width %d, %d elements, err %v; want width %d and the %d elements back", tc.name, w, n, err, tc.width, tc.n)
		}
	}
}

// rawBackend answers every request with the OK payload stored under its
// name.
type rawBackend map[string][]byte

func (rb rawBackend) Handle(_ context.Context, req *Request, resp *Response) error {
	resp.AppendBytes(rb[req.Name])
	return nil
}

// TestGetVertResponseMalformed: a GET_VERT answer that breaks the slice
// layout fails the call with ErrMalformed — no panic, and no element
// buffer sized from its element count. Each answer but the empty one
// declares at least 4 Mi elements, so such a buffer (32 MiB or more)
// would dwarf the frame buffers the call allocates.
func TestGetVertResponseMalformed(t *testing.T) {
	const many = 4 << 20
	header := func(w, n int) []byte { return appendU32([]byte{byte(w)}, uint32(n)) }
	withSlices := func(w, n, sliceWidth int) []byte {
		return append(header(w, n), make([]byte, sliceWidth*vertical.SliceWords(n)*8)...)
	}
	tooMany := DefaultMaxFrame/8 + 1
	rb := rawBackend{
		"no elements":                header(8, 0),
		"width 0":                    header(0, many),
		"width 65":                   header(65, many),
		"slices of a narrower width": withSlices(2, many, 1),
		"short slices":               withSlices(1, many, 1)[:5+vertical.SliceWords(many)*8-8],
		"elems beyond the limit":     withSlices(1, tooMany, 1),
		"trailing bytes":             append(withSlices(1, many, 1), 0),
	}
	c := startStub(t, ServerConfig{Backend: rb})
	for name := range rb {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		width, elems, err := c.GetVert(name, nil)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
		if width != 0 || elems != nil {
			t.Errorf("%s: returned width %d and %d elements with the error", name, width, len(elems))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 16<<20 {
			t.Errorf("%s: the call allocated %d bytes, want less than an element buffer", name, grew)
		}
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping after malformed answers: %v", err)
	}
}
