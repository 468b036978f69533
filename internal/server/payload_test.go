package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	elp2im "repro"
	"repro/internal/vertical"
)

// serve runs one request through the server's handler into a recorder.
func serve(s *Server, method, path string, body any) *httptest.ResponseRecorder {
	var raw []byte
	if body != nil {
		raw, _ = json.Marshal(body)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(raw)))
	return rec
}

// checkPayloadResponse checks a streamed bit-payload answer: a 200 whose
// Content-Length is its body's length, whose key field is byte-identical
// to wantPayload, and whose decoded body equals want, the answer
// rendered whole through encoding/json.
func checkPayloadResponse(t *testing.T, rec *httptest.ResponseRecorder, key, wantPayload string, want any) {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if got, body := rec.Header().Get("Content-Length"), strconv.Itoa(rec.Body.Len()); got != body {
		t.Errorf("Content-Length %q, body is %s bytes", got, body)
	}
	var got, whole map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if got[key] != wantPayload {
		t.Errorf("%s differs from the whole encoding", key)
	}
	raw, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &whole); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, whole) {
		t.Errorf("response decodes to %v, want %v", got, whole)
	}
}

// TestPayloadResponses pins the streamed JSON bit payloads — the
// bits-mode query, the plain GET and the vertical GET — against the
// same answers rendered whole, at lengths on both sides of a word, of a
// streamed chunk and (for verticals) of a transpose group.
func TestPayloadResponses(t *testing.T) {
	s, _ := newTestServer(t, nil)
	rng := rand.New(rand.NewSource(24))
	chunkBits := 8 * payloadChunk
	for _, n := range []int{1, 63, 64, 65, chunkBits - 1, chunkBits, chunkBits + 1, 3 * chunkBits} {
		t.Run(fmt.Sprintf("bits=%d", n), func(t *testing.T) {
			v := fillRandom(s.store, fmt.Sprintf("v%d", n), rng, n)
			pop := v.Popcount()
			checkPayloadResponse(t, serve(s, http.MethodGet, fmt.Sprintf("/v1/vectors/v%d", n), nil),
				"data", EncodeBits(v), VectorPayload{Name: fmt.Sprintf("v%d", n), Bits: n, Data: EncodeBits(v), Popcount: &pop})

			ns := fmt.Sprintf("q%d", n)
			fillRandom(s.store, indexKey(ns, "a"), rng, n)
			fillRandom(s.store, indexKey(ns, "b"), rng, n)
			const pred = "a & ~b"
			match, st, err := s.queryCore(ns, pred)
			if err != nil {
				t.Fatal(err)
			}
			want := QueryResponse{Stats: statsJSON(st), Bits: n, Count: match.Popcount(), Data: EncodeBits(match)}
			putMatch(match)
			checkPayloadResponse(t, serve(s, http.MethodPost, "/v1/query",
				QueryRequest{Namespace: ns, Predicate: pred, Mode: "bits"}), "data", want.Data, want)
		})
	}
	chunkElems := payloadChunk / 8
	for _, width := range []int{1, 7, 32, 64} {
		for _, n := range []int{1, 63, 64, 65, chunkElems - 1, chunkElems, chunkElems + 1} {
			t.Run(fmt.Sprintf("width=%d/elems=%d", width, n), func(t *testing.T) {
				elems := make([]uint64, n)
				for i := range elems {
					elems[i] = rng.Uint64() & vertical.WidthMask(width)
				}
				name := fmt.Sprintf("e%d.%d", width, n)
				v, err := elp2im.VerticalFromElements(elems, width)
				if err != nil {
					t.Fatal(err)
				}
				s.store.setVert(name, v)
				raw := make([]byte, 8*n)
				vertical.UnsliceBytesInto(raw, sliceWords(v))
				data := base64.StdEncoding.EncodeToString(raw)
				if data != EncodeElems(elems) {
					t.Fatal("UnsliceBytesInto disagrees with the stored elements")
				}
				checkPayloadResponse(t, serve(s, http.MethodGet, "/v1/vectors/"+name, nil),
					"elems", data, VectorPayload{Name: name, Bits: n * width, ElemWidth: width, Elems: data})
			})
		}
	}
}

// blockingWriter is a ResponseWriter whose Write records the body and
// then blocks until release is closed; entered closes on the first
// Write.
type blockingWriter struct {
	header  http.Header
	body    bytes.Buffer
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func newBlockingWriter() *blockingWriter {
	return &blockingWriter{header: http.Header{}, entered: make(chan struct{}), release: make(chan struct{})}
}

func (b *blockingWriter) Header() http.Header { return b.header }

func (b *blockingWriter) WriteHeader(int) {}

func (b *blockingWriter) Write(p []byte) (int, error) {
	b.body.Write(p)
	b.once.Do(func() { close(b.entered) })
	<-b.release
	return len(p), nil
}

// within fails the test unless op returns within the timeout.
func within(t *testing.T, what string, op func() *httptest.ResponseRecorder) {
	t.Helper()
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- op() }()
	select {
	case rec := <-done:
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", what, rec.Code, rec.Body.Bytes())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not finish while a GET of its vector was blocked writing", what)
	}
}

// TestGetWriteHoldsNoEntryLock pins that a JSON GET holds no entry lock
// while it writes its body: with the GET blocked inside the body write
// of a plain and of a vertical vector, a PUT of the same name (and, for
// the vertical, an arith into it, which recycles the vertical it
// replaces) still finishes, and the blocked GET still answers with the
// contents it read before them.
func TestGetWriteHoldsNoEntryLock(t *testing.T) {
	for _, vert := range []bool{false, true} {
		t.Run(fmt.Sprintf("vertical=%v", vert), func(t *testing.T) {
			s, _ := newTestServer(t, nil)
			rng := rand.New(rand.NewSource(25))
			const n = 3*payloadChunk*8 + 5
			elems := make([]uint64, n/8)
			for i := range elems {
				elems[i] = rng.Uint64() & 0xFF
			}
			var want string
			if vert {
				v, err := elp2im.VerticalFromElements(elems, 8)
				if err != nil {
					t.Fatal(err)
				}
				s.store.setVert("hot", v)
				want = EncodeElems(elems)
			} else {
				want = EncodeBits(fillRandom(s.store, "hot", rng, n))
			}
			bw := newBlockingWriter()
			done := make(chan struct{})
			go func() {
				defer close(done)
				s.Handler().ServeHTTP(bw, httptest.NewRequest(http.MethodGet, "/v1/vectors/hot", nil))
			}()
			released := false
			release := func() {
				if !released {
					released = true
					close(bw.release)
					<-done
				}
			}
			defer release()
			select {
			case <-bw.entered:
			case <-time.After(10 * time.Second):
				t.Fatal("GET never wrote its body")
			}

			within(t, "PUT", func() *httptest.ResponseRecorder {
				if vert {
					return serve(s, http.MethodPut, "/v1/vectors/hot", VectorPayload{ElemWidth: 8, Elems: EncodeElems(elems[:64])})
				}
				return serve(s, http.MethodPut, "/v1/vectors/hot", VectorPayload{Bits: 64})
			})
			if vert {
				for _, name := range []string{"x", "y"} {
					v, err := elp2im.VerticalFromElements(elems, 8)
					if err != nil {
						t.Fatal(err)
					}
					s.store.setVert(name, v)
				}
				for i := 0; i < 2; i++ {
					within(t, "arith", func() *httptest.ResponseRecorder {
						return serve(s, http.MethodPost, "/v1/arith", ArithRequest{Op: "add", Dst: "hot", X: "x", Y: "y"})
					})
				}
			}
			release()
			var got VectorPayload
			if err := json.Unmarshal(bw.body.Bytes(), &got); err != nil {
				t.Fatalf("decode blocked GET: %v", err)
			}
			if got.Data+got.Elems != want {
				t.Error("the blocked GET answered with contents other than those it read")
			}
		})
	}
}

// discardWriter is a ResponseWriter that counts and drops the body.
type discardWriter struct {
	header http.Header
	n      int
}

func (d *discardWriter) Header() http.Header { return d.header }

func (d *discardWriter) WriteHeader(int) {}

func (d *discardWriter) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}

// TestPayloadAllocBound pins that a bit-payload answer streams instead
// of being built whole: a bits-mode query and a plain GET of a 4 Mi-bit
// vector each allocate under 128 KiB per call (a whole answer is 683 KiB
// of base64 alone).
func TestPayloadAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops pooled buffers, the query's kernel scratch alone at about 4 MB per call; the bound runs in the plain pass")
	}
	s, _ := newTestServer(t, nil)
	rng := rand.New(rand.NewSource(26))
	const n = 4 << 20
	fillRandom(s.store, "big", rng, n)
	fillRandom(s.store, indexKey("bq", "a"), rng, n)
	fillRandom(s.store, indexKey("bq", "b"), rng, n)
	query, err := json.Marshal(QueryRequest{Namespace: "bq", Predicate: "a & b", Mode: "bits"})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, method, path string
		body               []byte
	}{
		{"query", http.MethodPost, "/v1/query", query},
		{"get", http.MethodGet, "/v1/vectors/big", nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := s.Handler()
			call := func() {
				w := &discardWriter{header: http.Header{}}
				h.ServeHTTP(w, httptest.NewRequest(c.method, c.path, bytes.NewReader(c.body)))
				if w.n < base64.StdEncoding.EncodedLen(n/8) {
					t.Fatalf("answered %d bytes, short of the payload", w.n)
				}
			}
			call() // warm the pools and the compile cache
			const calls = 16
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < calls; i++ {
				call()
			}
			runtime.ReadMemStats(&after)
			if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 128<<10 {
				t.Errorf("%d bytes allocated per call, want under %d", per, 128<<10)
			}
		})
	}
}
