package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	elp2im "repro"
)

// The synchronous op path's envelope, all run under -race by the tier-1
// gate: a deadline expiring while a request waits for an entry lock (504,
// never executed), drain racing with submission, PUT racing with ops,
// failed ops leaving no destination, and a mixed op/reduce/PUT stress
// run against a host oracle.

// fillRandom seeds a store vector directly and returns its local mirror.
func fillRandom(s *Store, name string, rng *rand.Rand, bits int) *elp2im.BitVector {
	v := elp2im.RandomBitVector(rng, bits)
	mirror := elp2im.NewBitVector(bits)
	copy(mirror.Words(), v.Words())
	s.set(name, v)
	return mirror
}

// holdEntry write-locks the named store entry, stalling every request
// that touches it, and returns the release function.
func holdEntry(t *testing.T, s *Server, name string) (release func()) {
	t.Helper()
	e := s.store.lookup(name)
	if e == nil {
		t.Fatalf("holdEntry: %q not stored", name)
	}
	e.mu.Lock()
	return e.mu.Unlock
}

// waitInFlight polls until the gate has n requests in flight.
func waitInFlight(t *testing.T, g *gate, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for g.obs.inFlight.Value() != n {
		if time.Now().After(deadline) {
			t.Fatalf("gate has %d requests in flight, want %d", g.obs.inFlight.Value(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// postStatus POSTs body as JSON and returns the response status, 0 on a
// transport failure. Unlike doJSON it never calls t.Fatal, so it is safe
// off the test goroutine.
func postStatus(client *http.Client, url string, body any) int {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// storedBits returns a copy of the named plain vector's contents, nil
// when the name is not stored.
func storedBits(s *Server, name string) *elp2im.BitVector {
	e := s.store.lookup(name)
	if e == nil {
		return nil
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	v := elp2im.NewBitVector(e.vec.Len())
	copy(v.Words(), e.vec.Words())
	return v
}

// TestDeadlineWhileQueued pins the 504 contract on the synchronous path:
// a request whose deadline passes while it waits for an entry lock is
// answered 504 once it gets the lock, counts a deadline_expired tick, and
// never executes — its destination keeps its contents.
func TestDeadlineWhileQueued(t *testing.T) {
	s, ts := newTestServer(t, nil)
	c := ts.Client()
	rng := rand.New(rand.NewSource(12))
	putRandom(t, c, ts.URL, "dl.a", rng, 256)
	putRandom(t, c, ts.URL, "dl.b", rng, 256)
	before := putRandom(t, c, ts.URL, "dl.r", rng, 256)

	release := holdEntry(t, s, "dl.a")
	codeCh := make(chan int, 1)
	go func() {
		codeCh <- postStatus(c, ts.URL+"/v1/op?timeout_ms=50",
			OpRequest{Op: "and", Dst: "dl.r", X: "dl.a", Y: "dl.b"})
	}()
	waitInFlight(t, s.gates[0], 1)
	time.Sleep(100 * time.Millisecond) // the deadline passes while the lock is held
	release()

	if code := <-codeCh; code != http.StatusGatewayTimeout {
		t.Fatalf("op past its deadline: status %d, want 504", code)
	}
	if got := s.gates[0].obs.deadlineExpired.Value(); got != 1 {
		t.Errorf("server.deadline.expired = %d, want 1", got)
	}
	if got := s.gates[0].obs.executed.Value(); got != 0 {
		t.Errorf("expired request executed (%d ops)", got)
	}
	if got := fetchBytes(t, c, ts.URL, "dl.r"); string(got) != string(before) {
		t.Fatal("expired request changed its destination")
	}
}

// TestDirectDoDeadline is TestDeadlineWhileQueued one layer down: opCore
// itself returns context.DeadlineExceeded for a request that expired
// while blocked on its destination's lock, without touching it.
func TestDirectDoDeadline(t *testing.T) {
	s, _ := newTestServer(t, nil)
	rng := rand.New(rand.NewSource(13))
	fillRandom(s.store, "dd.a", rng, 256)
	before := fillRandom(s.store, "dd.r", rng, 256)

	release := holdEntry(t, s, "dd.r")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	errCh := make(chan error, 1)
	go func() {
		_, err := s.opCore(ctx, &opRequest{op: elp2im.OpNot, dst: "dd.r", x: "dd.a"})
		errCh <- err
	}()
	<-ctx.Done()
	release()
	if err := <-errCh; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("opCore past deadline: err %v, want DeadlineExceeded", err)
	}
	if got := s.gates[0].obs.deadlineExpired.Value(); got != 1 {
		t.Errorf("server.deadline.expired = %d, want 1", got)
	}
	if !storedBits(s, "dd.r").Equal(before) {
		t.Fatal("expired request changed its destination")
	}
}

func TestDrainDuringSubmit(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.RequestTimeout = time.Minute })
	rng := rand.New(rand.NewSource(14))
	fillRandom(s.store, "ds.a", rng, 8192)
	fillRandom(s.store, "ds.b", rng, 8192)

	const submitters = 8
	const perSubmitter = 20
	var wg sync.WaitGroup
	var completed, refused, other atomic.Int64
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < perSubmitter; k++ {
				_, err := s.opCore(context.Background(),
					&opRequest{op: elp2im.OpOr, dst: fmt.Sprintf("ds.r%d", i), x: "ds.a", y: "ds.b"})
				switch {
				case err == nil:
					completed.Add(1)
				case errors.Is(err, ErrDraining):
					refused.Add(1)
				default:
					other.Add(1)
				}
			}
		}(i)
	}
	// Let some requests land pre-drain.
	for deadline := time.Now().Add(10 * time.Second); completed.Load() == 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("no request completed within 10s")
		}
	}
	s.Drain()
	// Drain returned: nothing may still be executing.
	if n := s.gates[0].obs.inFlight.Value(); n != 0 {
		t.Errorf("%d requests in flight after Drain returned", n)
	}
	wg.Wait()

	if other.Load() != 0 {
		t.Errorf("%d requests failed with unexpected errors", other.Load())
	}
	if completed.Load() == 0 {
		t.Error("no request completed before drain")
	}
	if got := completed.Load() + refused.Load() + other.Load(); got != submitters*perSubmitter {
		t.Errorf("settled %d of %d requests", got, submitters*perSubmitter)
	}
	if got := s.gates[0].obs.executed.Value(); got != completed.Load() {
		t.Errorf("executed %d != completed %d", got, completed.Load())
	}
}

// TestConcurrentPutAndOp hammers PUT over a vector that concurrent ops
// are reading: opCore must read the entry's vector under the entry lock
// (never between resolve and lock), so this is race-free under -race and
// no PUT is silently lost to an op writing an orphaned vector.
func TestConcurrentPutAndOp(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.RequestTimeout = time.Minute })
	rng := rand.New(rand.NewSource(30))
	const bits = 8192
	fillRandom(s.store, "rw.a", rng, bits)
	fillRandom(s.store, "rw.b", rng, bits)

	stop := make(chan struct{})
	var putters sync.WaitGroup
	putters.Add(1)
	go func() {
		defer putters.Done()
		prng := rand.New(rand.NewSource(31))
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.store.set("rw.a", elp2im.RandomBitVector(prng, bits))
		}
	}()

	const workers, ops = 4, 15
	var wg sync.WaitGroup
	var failed atomic.Int64
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < ops; k++ {
				_, err := s.opCore(context.Background(),
					&opRequest{op: elp2im.OpXor, dst: fmt.Sprintf("rw.r%d", i), x: "rw.a", y: "rw.b"})
				if err != nil {
					failed.Add(1)
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	putters.Wait()
	if failed.Load() != 0 {
		t.Fatalf("%d ops failed under concurrent PUT", failed.Load())
	}
}

// TestFailedOpLeavesNoDst pins the no-spurious-destination contract: an
// operation that fails (here a length mismatch, answered as a tagged 400)
// must not leave an all-zero destination vector visible in the store.
func TestFailedOpLeavesNoDst(t *testing.T) {
	s, _ := newTestServer(t, nil)
	rng := rand.New(rand.NewSource(32))
	fillRandom(s.store, "nf.a", rng, 256)
	fillRandom(s.store, "nf.b", rng, 512)

	_, err := s.opCore(context.Background(),
		&opRequest{op: elp2im.OpAnd, dst: "nf.r", x: "nf.a", y: "nf.b"})
	if !errors.Is(err, errBadRequest) {
		t.Fatalf("mismatched op: err %v, want a tagged bad request", err)
	}
	if s.store.lookup("nf.r") != nil {
		t.Fatal("failed op left a spurious destination vector in the store")
	}
	_, err = s.opCore(context.Background(),
		&opRequest{op: elp2im.OpOr, reduce: true, dst: "nf.r", srcs: []string{"nf.a", "nf.b"}})
	if !errors.Is(err, errBadRequest) {
		t.Fatalf("mismatched reduce: err %v, want a tagged bad request", err)
	}
	if s.store.lookup("nf.r") != nil {
		t.Fatal("failed reduce left a spurious destination vector in the store")
	}
}

// TestOpRequestValidation pins opCore's shape checks: each malformed
// request is a tagged 400 and is rejected before admission.
func TestOpRequestValidation(t *testing.T) {
	s, _ := newTestServer(t, nil)
	for _, req := range []opRequest{
		{op: elp2im.OpAnd, x: "a", y: "b"},
		{op: elp2im.OpAnd, dst: "d", y: "b"},
		{op: elp2im.OpAnd, dst: "d", x: "a"},
		{op: elp2im.OpAnd, reduce: true, srcs: []string{"a", "b"}},
		{op: elp2im.OpAnd, reduce: true, dst: "d", srcs: []string{"a"}},
		{op: elp2im.OpXor, reduce: true, dst: "d", srcs: []string{"a", "b"}},
	} {
		if _, err := s.opCore(context.Background(), &req); !errors.Is(err, errBadRequest) {
			t.Errorf("%+v: err %v, want a tagged bad request", req, err)
		}
	}
	if got := s.gates[0].obs.executed.Value(); got != 0 {
		t.Errorf("malformed requests executed %d ops", got)
	}
}

// TestSyncStress runs op, reduce and PUT concurrently over shared
// sources and in-place destinations (dst == x for ops, dst == srcs[0]
// for reductions), on one shard and on four, and checks every
// accumulator against a host oracle. Sources are re-PUT with identical
// contents throughout, so each op's inputs are known while the store's
// vector pointers keep changing under the requests that read them, and
// a reader snapshots the accumulators the way GET does while they are
// being written.
func TestSyncStress(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var s *Server
			if shards == 1 {
				s, _ = newTestServer(t, nil)
			} else {
				s, _ = newShardedTestServer(t, shards, nil)
			}
			const bits, nsrc, workers, rounds = 16384, 4, 6, 120
			rng := rand.New(rand.NewSource(int64(40 + shards)))
			srcs := make([]*elp2im.BitVector, nsrc)
			for i := range srcs {
				srcs[i] = fillRandom(s.store, fmt.Sprintf("st.s%d", i), rng, bits)
			}
			clone := func(v *elp2im.BitVector) *elp2im.BitVector {
				c := elp2im.NewBitVector(v.Len())
				copy(c.Words(), v.Words())
				return c
			}

			stop := make(chan struct{})
			var background sync.WaitGroup
			background.Add(2)
			go func() {
				defer background.Done()
				for k := 0; ; k++ {
					select {
					case <-stop:
						return
					default:
					}
					i := k % nsrc
					s.store.set(fmt.Sprintf("st.s%d", i), clone(srcs[i]))
				}
			}()
			go func() {
				defer background.Done()
				for k := 0; ; k++ {
					select {
					case <-stop:
						return
					default:
					}
					storedBits(s, fmt.Sprintf("st.acc%d", k%workers))
				}
			}()

			binOps := []elp2im.Op{elp2im.OpAnd, elp2im.OpOr, elp2im.OpXor, elp2im.OpNand, elp2im.OpXnor, elp2im.OpNot}
			var wg sync.WaitGroup
			errCh := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					wrng := rand.New(rand.NewSource(int64(100*shards + w)))
					name := fmt.Sprintf("st.acc%d", w)
					mirror := fillRandom(s.store, name, wrng, bits)
					for r := 0; r < rounds; r++ {
						var req opRequest
						switch k := wrng.Intn(5); {
						case k == 0:
							// PUT over the in-place destination.
							v := elp2im.RandomBitVector(wrng, bits)
							mirror = clone(v)
							s.store.set(name, v)
							continue
						case k <= 2:
							op := binOps[wrng.Intn(len(binOps))]
							i := wrng.Intn(nsrc)
							req = opRequest{op: op, dst: name, x: name, y: fmt.Sprintf("st.s%d", i)}
							mirror = hostOp(op, mirror, srcs[i])
						default:
							op := []elp2im.Op{elp2im.OpAnd, elp2im.OpOr}[wrng.Intn(2)]
							req = opRequest{op: op, reduce: true, dst: name, srcs: []string{name}}
							for n := 1 + wrng.Intn(3); n > 0; n-- {
								i := wrng.Intn(nsrc)
								req.srcs = append(req.srcs, fmt.Sprintf("st.s%d", i))
								mirror = hostOp(op, mirror, srcs[i])
							}
						}
						if _, err := s.opCore(context.Background(), &req); err != nil {
							errCh <- fmt.Errorf("worker %d round %d %+v: %v", w, r, req, err)
							return
						}
					}
					if got := storedBits(s, name); !got.Equal(mirror) {
						errCh <- fmt.Errorf("worker %d: accumulator diverged from the host oracle", w)
					}
				}(w)
			}
			wg.Wait()
			close(stop)
			background.Wait()
			close(errCh)
			for err := range errCh {
				t.Error(err)
			}
			for i, want := range srcs {
				if got := storedBits(s, fmt.Sprintf("st.s%d", i)); !got.Equal(want) {
					t.Errorf("source %d changed", i)
				}
			}
		})
	}
}

// hostOp is the host oracle for one bitwise op: op(x, y) word by word,
// with the tail beyond x's length cleared.
func hostOp(op elp2im.Op, x, y *elp2im.BitVector) *elp2im.BitVector {
	out := elp2im.NewBitVector(x.Len())
	xw, yw, ow := x.Words(), y.Words(), out.Words()
	for i := range ow {
		a, b := xw[i], yw[i]
		switch op {
		case elp2im.OpAnd:
			ow[i] = a & b
		case elp2im.OpOr:
			ow[i] = a | b
		case elp2im.OpXor:
			ow[i] = a ^ b
		case elp2im.OpNand:
			ow[i] = ^(a & b)
		case elp2im.OpXnor:
			ow[i] = ^(a ^ b)
		case elp2im.OpNot:
			ow[i] = ^a
		default:
			panic("hostOp: " + op.String())
		}
	}
	if rem := x.Len() % 64; rem != 0 {
		ow[len(ow)-1] &= 1<<rem - 1
	}
	return out
}
