package elp2im

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dram"
	"repro/internal/engine"
)

// forkedStripes returns a stripe count past fastSerialThresholdWords on
// acc's rows, so forEachStripe deals the stripes to parallel workers,
// and that worker count. Callers raise GOMAXPROCS first: the worker
// count is capped by it.
func forkedStripes(t *testing.T, acc *Accelerator) (stripes, workers int) {
	t.Helper()
	stripes = fastSerialThresholdWords/(acc.cfg.Module.Columns/64) + 50
	workers = min(acc.module.Banks()*acc.module.Bank(0).Subarrays(), runtime.GOMAXPROCS(0))
	if workers < 2 {
		t.Fatalf("dispatcher would run %d worker(s); the test needs it to fork", workers)
	}
	return stripes, workers
}

// TestForEachStripeFirstErrorDeterministic drives the stripe dispatcher
// (forEachStripe) at a size where it forks, with failures in the first
// and in the last worker's share. The low stripe fails only once the
// high stripe has failed, so the high failure always happens first; the
// lowest failing stripe's error must still win.
func TestForEachStripeFirstErrorDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	acc := newAcc(t, smallModule) // 2 banks × 2 subarrays, word-aligned
	stripes, workers := forkedStripes(t, acc)
	const low = 2
	high := stripes - 3
	if high < (workers-1)*stripes/workers {
		t.Fatalf("stripe %d is not in the last of %d worker shares", high, workers)
	}
	errLow := errors.New("low stripe failure")
	errHigh := errors.New("high stripe failure")
	// failing runs a worker's share until its first stripe in fail, which
	// it reports with that stripe's error after calling wait(stripe).
	failing := func(fail map[int]error, wait func(int)) func(lo, hi int) (int, error) {
		return func(lo, hi int) (int, error) {
			for s := lo; s < hi; s++ {
				if err := fail[s]; err != nil {
					wait(s)
					return s, err
				}
			}
			return 0, nil
		}
	}
	for round := 0; round < 20; round++ {
		highFailed := make(chan struct{})
		var serial atomic.Bool
		err := acc.forEachStripe(stripes, failing(map[int]error{low: errLow, high: errHigh}, func(s int) {
			if s == high {
				close(highFailed)
				return
			}
			select {
			case <-highFailed:
			case <-time.After(10 * time.Second):
				serial.Store(true) // no other worker reached the high stripe
			}
		}))
		if serial.Load() {
			t.Fatalf("round %d: stripe %d never ran beside stripe %d; the dispatcher did not fork", round, high, low)
		}
		if err != errLow {
			t.Fatalf("round %d: got %v, want %v", round, err, errLow)
		}
	}
	// A single failure in a later share still surfaces.
	if err := acc.forEachStripe(stripes, failing(map[int]error{high: errHigh}, func(int) {})); err != errHigh {
		t.Fatalf("got %v, want %v", err, errHigh)
	}
	// No failure: nil.
	if err := acc.forEachStripe(stripes, failing(nil, func(int) {})); err != nil {
		t.Fatalf("unexpected error %v", err)
	}
}

// TestConcurrentOpsAndTotals is the facade's concurrency contract: several
// goroutines issue Op and Reduce on disjoint vectors of one Accelerator,
// on the command-accurate path and sized so every call forks its own
// workers, while another goroutine reads Totals and Snapshot. Stripe s
// of every vector lives in the same subarray, so without the
// per-subarray locks the calls would interleave on row state and corrupt
// results. Results must match the host oracle, and the final totals must
// equal the sum of the Stats the calls returned.
func TestConcurrentOpsAndTotals(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	acc := newCmdAcc(t, smallModule)
	stripes, _ := forkedStripes(t, acc)
	n := stripes*acc.cfg.Module.Columns - 37

	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = acc.Totals()
				_ = acc.Snapshot()
			}
		}
	}()

	const callers = 3
	stats := make([][]Stats, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(40 + g)))
			x, y, z := RandomBitVector(rng, n), RandomBitVector(rng, n), RandomBitVector(rng, n)
			dst := NewBitVector(n)
			st, err := acc.Op(OpXor, dst, x, y)
			if err != nil {
				t.Error(err)
				return
			}
			want := NewBitVector(n)
			golden(OpXor, want, x, y)
			if !dst.Equal(want) {
				t.Errorf("caller %d: XOR corrupted by concurrent execution", g)
			}
			stats[g] = append(stats[g], st)

			if st, err = acc.Reduce(OpAnd, dst, x, y, z); err != nil {
				t.Error(err)
				return
			}
			xy := NewBitVector(n)
			golden(OpAnd, xy, x, y)
			golden(OpAnd, want, xy, z)
			if !dst.Equal(want) {
				t.Errorf("caller %d: Reduce corrupted by concurrent execution", g)
			}
			stats[g] = append(stats[g], st)
		}(g)
	}
	wg.Wait()
	close(stop)
	reader.Wait()
	if t.Failed() {
		return
	}

	// The callers' charges interleave in completion order, so the float
	// sums may round differently from this one; the counts must match
	// exactly.
	var sum Stats
	for _, sts := range stats {
		for _, st := range sts {
			sum.add(st)
		}
	}
	got := acc.Totals()
	if got.RowOps != sum.RowOps || got.Commands != sum.Commands || got.Wordlines != sum.Wordlines {
		t.Fatalf("totals %+v != summed call Stats %+v", got, sum)
	}
	for _, f := range [][2]float64{{got.LatencyNS, sum.LatencyNS}, {got.EnergyNJ, sum.EnergyNJ}} {
		if math.Abs(f[0]-f[1]) > 1e-9*f[1] {
			t.Fatalf("totals %+v != summed call Stats %+v", got, sum)
		}
	}
	if got := acc.Snapshot().Counter("acc.lock.acquire"); got == 0 {
		t.Error("command-path calls took no per-subarray locks")
	}
}

// errInjected is failNth's failure.
var errInjected = errors.New("injected executor failure")

// failNth is an Executor that fails its nth call and passes every other
// call to the wrapped executor.
type failNth struct {
	inner Executor
	n     int64
	calls atomic.Int64
}

// Execute implements Executor.
func (f *failNth) Execute(sub *dram.Subarray, op engine.Op, dst, a, b int) error {
	if f.calls.Add(1) == f.n {
		return errInjected
	}
	return f.inner.Execute(sub, op, dst, a, b)
}

// TestFailedReduceChargesNothing: a command-path Reduce that fails
// part-way charges nothing — not the staging copy, not the folds that
// finished — to the totals or the acc.op.* series, as a failed Op
// charges nothing.
func TestFailedReduceChargesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	acc := newAcc(t, smallModule)
	const stripes = 7
	n := stripes*acc.cfg.Module.Columns - 5
	vs := []*BitVector{RandomBitVector(rng, n), RandomBitVector(rng, n), RandomBitVector(rng, n)}

	// Each stripe is a copy and two folds; the failure lands after the
	// first stripes have finished their whole chain.
	acc.SetExecutor(&failNth{inner: acc.BaseExecutor(), n: 2*stripes + 3})
	if _, err := acc.Reduce(OpAnd, NewBitVector(n), vs...); !errors.Is(err, errInjected) {
		t.Fatalf("Reduce: got %v, want the injected failure", err)
	}
	if totals := acc.Totals(); totals != (Stats{}) {
		t.Errorf("failed Reduce charged totals %+v", totals)
	}
	snap := acc.Snapshot()
	for op := engine.OpNOT; op <= engine.OpCOPY; op++ {
		if got := snap.Counter("acc.op.count." + op.String()); got != 0 {
			t.Errorf("failed Reduce recorded acc.op.count.%v = %d", op, got)
		}
	}
}

// TestReduceOneSpanOneDispatch: Accelerator.Reduce is one facade
// operation on either tier — one Reduce(<op>) span, and one fast-path hit
// or fallback per call. Every other call kind emits one facade span per
// call too: an EvalExpr one Eval span, an ArithProg one Arith(<op>/<w>)
// span, above the stripe and engine spans of all their steps.
func TestReduceOneSpanOneDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	// facadeSpans runs call under a fresh tracer and returns the names of
	// the facade spans it emitted.
	facadeSpans := func(acc *Accelerator, call func() error) []string {
		t.Helper()
		tr := &collectTracer{}
		acc.SetTracer(tr)
		err := call()
		acc.SetTracer(nil)
		if err != nil {
			t.Fatal(err)
		}
		var facade []string
		for _, s := range tr.spans {
			if s.Cat == "facade" {
				facade = append(facade, s.Name)
			}
		}
		return facade
	}
	for _, slow := range []bool{false, true} {
		acc := newAcc(t, smallModule)
		if slow {
			acc.SetExecutor(acc.BaseExecutor())
		}
		n := 3*acc.cfg.Module.Columns + 7
		vs := []*BitVector{RandomBitVector(rng, n), RandomBitVector(rng, n), RandomBitVector(rng, n)}
		facade := facadeSpans(acc, func() error {
			_, err := acc.Reduce(OpOr, NewBitVector(n), vs...)
			return err
		})
		if len(facade) != 1 || facade[0] != "Reduce(OR)" {
			t.Errorf("slow=%v: facade spans %q, want one Reduce(OR)", slow, facade)
		}
		s := acc.Snapshot()
		hits, falls := s.Counter("acc.fastpath.hit"), s.Counter("acc.fastpath.fallback")
		wantHits, wantFalls := int64(1), int64(0)
		if slow {
			wantHits, wantFalls = 0, 1
		}
		if hits != wantHits || falls != wantFalls {
			t.Errorf("slow=%v: fastpath hit=%d fallback=%d, want %d and %d",
				slow, hits, falls, wantHits, wantFalls)
		}

		ce, err := CompileExpr("(a & ~b) | c")
		if err != nil {
			t.Fatal(err)
		}
		vars := map[string]*BitVector{"a": vs[0], "b": vs[1], "c": vs[2]}
		facade = facadeSpans(acc, func() error {
			_, _, err := acc.EvalExpr(ce, vars)
			return err
		})
		if len(facade) != 1 || facade[0] != "Eval" {
			t.Errorf("slow=%v: facade spans %q, want one Eval", slow, facade)
		}

		tc := arithCase{ArithAdd, 8}
		ca, err := CompileArith(tc.op, tc.w)
		if err != nil {
			t.Fatal(err)
		}
		in := newArithInput(t, rng, tc, n)
		facade = facadeSpans(acc, func() error {
			_, _, err := acc.ArithProg(ca, in.xv, in.yv, in.mask)
			return err
		})
		if len(facade) != 1 || facade[0] != "Arith(add/8)" {
			t.Errorf("slow=%v: facade spans %q, want one Arith(add/8) over its %d steps", slow, facade, ca.Steps())
		}
	}
}
