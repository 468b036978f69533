package elp2im

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
)

// fastpathConfigs enumerates every engine/reserved-row combination the
// fast path must agree with the command-accurate model on.
func fastpathConfigs() map[string][]func(*Config) {
	return map[string][]func(*Config){
		"elp2im-1":  {smallModule},
		"elp2im-2":  {smallModule, func(c *Config) { c.ReservedRows = 2 }},
		"elp2im-ht": {smallModule, func(c *Config) { c.HighThroughputMode = true }},
		"ambit":     {smallModule, func(c *Config) { c.Design = DesignAmbit }},
		"drisa":     {smallModule, func(c *Config) { c.Design = DesignDrisaNOR }},
	}
}

// fastSlowPair builds two accelerators from one configuration: the default
// (compiled-kernel) one and its command-accurate twin.
func fastSlowPair(t *testing.T, muts []func(*Config)) (fast, slow *Accelerator) {
	t.Helper()
	return newAcc(t, muts...), newCmdAcc(t, muts...)
}

// TestFastpathMatchesCommandPath is the differential gate of the compiled
// kernels: for every engine, reserved-row configuration, operation, and a
// spread of vector lengths (multi-stripe, single-word, ragged tails,
// partial final stripes), Op must produce bit-identical results and
// bit-identical modeled costs on both execution paths.
func TestFastpathMatchesCommandPath(t *testing.T) {
	allOps := []Op{OpNot, OpAnd, OpOr, OpNand, OpNor, OpXor, OpXnor, OpCopy}
	rng := rand.New(rand.NewSource(11))
	// smallModule has 128 columns: cover one word, one exact stripe, a
	// ragged tail inside one stripe, several stripes, a partial final
	// stripe, and two random ragged lengths.
	lengths := []int{
		64, 128, 50, 128 * 3, 128*2 + 37, 128*5 + 1,
		1 + rng.Intn(2000), 1 + rng.Intn(2000),
	}
	for name, muts := range fastpathConfigs() {
		fast, slow := fastSlowPair(t, muts)
		for _, op := range allOps {
			for _, n := range lengths {
				x := RandomBitVector(rng, n)
				y := RandomBitVector(rng, n)
				var yArg *BitVector
				if !op.Unary() {
					yArg = y
				}
				dFast := NewBitVector(n)
				dSlow := NewBitVector(n)
				stFast, err := fast.Op(op, dFast, x, yArg)
				if err != nil {
					t.Fatalf("%s/%v/n=%d fast: %v", name, op, n, err)
				}
				stSlow, err := slow.Op(op, dSlow, x, yArg)
				if err != nil {
					t.Fatalf("%s/%v/n=%d slow: %v", name, op, n, err)
				}
				if !dFast.Equal(dSlow) {
					t.Fatalf("%s/%v/n=%d: fast path result diverges from command path", name, op, n)
				}
				want := NewBitVector(n)
				golden(op, want, x, y)
				if !dFast.Equal(want) {
					t.Fatalf("%s/%v/n=%d: both paths disagree with golden", name, op, n)
				}
				if stFast != stSlow {
					t.Fatalf("%s/%v/n=%d: modeled cost diverges: fast %+v, slow %+v",
						name, op, n, stFast, stSlow)
				}
			}
		}
		// Every fast-accelerator dispatch must have hit the kernels and
		// every slow one must have fallen back.
		fs := fast.Snapshot()
		if fs.Counter("acc.fastpath.hit") == 0 || fs.Counter("acc.fastpath.fallback") != 0 {
			t.Errorf("%s: fast accelerator hit=%d fallback=%d", name,
				fs.Counter("acc.fastpath.hit"), fs.Counter("acc.fastpath.fallback"))
		}
		ss := slow.Snapshot()
		if ss.Counter("acc.fastpath.hit") != 0 || ss.Counter("acc.fastpath.fallback") == 0 {
			t.Errorf("%s: slow accelerator hit=%d fallback=%d", name,
				ss.Counter("acc.fastpath.hit"), ss.Counter("acc.fastpath.fallback"))
		}
	}
}

// TestFastpathReduceMatchesCommandPath runs the chained reduction on both
// paths for every configuration and both foldable operations.
func TestFastpathReduceMatchesCommandPath(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for name, muts := range fastpathConfigs() {
		fast, slow := fastSlowPair(t, muts)
		for _, op := range []Op{OpAnd, OpOr} {
			for _, n := range []int{128 * 3, 128*2 + 37, 200} {
				vs := make([]*BitVector, 4)
				for i := range vs {
					vs[i] = RandomBitVector(rng, n)
				}
				dFast := NewBitVector(n)
				dSlow := NewBitVector(n)
				stFast, err := fast.Reduce(op, dFast, vs...)
				if err != nil {
					t.Fatalf("%s/%v/n=%d fast: %v", name, op, n, err)
				}
				stSlow, err := slow.Reduce(op, dSlow, vs...)
				if err != nil {
					t.Fatalf("%s/%v/n=%d slow: %v", name, op, n, err)
				}
				if !dFast.Equal(dSlow) {
					t.Fatalf("%s/%v/n=%d: reduce fast path diverges", name, op, n)
				}
				if stFast != stSlow {
					t.Fatalf("%s/%v/n=%d: reduce cost diverges: fast %+v, slow %+v",
						name, op, n, stFast, stSlow)
				}
			}
		}
	}
}

// TestFastpathReduceIntoOperandMatchesCommandPath runs the accumulate
// pattern acc op= v1 op v2 — Reduce(op, acc, acc, v1, v2), whose
// destination is its own first operand — on both tiers for every
// configuration, over one stripe, ragged tails and more stripes than one
// fused block holds: the bits must match the golden fold, and Stats must
// be struct-equal.
func TestFastpathReduceIntoOperandMatchesCommandPath(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for name, muts := range fastpathConfigs() {
		fast, slow := fastSlowPair(t, muts)
		for _, op := range []Op{OpAnd, OpOr} {
			for _, n := range []int{128, 128*2 + 37, 200, 128*600 + 5} {
				start := RandomBitVector(rng, n)
				v1, v2 := RandomBitVector(rng, n), RandomBitVector(rng, n)
				want := NewBitVector(n)
				golden(OpCopy, want, start, nil)
				golden(op, want, want, v1)
				golden(op, want, want, v2)
				var sts [2]Stats
				for i, acc := range []*Accelerator{fast, slow} {
					dst := NewBitVector(n)
					golden(OpCopy, dst, start, nil)
					st, err := acc.Reduce(op, dst, dst, v1, v2)
					if err != nil {
						t.Fatalf("%s/%v/n=%d tier %d: %v", name, op, n, i, err)
					}
					if !dst.Equal(want) {
						t.Fatalf("%s/%v/n=%d tier %d: accumulated result disagrees with golden", name, op, n, i)
					}
					sts[i] = st
				}
				if sts[0] != sts[1] {
					t.Fatalf("%s/%v/n=%d: reduce cost diverges: fast %+v, slow %+v", name, op, n, sts[0], sts[1])
				}
			}
		}
	}
}

// TestFastpathChainMatchesCommandPath runs a dependency chain — an op
// whose destination is its own operand, then a reduction — on both paths.
func TestFastpathChainMatchesCommandPath(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for name, muts := range fastpathConfigs() {
		fast, slow := fastSlowPair(t, muts)
		n := 128*3 + 29
		a := RandomBitVector(rng, n)
		b := RandomBitVector(rng, n)
		c := RandomBitVector(rng, n)
		run := func(acc *Accelerator) (*BitVector, *BitVector, Stats) {
			t.Helper()
			acc.ResetTotals()
			tmp := NewBitVector(n)
			red := NewBitVector(n)
			if _, err := acc.Op(OpXor, tmp, a, b); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if _, err := acc.Op(OpNand, tmp, tmp, c); err != nil {
				t.Fatalf("%s: in-place NAND: %v", name, err)
			}
			if _, err := acc.Reduce(OpOr, red, tmp, b, c); err != nil {
				t.Fatalf("%s: reduce: %v", name, err)
			}
			return tmp, red, acc.Totals()
		}
		dFast, rFast, stFast := run(fast)
		dSlow, rSlow, stSlow := run(slow)
		if !dFast.Equal(dSlow) || !rFast.Equal(rSlow) {
			t.Fatalf("%s: chained fast path diverges from command path", name)
		}
		if stFast != stSlow {
			t.Fatalf("%s: chained cost diverges: fast %+v, slow %+v", name, stFast, stSlow)
		}
	}
}

// TestFastpathEvalMatchesCommandPath evaluates compiled expressions on
// both paths, including the bare-variable edge case.
func TestFastpathEvalMatchesCommandPath(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	exprs := []string{
		"(a & ~b) | (c ^ d)",
		"~(a | b) ^ (c & ~d)",
		"a",
	}
	for name, muts := range fastpathConfigs() {
		fast, slow := fastSlowPair(t, muts)
		for _, src := range exprs {
			for _, n := range []int{128 * 2, 128 + 91} {
				vars := map[string]*BitVector{
					"a": RandomBitVector(rng, n),
					"b": RandomBitVector(rng, n),
					"c": RandomBitVector(rng, n),
					"d": RandomBitVector(rng, n),
				}
				outFast, stFast, err := fast.Eval(src, vars)
				if err != nil {
					t.Fatalf("%s/%q fast: %v", name, src, err)
				}
				outSlow, stSlow, err := slow.Eval(src, vars)
				if err != nil {
					t.Fatalf("%s/%q slow: %v", name, src, err)
				}
				if !outFast.Equal(outSlow) {
					t.Fatalf("%s/%q/n=%d: eval fast path diverges", name, src, n)
				}
				if stFast != stSlow {
					t.Fatalf("%s/%q/n=%d: eval cost diverges: fast %+v, slow %+v",
						name, src, n, stFast, stSlow)
				}
			}
		}
	}
}

// TestFaultWrapperForcesCommandPath checks the wrapper contract: installing
// a fault injector with SetExecutor must route operations through the
// command-accurate model (the injector sees real commands and its counters
// advance), and SetExecutor(nil) must restore the fast path.
func TestFaultWrapperForcesCommandPath(t *testing.T) {
	acc := newAcc(t, smallModule)
	inj, err := fault.New(acc.BaseExecutor(), 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	acc.SetExecutor(inj)

	// One stripe: the injector is not safe for concurrent use, and a
	// single-stripe operation runs serially.
	n := acc.cfg.Module.Columns
	rng := rand.New(rand.NewSource(15))
	x := RandomBitVector(rng, n)
	y := RandomBitVector(rng, n)
	dst := NewBitVector(n)
	if _, err := acc.Op(OpAnd, dst, x, y); err != nil {
		t.Fatal(err)
	}
	if inj.Ops == 0 || inj.Injected == 0 {
		t.Fatalf("injector saw ops=%d injected=%d; wrapper was bypassed", inj.Ops, inj.Injected)
	}
	// Rate 1 flips every result bit, so the output must be the exact
	// complement of the true AND — only command-level execution shows this.
	want := NewBitVector(n)
	golden(OpNand, want, x, y)
	if !dst.Equal(want) {
		t.Fatal("rate-1 injector did not complement the result; fast path leaked past the wrapper")
	}
	s := acc.Snapshot()
	if s.Counter("acc.fastpath.fallback") == 0 || s.Counter("acc.fastpath.hit") != 0 {
		t.Fatalf("wrapped executor: hit=%d fallback=%d",
			s.Counter("acc.fastpath.hit"), s.Counter("acc.fastpath.fallback"))
	}

	// Restoring the engine re-enables the fast path and correct results.
	acc.SetExecutor(nil)
	if _, err := acc.Op(OpAnd, dst, x, y); err != nil {
		t.Fatal(err)
	}
	golden(OpAnd, want, x, y)
	if !dst.Equal(want) {
		t.Fatal("result wrong after restoring the engine executor")
	}
	if got := acc.Snapshot().Counter("acc.fastpath.hit"); got != 1 {
		t.Fatalf("acc.fastpath.hit = %d after SetExecutor(nil), want 1", got)
	}
}

// TestFaultWrapperKeepsConsumedOperands: on ELP2IM with two reserved
// rows, whose XOR and XNOR consume operand A's row, a rate-0 injector and
// a detector return the host's bits, and the detector flags nothing. Both
// forward ConsumesOperandA, so a program re-stages an operand a later
// instruction reads ((a ^ b) | a lowers to an XOR whose A a later fold
// reads), and the detector's redundant run and difference XOR consume
// none of the rows the program reads. One stripe runs serially: the
// wrappers are not safe for concurrent use.
func TestFaultWrapperKeepsConsumedOperands(t *testing.T) {
	twoRows := func(c *Config) { c.ReservedRows = 2 }
	rows := DefaultConfig().Module.RowsPerSubarray
	for name, wrap := range map[string]func(Executor) (Executor, error){
		"injector": func(ex Executor) (Executor, error) { return fault.New(ex, 0, 1) },
		"detector": func(ex Executor) (Executor, error) { return fault.NewDetecting(ex, rows-3, rows-4) },
	} {
		acc := newAcc(t, twoRows)
		w, err := wrap(acc.BaseExecutor())
		if err != nil {
			t.Fatal(err)
		}
		acc.SetExecutor(w)
		n := acc.cfg.Module.Columns
		for i, src := range []string{"(a ^ b) | a", "(a ^ b) ^ a"} {
			vars, want := evalOracleVars(t, rand.New(rand.NewSource(int64(30+i))), src, n)
			got, _, err := acc.Eval(src, vars)
			if err != nil {
				t.Fatalf("%s %q: %v", name, src, err)
			}
			if !got.Equal(want) {
				t.Errorf("%s %q: result differs from the host", name, src)
			}
		}
		rng := rand.New(rand.NewSource(32))
		x, y := RandomBitVector(rng, n), RandomBitVector(rng, n)
		dst, want := NewBitVector(n), NewBitVector(n)
		if _, err := acc.Op(OpAnd, dst, x, y); err != nil {
			t.Fatalf("%s AND: %v", name, err)
		}
		golden(OpAnd, want, x, y)
		if !dst.Equal(want) {
			t.Errorf("%s AND: result differs from the host", name)
		}
		if det, ok := w.(*fault.DetectingExecutor); ok && (det.Detected != 0 || det.Ops == 0) {
			t.Errorf("detector flagged %d of %d fault-free operations", det.Detected, det.Ops)
		}
	}
}

// TestFastpathCountsOnlyOpAndReduce pins the tier counters' split on the
// command-accurate tier: Eval and Arith steps tick acc.fusion.fallback —
// one per EvalExpr, one per µProgram step of an ArithProg — and leave
// acc.fastpath.*, which counts Op and Reduce dispatches only, alone.
func TestFastpathCountsOnlyOpAndReduce(t *testing.T) {
	acc := newCmdAcc(t, smallModule)
	rng := rand.New(rand.NewSource(18))
	n := 3*acc.cfg.Module.Columns + 5
	counters := func(stage string, fusion, fastpath int64) {
		t.Helper()
		s := acc.Snapshot()
		for name, want := range map[string]int64{
			"acc.fusion.hit": 0, "acc.fusion.fallback": fusion,
			"acc.fastpath.hit": 0, "acc.fastpath.fallback": fastpath,
		} {
			if got := s.Counter(name); got != want {
				t.Errorf("after %s: %s = %d, want %d", stage, name, got, want)
			}
		}
	}

	ce, err := CompileExpr("(a & ~b) | c")
	if err != nil {
		t.Fatal(err)
	}
	vars := map[string]*BitVector{
		"a": RandomBitVector(rng, n), "b": RandomBitVector(rng, n), "c": RandomBitVector(rng, n),
	}
	if _, _, err := acc.EvalExpr(ce, vars); err != nil {
		t.Fatal(err)
	}
	counters("EvalExpr", 1, 0)

	tc := arithCase{ArithAdd, 8}
	ca, err := CompileArith(tc.op, tc.w)
	if err != nil {
		t.Fatal(err)
	}
	in := newArithInput(t, rng, tc, n)
	if _, _, err := acc.ArithProg(ca, in.xv, in.yv, in.mask); err != nil {
		t.Fatal(err)
	}
	counters("ArithProg", 1+int64(ca.Steps()), 0)

	if _, err := acc.Op(OpAnd, NewBitVector(n), vars["a"], vars["b"]); err != nil {
		t.Fatal(err)
	}
	if _, err := acc.Reduce(OpOr, NewBitVector(n), vars["a"], vars["b"], vars["c"]); err != nil {
		t.Fatal(err)
	}
	counters("Op and Reduce", 1+int64(ca.Steps()), 2)
}

// TestFastpathOffReduceFoldsInPlace pins the paper's in-place fold on the
// command-accurate tier. With ELP2IM's engine installed as the executor,
// Reduce(AND) over k vectors and s stripes runs each fold as Figure
// 5(a)'s APP-AP through ExecuteInPlace, which records ChainStats: it adds
// s·(k−1)·ChainStats(AND).Commands to engine.commands.ELP2IM.AND. Under a
// wrapper that is not an engine, the same Reduce takes the three-operand
// form, so the wrapper sees every fold, and adds
// s·(k−1)·OpStats(AND).Commands.
func TestFastpathOffReduceFoldsInPlace(t *testing.T) {
	const k = 4
	acc := newAcc(t, smallModule)
	n := 3*acc.cfg.Module.Columns + 7
	stripes := int64(acc.stripes(n))
	rng := rand.New(rand.NewSource(19))
	vs := make([]*BitVector, k)
	for i := range vs {
		vs[i] = RandomBitVector(rng, n)
	}
	want := NewBitVector(n)
	golden(OpCopy, want, vs[0], nil)
	for _, v := range vs[1:] {
		golden(OpAnd, want, want, v)
	}

	chain, err := acc.eng.ChainStats(engine.OpAND)
	if err != nil {
		t.Fatal(err)
	}
	three := acc.eng.OpStats(engine.OpAND)
	if chain.Commands == three.Commands {
		t.Fatalf("chained and three-operand AND both take %d commands; the counter cannot tell them apart", chain.Commands)
	}
	inj, err := fault.New(acc.BaseExecutor(), 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ex   Executor
		per  engine.Stats
	}{
		{"engine", acc.BaseExecutor(), chain},
		{"wrapper", inj, three},
	} {
		acc.SetExecutor(tc.ex)
		before := acc.Snapshot().Counter("engine.commands.ELP2IM.AND")
		dst := NewBitVector(n)
		if _, err := acc.Reduce(OpAnd, dst, vs...); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !dst.Equal(want) {
			t.Fatalf("%s: reduction result wrong", tc.name)
		}
		got := acc.Snapshot().Counter("engine.commands.ELP2IM.AND") - before
		if want := stripes * (k - 1) * int64(tc.per.Commands); got != want {
			t.Errorf("%s: engine.commands.ELP2IM.AND rose by %d, want %d", tc.name, got, want)
		}
	}
}

// TestFastpathStripeAllocFree is the zero-allocation gate on the fused
// tier's stripe body, run one stripe at a time as a traced call runs it,
// over an AND, a NOT and an in-place AND fold.
func TestFastpathStripeAllocFree(t *testing.T) {
	acc := newAcc(t, smallModule)
	cols := acc.cfg.Module.Columns
	n := cols*4 + 37
	dst := NewBitVector(n)
	x := RandomBitVector(rand.New(rand.NewSource(16)), n)
	y := RandomBitVector(rand.New(rand.NewSource(17)), n)
	stripes := (n + cols - 1) / cols
	pr := acc.getRunner(true, "", "")
	and := pr.step(gatePlans[engine.OpAND], dst.v)
	and[0], and[1] = x.v, y.v
	pr.step(gatePlans[engine.OpNOT], dst.v)[0] = x.v
	fold := pr.step(foldPlans[engine.OpAND], dst.v)
	fold[0], fold[1] = x.v, dst.v
	pr.resolve()
	if pr.cmd {
		t.Fatal("a step did not resolve to the fused tier")
	}
	scr := make([]uint64, pr.scratch)
	allocs := testing.AllocsPerRun(100, func() {
		for s := 0; s < stripes; s++ {
			if _, err := pr.walk(scr, nil, s, s+1); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("fast-path stripe body allocates %.1f/op, want 0", allocs)
	}
}

// TestFastpathConcurrentWithExecutorSwaps hammers one accelerator with
// concurrent ops and reductions, and executor swaps that flip every
// in-flight dispatch decision between the two paths. Results must stay
// correct throughout (run under -race by scripts/lint.sh).
func TestFastpathConcurrentWithExecutorSwaps(t *testing.T) {
	acc := newAcc(t, smallModule)
	const n = 128 * 4
	errc := make(chan error, 16)

	// Toggler: BaseExecutor() is the engine itself, so wrapping it forces
	// the command path without adding non-thread-safe state.
	stop := make(chan struct{})
	var toggler sync.WaitGroup
	toggler.Add(1)
	go func() {
		defer toggler.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				acc.SetExecutor(acc.BaseExecutor())
			} else {
				acc.SetExecutor(nil)
			}
		}
	}()

	var workers sync.WaitGroup
	for g := 0; g < 4; g++ {
		workers.Add(1)
		go func(g int) {
			defer workers.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < 20; i++ {
				x := RandomBitVector(rng, n)
				y := RandomBitVector(rng, n)
				dst := NewBitVector(n)
				if _, err := acc.Op(OpXor, dst, x, y); err != nil {
					errc <- err
					return
				}
				want := NewBitVector(n)
				golden(OpXor, want, x, y)
				if !dst.Equal(want) {
					errc <- fmt.Errorf("goroutine %d iter %d: wrong XOR under executor swaps", g, i)
					return
				}
			}
		}(g)
	}
	workers.Add(1)
	go func() {
		defer workers.Done()
		rng := rand.New(rand.NewSource(200))
		x := RandomBitVector(rng, n)
		y := RandomBitVector(rng, n)
		dst := NewBitVector(n)
		want := NewBitVector(n)
		golden(OpAnd, want, x, y)
		for i := 0; i < 20; i++ {
			if _, err := acc.Reduce(OpAnd, dst, x, y); err != nil {
				errc <- err
				return
			}
			if !dst.Equal(want) {
				errc <- fmt.Errorf("iter %d: reduced AND wrong under executor swaps", i)
				return
			}
		}
	}()

	workers.Wait()
	close(stop)
	toggler.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
