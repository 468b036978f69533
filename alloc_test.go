package elp2im

import (
	"math/rand"
	"runtime"
	"testing"
)

// pinProcs fixes GOMAXPROCS for the test, so the word tiers fork the
// same number of workers on every host.
func pinProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// arithAllocBase bounds a steady-state ArithProg's allocations: the
// bindings map, the result header, the call's resolved steps and the
// one fork-join of its workers.
const arithAllocBase = 24

// TestArithProgAllocs is the allocation gate on vertical arithmetic. At
// 1 Mi elements, a steady-state ArithProg — one whose caller recycles
// each result, as elpd does when it replaces a stored destination —
// allocates a constant however many steps the µProgram runs and however
// many slices it writes: every step resolves into allocations shared by
// the whole call, the workers walk on pooled scratch, and the result
// and temp slices are leased from the slice pool. Any per-step
// allocation shows up dozens of times over on the width-32 add (93
// steps) and popcount (88 steps), and any per-slice one 32 times over on
// add's result.
func TestArithProgAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs in the plain pass")
	}
	pinProcs(t, 2)
	const n = 1 << 20
	acc := newAcc(t)
	rng := rand.New(rand.NewSource(29))
	// The arith_wire mix: six operations at widths 8, 16 and 32.
	ops := []ArithOp{ArithAdd, ArithSub, ArithLt, ArithEq, ArithPopcount, ArithSelect}
	for _, w := range []int{8, 16, 32} {
		x, y, m := randomOperands(rng, n)
		xv, err := VerticalFromElements(x, w)
		if err != nil {
			t.Fatal(err)
		}
		yv, err := VerticalFromElements(y, w)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			ca, err := CompileArith(op, w)
			if err != nil {
				t.Fatal(err)
			}
			var yy *Vertical
			if op.Binary() {
				yy = yv
			}
			var mm *BitVector
			if op.Masked() {
				mm = m
			}
			allocs := testing.AllocsPerRun(10, func() {
				out, _, err := acc.ArithProg(ca, xv, yy, mm)
				if err != nil {
					t.Fatal(err)
				}
				acc.Recycle(out)
			})
			if allocs > arithAllocBase {
				t.Errorf("%s/w%d (%d steps, %d slices): %.0f allocs/op, want ≤ %d",
					op, w, ca.Steps(), ca.OutWidth()+len(ca.prog.Temps), allocs, arithAllocBase)
			}
		}
	}
}

// TestOpAllocs is the allocation gate on the fast-path Op: a
// word-aligned AND below the fork threshold allocates at most the one
// closure it hands the stripe dispatcher.
func TestOpAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs in the plain pass")
	}
	acc := newAcc(t)
	const n = 1 << 16
	if words := n / 64; words >= fastSerialThresholdWords {
		t.Fatalf("%d words would fork the dispatcher", words)
	}
	rng := rand.New(rand.NewSource(37))
	x, y, dst := RandomBitVector(rng, n), RandomBitVector(rng, n), NewBitVector(n)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := acc.Op(OpAnd, dst, x, y); err != nil {
			t.Fatal(err)
		}
	})
	if acc.Snapshot().Counter("acc.fastpath.hit") == 0 {
		t.Fatal("Op did not run on the fast path")
	}
	if allocs > 1 {
		t.Errorf("fast-path Op allocates %.0f/op, want ≤ 1", allocs)
	}
}
