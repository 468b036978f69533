package kernel

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/ambit"
	"repro/internal/bitvec"
	"repro/internal/dram"
	"repro/internal/drisa"
	"repro/internal/elpim"
	"repro/internal/engine"
)

// allOps is every operation the facade dispatches.
var allOps = []engine.Op{
	engine.OpNOT, engine.OpAND, engine.OpOR, engine.OpNAND,
	engine.OpNOR, engine.OpXOR, engine.OpXNOR, engine.OpCOPY,
}

// engines returns the derivation targets: each design under every
// reserved-row configuration the facade exposes.
func engines(t *testing.T) map[string]engine.Executor {
	t.Helper()
	one := elpim.DefaultConfig()
	two := elpim.DefaultConfig()
	two.ReservedRows = 2
	ht := elpim.DefaultConfig()
	ht.Mode = elpim.HighThroughput
	return map[string]engine.Executor{
		"elpim-1":  elpim.MustNew(one),
		"elpim-2":  elpim.MustNew(two),
		"elpim-ht": elpim.MustNew(ht),
		"ambit":    ambit.MustNew(ambit.DefaultConfig()),
		"drisa":    drisa.MustNew(drisa.DefaultConfig()),
	}
}

// TestDeriveMatchesGolden derives every op's kernel from every engine and
// checks the compiled function against the host golden model on random
// words.
func TestDeriveMatchesGolden(t *testing.T) {
	mod := dram.Default()
	rng := rand.New(rand.NewSource(7))
	for name, exec := range engines(t) {
		for _, op := range allOps {
			k, err := Derive(exec, op, mod)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, op, err)
			}
			if k.Op() != op || k.Unary() != op.Unary() {
				t.Fatalf("%s/%v: kernel metadata %v", name, op, k)
			}
			const n = 4 * 64
			a := bitvec.Random(rng, n)
			b := bitvec.Random(rng, n)
			want := bitvec.New(n)
			op.Golden(want, a, b)
			dst := make([]uint64, n/64)
			k.Apply(dst, a.Words(), b.Words())
			got := bitvec.FromWords(dst, n)
			if !got.Equal(want) {
				t.Fatalf("%s/%v (%v): kernel disagrees with golden\n got %v\nwant %v",
					name, op, k, got, want)
			}
		}
	}
}

// TestDeriveTables spot-checks the derived truth tables against the
// canonical encodings.
func TestDeriveTables(t *testing.T) {
	e := elpim.MustNew(elpim.DefaultConfig())
	mod := dram.Default()
	want := map[engine.Op]uint8{
		engine.OpAND:  0b1000,
		engine.OpOR:   0b1110,
		engine.OpXOR:  0b0110,
		engine.OpXNOR: 0b1001,
		engine.OpNAND: 0b0111,
		engine.OpNOR:  0b0001,
		engine.OpNOT:  0b01,
		engine.OpCOPY: 0b10,
	}
	for op, table := range want {
		k, err := Derive(e, op, mod)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if k.Table() != table {
			t.Errorf("%v: table %04b, want %04b", op, k.Table(), table)
		}
	}
}

// brokenExec returns a result that depends on bit position, which no pure
// bitwise kernel can express.
type brokenExec struct{}

func (brokenExec) Execute(sub *dram.Subarray, op engine.Op, dst, a, b int) error {
	row := bitvec.New(sub.Columns())
	row.SetBit(5, true) // position-dependent: passes a 4-bit probe read
	sub.LoadRow(dst, row)
	return nil
}

// failingExec rejects every operation.
type failingExec struct{}

func (failingExec) Execute(*dram.Subarray, engine.Op, int, int, int) error {
	return errors.New("nope")
}

// TestDeriveRejectsNonBitwise checks the verification pass: an executor
// whose behaviour is not a per-bit function must not compile.
func TestDeriveRejectsNonBitwise(t *testing.T) {
	if _, err := Derive(brokenExec{}, engine.OpAND, dram.Default()); err == nil {
		t.Fatal("expected verification failure for position-dependent executor")
	}
	if _, err := Derive(failingExec{}, engine.OpAND, dram.Default()); err == nil {
		t.Fatal("expected probe failure for erroring executor")
	}
	if _, err := Derive(nil, engine.OpAND, dram.Default()); err == nil {
		t.Fatal("expected error for nil executor")
	}
}

// tableWord is the host oracle of a 4-entry truth table over words: the
// OR of the minterms the table sets (bit i = t(a=i&1, b=i>>1&1)).
func tableWord(t uint8, a, b uint64) uint64 {
	var w uint64
	for i, m := range [4]uint64{^a &^ b, a &^ b, ^a & b, a & b} {
		if t>>uint(i)&1 == 1 {
			w |= m
		}
	}
	return w
}

// TestAllBinaryTables exercises all 16 gate loops directly (engines only
// produce 8 of them), and the 4 unary tables through the same loops with
// a nil second operand as unary kernels run them, at lengths 0–9: the
// unrolled body and the tail each run alone and together.
func TestAllBinaryTables(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 0; n <= 9; n++ {
		a, b := make([]uint64, n), make([]uint64, n)
		for i := range a {
			a[i], b[i] = rng.Uint64(), rng.Uint64()
		}
		for table := uint8(0); table < 16; table++ {
			dst := make([]uint64, n)
			gateLoops[table](dst, a, b, nil, nil)
			for w := range dst {
				if want := tableWord(table, a[w], b[w]); dst[w] != want {
					t.Fatalf("table %04b n=%d: word %d = %016x, want %016x", table, n, w, dst[w], want)
				}
			}
		}
		for table := uint8(0); table < 4; table++ {
			dst := make([]uint64, n)
			gateLoops[table|table<<2](dst, a, nil, nil, nil)
			for w := range dst {
				if want := tableWord(table|table<<2, a[w], 0); dst[w] != want {
					t.Fatalf("unary table %02b n=%d: word %d = %016x, want %016x", table, n, w, dst[w], want)
				}
			}
		}
	}
}

// TestTwoLevelLoops checks every two-level loop against its Go
// expression q(l(a,b), r(c,d)) at lengths 0–9, into a fresh dst and
// then with dst aliasing each operand the loop reads in turn (pack lets
// a pass write over a dying operand's register).
func TestTwoLevelLoops(t *testing.T) {
	core := func(c int, x, y uint64) uint64 {
		switch c {
		case coreAnd:
			return x & y
		case coreOr:
			return x | y
		case coreXor:
			return x ^ y
		}
		return x // coreBare: the operand alone
	}
	rng := rand.New(rand.NewSource(9))
	loops := 0
	for q := coreAnd; q <= coreXor; q++ {
		for l := coreAnd; l <= coreBare; l++ {
			for r := coreAnd; r <= coreBare; r++ {
				fn := twoLevel[q][l][r]
				if want := l <= r && l != coreBare; (fn != nil) != want {
					t.Fatalf("twoLevel[%d][%d][%d]: present %v, want %v", q, l, r, fn != nil, want)
				}
				if fn == nil {
					continue
				}
				loops++
				reads := 4
				if r == coreBare {
					reads = 3
				}
				for n := 0; n <= 9; n++ {
					var src [4][]uint64
					want := make([]uint64, n)
					for j := range src {
						src[j] = make([]uint64, n)
						for i := range src[j] {
							src[j][i] = rng.Uint64()
						}
					}
					for i := range want {
						want[i] = core(q, core(l, src[0][i], src[1][i]), core(r, src[2][i], src[3][i]))
					}
					for alias := -1; alias < reads; alias++ {
						var ops [4][]uint64
						for j := range ops {
							ops[j] = append([]uint64(nil), src[j]...)
						}
						dst := make([]uint64, n)
						if alias >= 0 {
							dst = ops[alias]
						}
						fn(dst, ops[0], ops[1], ops[2], ops[3])
						for i := range want {
							if dst[i] != want[i] {
								t.Fatalf("twoLevel[%d][%d][%d] n=%d alias=%d: word %d = %016x, want %016x",
									q, l, r, n, alias, i, dst[i], want[i])
							}
						}
					}
				}
			}
		}
	}
	if loops != 27 {
		t.Fatalf("%d two-level loops, want 27", loops)
	}
}

// TestApplyAliasing checks that dst may alias an operand (the reduction
// fold applies kernels in place on the accumulator).
func TestApplyAliasing(t *testing.T) {
	e := elpim.MustNew(elpim.DefaultConfig())
	k, err := Derive(e, engine.OpAND, dram.Default())
	if err != nil {
		t.Fatal(err)
	}
	x, y := fusedVerifyWords[0], fusedVerifyWords[1]
	dst := []uint64{x, y}
	a := []uint64{y, x}
	k.Apply(dst, a, dst)
	if dst[0] != x&y || dst[1] != y&x {
		t.Fatalf("aliased apply wrong: %x", dst)
	}
}

// TestApplyAllocFree is the zero-allocation gate on the compiled loops.
func TestApplyAllocFree(t *testing.T) {
	e := elpim.MustNew(elpim.DefaultConfig())
	mod := dram.Default()
	for _, op := range allOps {
		k, err := Derive(e, op, mod)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]uint64, 128)
		a := make([]uint64, 128)
		b := make([]uint64, 128)
		if allocs := testing.AllocsPerRun(100, func() { k.Apply(dst, a, b) }); allocs != 0 {
			t.Errorf("%v: Apply allocates %.1f/op", op, allocs)
		}
	}
}

// TestSetConcurrent hammers one Set from many goroutines; every caller
// must observe the same kernel instance and derivation must happen once.
func TestSetConcurrent(t *testing.T) {
	s := NewSet(elpim.MustNew(elpim.DefaultConfig()), dram.Default())
	var wg sync.WaitGroup
	results := make([]*Kernel, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k, err := s.Kernel(engine.OpXOR)
			if err != nil {
				panic(fmt.Sprintf("derive: %v", err))
			}
			results[i] = k
		}(i)
	}
	wg.Wait()
	for _, k := range results[1:] {
		if k != results[0] {
			t.Fatal("Set returned distinct kernel instances for one op")
		}
	}
}

// TestSetCachesErrors checks that a failed derivation is memoized.
func TestSetCachesErrors(t *testing.T) {
	s := NewSet(failingExec{}, dram.Default())
	_, err1 := s.Kernel(engine.OpAND)
	_, err2 := s.Kernel(engine.OpAND)
	if err1 == nil || err2 == nil {
		t.Fatal("expected cached derivation error")
	}
	if _, err := s.Kernel(engine.Op(99)); err == nil {
		t.Fatal("expected error for out-of-range op")
	}
}
