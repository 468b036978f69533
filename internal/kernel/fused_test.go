package kernel

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/dram"
	"repro/internal/elpim"
	"repro/internal/engine"
)

// softOp is the host golden model of one engine op over words.
func softOp(op engine.Op, a, b uint64) uint64 {
	switch op {
	case engine.OpNOT:
		return ^a
	case engine.OpCOPY:
		return a
	case engine.OpAND:
		return a & b
	case engine.OpOR:
		return a | b
	case engine.OpXOR:
		return a ^ b
	case engine.OpNAND:
		return ^(a & b)
	case engine.OpNOR:
		return ^(a | b)
	case engine.OpXNOR:
		return ^(a ^ b)
	default:
		panic(fmt.Sprintf("softOp: %v", op))
	}
}

// softSpec evaluates a fused spec in software over word-valued registers.
func softSpec(spec FusedSpec, inputs []uint64) uint64 {
	regs := make([]uint64, spec.Regs)
	copy(regs, inputs)
	for _, op := range spec.Ops {
		var b uint64
		if !op.Op.Unary() {
			b = regs[op.B]
		}
		regs[op.Dst] = softOp(op.Op, regs[op.A], b)
	}
	return regs[spec.Result]
}

// randomSpec builds a random well-formed register program over k inputs.
func randomSpec(rng *rand.Rand, k int) FusedSpec {
	nops := 1 + rng.Intn(8)
	spec := FusedSpec{K: k, Regs: k + nops}
	ops := []engine.Op{
		engine.OpNOT, engine.OpAND, engine.OpOR, engine.OpNAND,
		engine.OpNOR, engine.OpXOR, engine.OpXNOR,
	}
	for i := 0; i < nops; i++ {
		// Operands may be any input or any already-written scratch register.
		avail := k + i
		spec.Ops = append(spec.Ops, FusedOp{
			Op:  ops[rng.Intn(len(ops))],
			Dst: k + i,
			A:   rng.Intn(avail),
			B:   rng.Intn(avail),
		})
	}
	spec.Result = spec.Regs - 1
	return spec
}

// TestDeriveFusedMatchesSoftware derives random k-input specs from every
// engine and checks table and Apply against the software model.
func TestDeriveFusedMatchesSoftware(t *testing.T) {
	mod := dram.Default()
	for name, exec := range engines(t) {
		rng := rand.New(rand.NewSource(11))
		for k := 1; k <= MaxFusedInputs; k++ {
			for trial := 0; trial < 4; trial++ {
				spec := randomSpec(rng, k)
				f, err := DeriveFused(exec, spec, mod)
				if err != nil {
					t.Fatalf("%s k=%d: %v", name, k, err)
				}
				if f.K() != k {
					t.Fatalf("%s k=%d: K()=%d", name, k, f.K())
				}
				// Truth table against software evaluation of the packed
				// probe patterns.
				wantTab := softSpec(spec, varPat64[:k]) & tableMask(k)
				if f.Table() != wantTab {
					t.Fatalf("%s k=%d: table %#x, want %#x (spec %s)",
						name, k, f.Table(), wantTab, spec.CacheKey())
				}
				// Apply on random multi-word operands, including a ragged
				// non-multiple-of-block length.
				const words = fusedBlockWords + 17
				srcs := make([][]uint64, k)
				for j := range srcs {
					srcs[j] = make([]uint64, words)
					for w := range srcs[j] {
						srcs[j][w] = rng.Uint64()
					}
				}
				dst := make([]uint64, words)
				f.Apply(dst, srcs)
				in := make([]uint64, k)
				for w := 0; w < words; w++ {
					for j := range in {
						in[j] = srcs[j][w]
					}
					if want := softSpec(spec, in); dst[w] != want {
						t.Fatalf("%s k=%d word %d: got %016x want %016x (%v)",
							name, k, w, dst[w], want, f)
					}
				}
			}
		}
	}
}

// TestDeriveFusedDegenerate covers specs whose function is degenerate —
// a constant, a bare input, a complemented input: they derive like any
// other spec and run their own gates.
func TestDeriveFusedDegenerate(t *testing.T) {
	exec := elpim.MustNew(elpim.DefaultConfig())
	mod := dram.Default()
	cases := []struct {
		name string
		spec FusedSpec
		tab  uint64
	}{
		{
			name: "const0", // a ^ a
			spec: FusedSpec{K: 1, Regs: 2, Result: 1,
				Ops: []FusedOp{{Op: engine.OpXOR, Dst: 1, A: 0, B: 0}}},
			tab: 0b00,
		},
		{
			name: "const1", // a xnor a
			spec: FusedSpec{K: 1, Regs: 2, Result: 1,
				Ops: []FusedOp{{Op: engine.OpXNOR, Dst: 1, A: 0, B: 0}}},
			tab: 0b11,
		},
		{
			name: "identity", // (a & b) | a = a
			spec: FusedSpec{K: 2, Regs: 4, Result: 3,
				Ops: []FusedOp{
					{Op: engine.OpAND, Dst: 2, A: 0, B: 1},
					{Op: engine.OpOR, Dst: 3, A: 2, B: 0},
				}},
			tab: 0b1010,
		},
		{
			name: "not-b", // ~~~b
			spec: FusedSpec{K: 2, Regs: 3, Result: 2,
				Ops: []FusedOp{
					{Op: engine.OpNOT, Dst: 2, A: 1},
					{Op: engine.OpNOT, Dst: 2, A: 2},
					{Op: engine.OpNOT, Dst: 2, A: 2},
				}},
			tab: 0b0011,
		},
	}
	for _, tc := range cases {
		f, err := DeriveFused(exec, tc.spec, mod)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if f.Table() != tc.tab {
			t.Fatalf("%s: table %#b, want %#b", tc.name, f.Table(), tc.tab)
		}
		srcs := make([][]uint64, tc.spec.K)
		for j := range srcs {
			srcs[j] = []uint64{varPat64[j], ^varPat64[j]}
		}
		dst := make([]uint64, 2)
		f.Apply(dst, srcs)
		in := make([]uint64, tc.spec.K)
		for w := range dst {
			for j := range in {
				in[j] = srcs[j][w]
			}
			if want := softSpec(tc.spec, in); dst[w] != want {
				t.Fatalf("%s word %d: got %016x want %016x", tc.name, w, dst[w], want)
			}
		}
	}
}

// TestDeriveFusedRejectsBadSpecs pins the validation errors.
func TestDeriveFusedRejectsBadSpecs(t *testing.T) {
	exec := elpim.MustNew(elpim.DefaultConfig())
	mod := dram.Default()
	bad := []FusedSpec{
		{K: 0, Regs: 1, Result: 0}, // no inputs
		{K: 7, Regs: 8, Result: 0}, // too many inputs
		{K: 2, Regs: 1, Result: 0}, // fewer regs than inputs
		{K: 2, Regs: 3, Result: 3}, // result out of range
		{K: 2, Regs: 3, Result: 2, Ops: []FusedOp{{Op: engine.OpAND, Dst: 0, A: 0, B: 1}}},  // writes an input
		{K: 2, Regs: 3, Result: 2, Ops: []FusedOp{{Op: engine.OpAND, Dst: 2, A: 5, B: 1}}},  // reads out of range
		{K: 2, Regs: 3, Result: 2, Ops: []FusedOp{{Op: engine.OpAND, Dst: 2, A: 0, B: -1}}}, // bad binary B
	}
	for i, spec := range bad {
		if _, err := DeriveFused(exec, spec, mod); err == nil {
			t.Fatalf("spec %d (%s): expected error", i, spec.CacheKey())
		}
	}
	if _, err := DeriveFused(nil, FusedSpec{K: 1, Regs: 1}, mod); err == nil {
		t.Fatal("nil executor: expected error")
	}
}

// impureExec returns position-dependent garbage: derivation must detect
// the aperiodic probe and refuse to compile a kernel.
type impureExec struct{}

func (impureExec) Execute(sub *dram.Subarray, op engine.Op, dst, a, b int) error {
	w := make([]uint64, sub.Columns()/64)
	w[0] = 0x0123_4567_89AB_CDEF // aperiodic for every k
	sub.LoadRow(dst, bitvec.FromWords(w, sub.Columns()))
	return nil
}

// TestDeriveFusedRejectsImpure pins the aperiodicity check.
func TestDeriveFusedRejectsImpure(t *testing.T) {
	spec := FusedSpec{K: 2, Regs: 3, Result: 2,
		Ops: []FusedOp{{Op: engine.OpAND, Dst: 2, A: 0, B: 1}}}
	_, err := DeriveFused(impureExec{}, spec, dram.Default())
	if err == nil || !strings.Contains(err.Error(), "not a pure bitwise function") {
		t.Fatalf("expected aperiodicity error, got %v", err)
	}
}

// TestFusedSetCaches pins the derive-once and error-caching behaviour.
func TestFusedSetCaches(t *testing.T) {
	set := NewFusedSet(elpim.MustNew(elpim.DefaultConfig()), dram.Default())
	spec := FusedSpec{K: 3, Regs: 5, Result: 4, Ops: []FusedOp{
		{Op: engine.OpAND, Dst: 3, A: 0, B: 1},
		{Op: engine.OpOR, Dst: 4, A: 3, B: 2},
	}}
	f1, err := set.Fused(spec)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := set.Fused(spec)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Fatal("second lookup did not hit the cache")
	}
	bad := FusedSpec{K: 2, Regs: 1, Result: 0}
	_, err1 := set.Fused(bad)
	_, err2 := set.Fused(bad)
	if err1 == nil || err2 == nil || err1.Error() != err2.Error() {
		t.Fatalf("error not cached stably: %v vs %v", err1, err2)
	}
}

// TestFusedApplyConcurrent exercises one kernel from many goroutines
// under -race: Apply must not share mutable state across calls.
func TestFusedApplyConcurrent(t *testing.T) {
	exec := elpim.MustNew(elpim.DefaultConfig())
	spec := FusedSpec{K: 3, Regs: 5, Result: 4, Ops: []FusedOp{
		{Op: engine.OpXOR, Dst: 3, A: 0, B: 1},
		{Op: engine.OpAND, Dst: 4, A: 3, B: 2},
	}}
	f, err := DeriveFused(exec, spec, dram.Default())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			const words = 200
			srcs := [][]uint64{make([]uint64, words), make([]uint64, words), make([]uint64, words)}
			for j := range srcs {
				for w := range srcs[j] {
					srcs[j][w] = rng.Uint64()
				}
			}
			dst := make([]uint64, words)
			for iter := 0; iter < 50; iter++ {
				f.Apply(dst, srcs)
				for w := range dst {
					if want := (srcs[0][w] ^ srcs[1][w]) & srcs[2][w]; dst[w] != want {
						done <- fmt.Errorf("word %d: got %016x want %016x", w, dst[w], want)
						return
					}
				}
			}
			done <- nil
		}(int64(g))
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestFusedPacking pins the pass-packing contract by count: two-level
// trees, same-core chains of three and four inputs, and a core gate over
// a core child and a bare operand each take one pass; a single-use NOT
// folds into its consumer; a gate over a child that has a child of its
// own takes two; and packing never runs more passes than the program
// has gates.
func TestFusedPacking(t *testing.T) {
	exec := elpim.MustNew(elpim.DefaultConfig())
	mod := dram.Default()
	gate := func(op engine.Op, dst, a, b int) FusedOp { return FusedOp{Op: op, Dst: dst, A: a, B: b} }
	cases := []struct {
		name   string
		spec   FusedSpec
		passes int
	}{
		{"(a&b)|(c&d)", FusedSpec{K: 4, Regs: 7, Result: 6, Ops: []FusedOp{
			gate(engine.OpAND, 4, 0, 1), gate(engine.OpAND, 5, 2, 3), gate(engine.OpOR, 6, 4, 5),
		}}, 1},
		{"a^b^c", FusedSpec{K: 3, Regs: 5, Result: 4, Ops: []FusedOp{
			gate(engine.OpXOR, 3, 0, 1), gate(engine.OpXOR, 4, 3, 2),
		}}, 1},
		{"((a&b)&c)&d", FusedSpec{K: 4, Regs: 7, Result: 6, Ops: []FusedOp{
			gate(engine.OpAND, 4, 0, 1), gate(engine.OpAND, 5, 4, 2), gate(engine.OpAND, 6, 5, 3),
		}}, 1},
		{"(a|b)&c", FusedSpec{K: 3, Regs: 5, Result: 4, Ops: []FusedOp{
			gate(engine.OpOR, 3, 0, 1), gate(engine.OpAND, 4, 2, 3),
		}}, 1},
		{"~a&b", FusedSpec{K: 2, Regs: 4, Result: 3, Ops: []FusedOp{
			gate(engine.OpNOT, 2, 0, 0), gate(engine.OpAND, 3, 2, 1),
		}}, 1},
		// The OR sits two levels below the XOR, so it is its own pass.
		{"d^(c&(a|b))", FusedSpec{K: 4, Regs: 7, Result: 6, Ops: []FusedOp{
			gate(engine.OpOR, 4, 0, 1), gate(engine.OpAND, 5, 2, 4), gate(engine.OpXOR, 6, 3, 5),
		}}, 2},
	}
	for _, tc := range cases {
		f, err := DeriveFused(exec, tc.spec, mod)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if f.Passes() != tc.passes {
			t.Fatalf("%s packs to %d passes, want %d (%v)", tc.name, f.Passes(), tc.passes, f)
		}
	}

	// Random programs: packing must never exceed one pass per gate.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 32; trial++ {
		spec := randomSpec(rng, 1+rng.Intn(MaxFusedInputs))
		f, err := DeriveFused(exec, spec, mod)
		if err != nil {
			t.Fatalf("%s: %v", spec.CacheKey(), err)
		}
		if f.Passes() > f.Ops() {
			t.Fatalf("spec %s: passes=%d > ops=%d", spec.CacheKey(), f.Passes(), f.Ops())
		}
	}
}
