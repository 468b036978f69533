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
	"repro/internal/expr"
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

// softSpec evaluates a fused spec's program in software over
// word-valued variables and temps.
func softSpec(spec FusedSpec, inputs []uint64) uint64 {
	prog := spec.Prog
	vars := append([]uint64(nil), inputs...)
	temps := make([]uint64, prog.TempSlots)
	reg := func(r expr.Ref) *uint64 {
		if r.Temp {
			return &temps[r.Index]
		}
		return &vars[r.Index]
	}
	for _, in := range prog.Instrs {
		var b uint64
		if !in.Op.Unary() {
			b = *reg(in.B)
		}
		*reg(in.Dst) = softOp(in.Op, *reg(in.A), b)
	}
	return *reg(prog.Result())
}

// Register-program helpers for hand-written specs: vref(j) is variable
// j, tref(i) temp i, and prog assembles a program over k variables.
func vref(j int) expr.Ref { return expr.Ref{Index: j} }
func tref(i int) expr.Ref { return expr.Ref{Temp: true, Index: i} }

func ins(op engine.Op, dst, a, b expr.Ref) expr.Instr {
	return expr.Instr{Op: op, Dst: dst, A: a, B: b}
}

func prog(k, temps int, instrs ...expr.Instr) FusedSpec {
	return FusedSpec{Prog: &expr.Program{Vars: make([]string, k), TempSlots: temps, Instrs: instrs}}
}

// compiled returns the spec of src's scheduled program: for an
// expression of at most MaxFusedInputs variables, the program of its one
// plan cluster.
func compiled(t *testing.T, src string) FusedSpec {
	t.Helper()
	p, err := expr.Compile(expr.MustParse(src))
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return FusedSpec{Prog: p}
}

// randomSpec builds a random well-formed register program over k
// inputs: three-operand gates into fresh temps, in-place folds into an
// earlier temp, and chain heads (a COPY, then a fold into it).
func randomSpec(rng *rand.Rand, k int) FusedSpec {
	ops := []engine.Op{
		engine.OpNOT, engine.OpAND, engine.OpOR, engine.OpNAND,
		engine.OpNOR, engine.OpXOR, engine.OpXNOR,
	}
	folds := []engine.Op{engine.OpAND, engine.OpOR}
	nops := 1 + rng.Intn(8)
	var instrs []expr.Instr
	temps := 0
	// operand is any input or any already-written temp.
	operand := func() expr.Ref {
		i := rng.Intn(k + temps)
		if i >= k {
			return tref(i - k)
		}
		return vref(i)
	}
	for i := 0; i < nops; i++ {
		op := folds[rng.Intn(len(folds))]
		switch r := rng.Intn(4); {
		case r == 0 && temps > 0:
			acc := tref(rng.Intn(temps))
			instrs = append(instrs, ins(op, acc, operand(), acc))
		case r == 1:
			head := tref(temps)
			instrs = append(instrs, ins(engine.OpCOPY, head, operand(), expr.Ref{}))
			instrs = append(instrs, ins(op, head, operand(), head))
			temps++
		default:
			instrs = append(instrs, ins(ops[rng.Intn(len(ops))], tref(temps), operand(), operand()))
			temps++
		}
	}
	return prog(k, temps, instrs...)
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
						name, k, f.Table(), wantTab, spec.Prog)
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
		{"const0", compiled(t, "a ^ a"), 0b00},
		{"const1", compiled(t, "~(a ^ a)"), 0b11},
		// A chain head and two folds: t0 = COPY a; t0 = AND b, t0;
		// t0 = OR a, t0.
		{"identity", compiled(t, "(a & b) | a"), 0b1010},
		// ~~~b, in place.
		{"not-b", prog(2, 1,
			ins(engine.OpNOT, tref(0), vref(1), vref(0)),
			ins(engine.OpNOT, tref(0), tref(0), vref(0)),
			ins(engine.OpNOT, tref(0), tref(0), vref(0)),
		), 0b0011},
	}
	for _, tc := range cases {
		f, err := DeriveFused(exec, tc.spec, mod)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if f.Table() != tc.tab {
			t.Fatalf("%s: table %#b, want %#b", tc.name, f.Table(), tc.tab)
		}
		srcs := make([][]uint64, f.K())
		for j := range srcs {
			srcs[j] = []uint64{varPat64[j], ^varPat64[j]}
		}
		dst := make([]uint64, 2)
		f.Apply(dst, srcs)
		in := make([]uint64, f.K())
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

// TestDeriveFusedRejectsBadSpecs pins the shape errors: every malformed
// program fails in lowering, before the device runs anything (the
// executor here fails every command, so a probe would fail differently).
func TestDeriveFusedRejectsBadSpecs(t *testing.T) {
	mod := dram.Default()
	and := ins(engine.OpAND, tref(0), vref(0), vref(1))
	bad := []struct {
		name, err string
		spec      FusedSpec
	}{
		{"no program", "no program", FusedSpec{}},
		{"no inputs", "0 inputs", prog(0, 1, ins(engine.OpNOT, tref(0), tref(0), tref(0)))},
		{"too many inputs", "7 inputs", prog(7, 1, and)},
		{"too many temps", "33 temps", prog(2, 33, and)},
		{"result in an input", "result in an input", prog(2, 1)},
		{"writes an input", "writes an input", prog(2, 1, ins(engine.OpAND, vref(0), vref(0), vref(1)))},
		{"folds into an input", "writes an input", prog(2, 1, ins(engine.OpAND, vref(1), vref(0), vref(1)))},
		{"writes a temp out of range", "temp out of range", prog(2, 1, ins(engine.OpAND, tref(1), vref(0), vref(1)))},
		{"reads out of range", "out of range", prog(2, 1, ins(engine.OpAND, tref(0), vref(5), vref(1)))},
		{"bad binary B", "out of range", prog(2, 1, ins(engine.OpAND, tref(0), vref(0), vref(-1)))},
		{"reads an unwritten temp", "never written", prog(2, 2, ins(engine.OpAND, tref(1), vref(0), tref(0)))},
		{"unknown op", "no word gate", prog(2, 1, ins(engine.Op(99), tref(0), vref(0), vref(1)))},
	}
	for _, tc := range bad {
		_, err := DeriveFused(failingExec{}, tc.spec, mod)
		if err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Fatalf("%s: got error %v, want one containing %q", tc.name, err, tc.err)
		}
	}
	if _, err := DeriveFused(nil, prog(1, 1, ins(engine.OpNOT, tref(0), vref(0), vref(0))), mod); err == nil {
		t.Fatal("nil executor: expected error")
	}
}

// wrongFoldExec is ELP2IM's engine with a wrong in-place fold: its
// ExecuteInPlace runs OR where it is asked for AND.
type wrongFoldExec struct{ eng *elpim.Engine }

func (w wrongFoldExec) Execute(sub *dram.Subarray, op engine.Op, dst, a, b int) error {
	return w.eng.Execute(sub, op, dst, a, b)
}

func (w wrongFoldExec) ExecuteInPlace(sub *dram.Subarray, op engine.Op, a, b int) error {
	if op == engine.OpAND {
		op = engine.OpOR
	}
	return w.eng.ExecuteInPlace(sub, op, a, b)
}

// TestDeriveFusedRunsFolds pins that derivation probes a spec's folds
// the way the command tier runs them, in place through ExecuteInPlace:
// the chain a & b & c (a COPY and two AND folds) derives on ELP2IM's
// engine and fails on one whose in-place fold computes the wrong gate.
func TestDeriveFusedRunsFolds(t *testing.T) {
	spec := compiled(t, "a & b & c")
	folds := 0
	for _, in := range spec.Prog.Instrs {
		if in.Fold() {
			folds++
		}
	}
	if folds != 2 {
		t.Fatalf("a & b & c schedules %d folds, want 2:\n%s", folds, spec.Prog)
	}
	eng := elpim.MustNew(elpim.DefaultConfig())
	f, err := NewFusedSet(eng, dram.Default()).Fused(spec)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if f.Table() != 0x80 || f.Ops() != 2 || f.Passes() != 1 {
		t.Fatalf("engine: %v, want table 0x80, 2 gates, 1 pass", f)
	}
	if _, err := NewFusedSet(wrongFoldExec{eng}, dram.Default()).Fused(spec); err == nil {
		t.Fatal("derived with a wrong in-place fold")
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
	_, err := DeriveFused(impureExec{}, compiled(t, "a & b"), dram.Default())
	if err == nil || !strings.Contains(err.Error(), "not a pure bitwise function") {
		t.Fatalf("expected aperiodicity error, got %v", err)
	}
}

// TestFusedSetCaches pins the derive-once and error-caching behaviour,
// that equal programs over different variables share one kernel, and
// that programs differing in what derivation reads do not.
func TestFusedSetCaches(t *testing.T) {
	set := NewFusedSet(elpim.MustNew(elpim.DefaultConfig()), dram.Default())
	f1, err := set.Fused(compiled(t, "(a & b) | c"))
	if err != nil {
		t.Fatal(err)
	}
	f2, err := set.Fused(compiled(t, "(x & y) | z"))
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Fatal("second lookup did not hit the cache")
	}
	bad := prog(2, 1)
	_, err1 := set.Fused(bad)
	_, err2 := set.Fused(bad)
	if err1 == nil || err2 == nil || err1.Error() != err2.Error() {
		t.Fatalf("error not cached stably: %v vs %v", err1, err2)
	}
	// A program differing only in its temp count is its own entry: one
	// temp is too few for t1, two are enough.
	and := ins(engine.OpAND, tref(1), vref(0), vref(1))
	if _, err := set.Fused(prog(2, 1, and)); err == nil {
		t.Fatal("t1 derived with one temp")
	}
	if _, err := set.Fused(prog(2, 2, and)); err != nil {
		t.Fatalf("t1 with two temps: %v", err)
	}
}

// TestFusedApplyConcurrent exercises one kernel from many goroutines
// under -race: Apply must not share mutable state across calls.
func TestFusedApplyConcurrent(t *testing.T) {
	exec := elpim.MustNew(elpim.DefaultConfig())
	f, err := DeriveFused(exec, compiled(t, "(a ^ b) & c"), dram.Default())
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
// a core child and a bare operand each take one pass; a chain head's
// COPY is its operand's value and adds no pass, while a COPY that is the
// result takes one; a single-use NOT folds into its consumer; a gate
// over a child that has a child of its own takes two; and packing never
// runs more passes than the program has gates.
func TestFusedPacking(t *testing.T) {
	exec := elpim.MustNew(elpim.DefaultConfig())
	mod := dram.Default()
	cases := []struct {
		name          string
		spec          FusedSpec
		gates, passes int
	}{
		{"(a&b)|(c&d)", compiled(t, "(a&b)|(c&d)"), 3, 1},
		{"a^b^c", compiled(t, "a^b^c"), 2, 1},
		// t0 = COPY a; t0 = AND b, t0; t0 = AND c, t0; t0 = AND d, t0.
		{"((a&b)&c)&d", compiled(t, "((a&b)&c)&d"), 3, 1},
		{"(a|b)&c", compiled(t, "(a|b)&c"), 2, 1},
		{"copy a", prog(1, 1, ins(engine.OpCOPY, tref(0), vref(0), vref(0))), 1, 1},
		{"~a&b", compiled(t, "~a&b"), 2, 1},
		// The OR sits two levels below the XOR, so it is its own pass.
		{"d^(c&(a|b))", compiled(t, "d^(c&(a|b))"), 3, 2},
	}
	for _, tc := range cases {
		f, err := DeriveFused(exec, tc.spec, mod)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if f.Ops() != tc.gates || f.Passes() != tc.passes {
			t.Fatalf("%s packs %d gates to %d passes, want %d to %d (%v)",
				tc.name, f.Ops(), f.Passes(), tc.gates, tc.passes, f)
		}
	}

	// Random programs: packing must never exceed one pass per gate.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 32; trial++ {
		spec := randomSpec(rng, 1+rng.Intn(MaxFusedInputs))
		f, err := DeriveFused(exec, spec, mod)
		if err != nil {
			t.Fatalf("%s: %v", spec.Prog, err)
		}
		if f.Passes() > f.Ops() {
			t.Fatalf("spec %s: passes=%d > ops=%d", spec.Prog, f.Passes(), f.Ops())
		}
	}
}
