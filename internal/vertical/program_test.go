package vertical

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/expr"
)

// wordGate applies the boolean gate at word granularity — the test-side
// analogue of the derived kernels, independent of any device model.
func wordGate(op engine.Op, a, b uint64) uint64 {
	switch op {
	case engine.OpNOT:
		return ^a
	case engine.OpAND:
		return a & b
	case engine.OpOR:
		return a | b
	case engine.OpNAND:
		return ^(a & b)
	case engine.OpNOR:
		return ^(a | b)
	case engine.OpXOR:
		return a ^ b
	case engine.OpXNOR:
		return ^(a ^ b)
	case engine.OpCOPY:
		return a
	}
	panic("unknown op")
}

// runWords interprets the µProgram over word slices: every step's
// node-at-a-time program evaluated word by word into the destination
// slice. This pins the program semantics without an accelerator; the
// facade's differential tests pin the device tiers against the same
// reference.
func runWords(t *testing.T, p *Program, env map[string][]uint64, words int) {
	t.Helper()
	for _, name := range p.Temps {
		env[name] = make([]uint64, words)
	}
	for j := 0; j < p.OutWidth; j++ {
		if _, ok := env[ZVar(j)]; !ok {
			env[ZVar(j)] = make([]uint64, words)
		}
	}
	for si, st := range p.Steps {
		prog := st.Plan.Prog
		dst, ok := env[st.Dst]
		if !ok {
			t.Fatalf("step %d: unknown destination %q", si, st.Dst)
		}
		vars := make([][]uint64, len(prog.Vars))
		for i, name := range prog.Vars {
			v, ok := env[name]
			if !ok {
				t.Fatalf("step %d: unbound variable %q", si, name)
			}
			if name == st.Dst {
				t.Fatalf("step %d: reads its own destination %q", si, name)
			}
			vars[i] = v
		}
		temps := make([]uint64, prog.TempSlots)
		val := func(r expr.Ref, w int) uint64 {
			if r.Temp {
				return temps[r.Index]
			}
			return vars[r.Index][w]
		}
		res := prog.Result()
		for w := 0; w < words; w++ {
			for _, in := range prog.Instrs {
				var bv uint64
				if !in.Op.Unary() {
					bv = val(in.B, w)
				}
				temps[in.Dst.Index] = wordGate(in.Op, val(in.A, w), bv)
			}
			dst[w] = val(res, w)
		}
	}
}

// runProgram slices the operands, interprets the program, and unslices
// the z outputs back to elements.
func runProgram(t *testing.T, p *Program, x, y, m []uint64) []uint64 {
	t.Helper()
	n := len(x)
	words := SliceWords(n)
	env := make(map[string][]uint64)
	for j, s := range Slice(x, p.Width) {
		env[XVar(j)] = s
	}
	if p.Op.Binary() {
		for j, s := range Slice(y, p.Width) {
			env[YVar(j)] = s
		}
	}
	if p.Op.Masked() {
		mw := make([]uint64, words)
		copy(mw, m)
		env[MaskVar] = mw
	}
	runWords(t, p, env, words)
	outs := make([][]uint64, p.OutWidth)
	for j := range outs {
		outs[j] = env[ZVar(j)]
	}
	return Unslice(outs, n)
}

// TestProgramsMatchReference: every op × a width sweep, random operands,
// word-level interpretation bit-identical to the host integer reference.
func TestProgramsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	widths := []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 32, 33, 64}
	for op := Op(0); int(op) < NumOps; op++ {
		for _, w := range widths {
			p, err := Build(op, w)
			if err != nil {
				t.Fatalf("Build(%s, %d): %v", op, w, err)
			}
			if p.OutWidth != op.OutWidth(w) {
				t.Fatalf("%s/%d: OutWidth %d, want %d", op, w, p.OutWidth, op.OutWidth(w))
			}
			n := 1 + rng.Intn(200)
			x := make([]uint64, n)
			y := make([]uint64, n)
			m := make([]uint64, SliceWords(n))
			for i := range x {
				x[i] = rng.Uint64()
				y[i] = rng.Uint64()
			}
			for i := range m {
				m[i] = rng.Uint64()
			}
			// Force edge cases into the operand mix: equal values and
			// extreme magnitudes exercise the compare/borrow chains.
			if n > 3 {
				y[0] = x[0]
				x[1], y[1] = WidthMask(w), 0
				x[2], y[2] = 0, WidthMask(w)
			}
			got := runProgram(t, p, x, y, m)
			want := Reference(op, w, x, y, m)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%d element %d: program %#x, reference %#x (x=%#x y=%#x)",
						op, w, i, got[i], want[i], x[i]&WidthMask(w), y[i]&WidthMask(w))
				}
			}
		}
	}
}

// TestProgramShape: scratch recycling keeps the temp pool logarithmic
// and every step's expression narrow enough for one fused kernel (at
// most six distinct slices).
func TestProgramShape(t *testing.T) {
	for op := Op(0); int(op) < NumOps; op++ {
		for _, w := range []int{4, 16, 64} {
			p, err := Build(op, w)
			if err != nil {
				t.Fatalf("Build(%s, %d): %v", op, w, err)
			}
			if len(p.Temps) > 12 {
				t.Errorf("%s/%d: %d temps, want a recycled handful", op, w, len(p.Temps))
			}
			for i, st := range p.Steps {
				if len(st.Plan.Vars) > 6 {
					t.Errorf("%s/%d step %d: %d variables, exceeds fused-kernel fan-in", op, w, i, len(st.Plan.Vars))
				}
			}
		}
	}
}

// TestBuildRejectsBadWidth: widths outside 1..64 fail.
func TestBuildRejectsBadWidth(t *testing.T) {
	for _, w := range []int{0, -1, 65} {
		if _, err := Build(OpAdd, w); err == nil {
			t.Fatalf("Build(add, %d) succeeded, want error", w)
		}
	}
}

// TestParseOp: mnemonics round-trip and unknown names are rejected.
func TestParseOp(t *testing.T) {
	for op := Op(0); int(op) < NumOps; op++ {
		got, ok := ParseOp(op.String())
		if !ok || got != op {
			t.Fatalf("ParseOp(%q) = %v, %v", op.String(), got, ok)
		}
	}
	if _, ok := ParseOp("nand"); ok {
		t.Fatalf("ParseOp accepted unknown mnemonic")
	}
}
