package elp2im

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEvalSimple(t *testing.T) {
	acc := newAcc(t, smallModule)
	rng := rand.New(rand.NewSource(1))
	n := 300
	d := RandomBitVector(rng, n)
	r := RandomBitVector(rng, n)
	e := RandomBitVector(rng, n)

	out, st, err := acc.Eval("(dirty & ~referenced) | evicted",
		map[string]*BitVector{"dirty": d, "referenced": r, "evicted": e})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := (d.Bit(i) && !r.Bit(i)) || e.Bit(i)
		if out.Bit(i) != want {
			t.Fatalf("bit %d wrong", i)
		}
	}
	if st.LatencyNS <= 0 || st.RowOps == 0 {
		t.Fatalf("implausible stats: %+v", st)
	}
}

func TestEvalAcrossDesigns(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 500
	vars := map[string]*BitVector{
		"a": RandomBitVector(rng, n),
		"b": RandomBitVector(rng, n),
		"c": RandomBitVector(rng, n),
	}
	const src = "(a & b) | (b & c) | (a & c)" // majority
	var results []*BitVector
	for _, d := range []Design{DesignELP2IM, DesignAmbit, DesignDrisaNOR} {
		acc := newAcc(t, smallModule, func(c *Config) { c.Design = d })
		out, _, err := acc.Eval(src, vars)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		results = append(results, out)
	}
	// All designs agree bit for bit.
	for i := 1; i < len(results); i++ {
		if !results[i].Equal(results[0]) {
			t.Fatal("designs disagree on expression result")
		}
	}
	// And agree with the host.
	for i := 0; i < n; i++ {
		a, b, c := vars["a"].Bit(i), vars["b"].Bit(i), vars["c"].Bit(i)
		want := a && b || b && c || a && c
		if results[0].Bit(i) != want {
			t.Fatalf("bit %d wrong", i)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	acc := newAcc(t, smallModule)
	if _, _, err := acc.Eval("a &", nil); err == nil {
		t.Error("parse error not surfaced")
	}
	if _, _, err := acc.Eval("a & b", map[string]*BitVector{"a": NewBitVector(10)}); err == nil {
		t.Error("unbound variable accepted")
	}
	if _, _, err := acc.Eval("a & b", map[string]*BitVector{
		"a": NewBitVector(10), "b": NewBitVector(11),
	}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestEvalBareVariable(t *testing.T) {
	acc := newAcc(t, smallModule)
	rng := rand.New(rand.NewSource(3))
	a := RandomBitVector(rng, 200)
	out, st, err := acc.Eval("a", map[string]*BitVector{"a": a})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(a) {
		t.Fatal("bare variable mismatch")
	}
	if st.RowOps != 0 {
		t.Fatal("bare variable should cost nothing")
	}
}

// Property: Eval matches host evaluation for random expressions.
func TestEvalProperty(t *testing.T) {
	acc := newAcc(t, smallModule)
	exprs := []string{
		"a ^ (b | ~c)",
		"~(a & b) ^ (c | a)",
		"(a | b) & ~(b ^ c)",
		"~a & ~b & ~c",
	}
	f := func(seed int64, which uint8) bool {
		src := exprs[int(which)%len(exprs)]
		rng := rand.New(rand.NewSource(seed))
		n := int(seed%400+400) % 700
		if n < 1 {
			n = 1
		}
		vars := map[string]*BitVector{
			"a": RandomBitVector(rng, n),
			"b": RandomBitVector(rng, n),
			"c": RandomBitVector(rng, n),
		}
		out, _, err := acc.Eval(src, vars)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			a, b, c := vars["a"].Bit(i), vars["b"].Bit(i), vars["c"].Bit(i)
			var want bool
			switch src {
			case "a ^ (b | ~c)":
				want = a != (b || !c)
			case "~(a & b) ^ (c | a)":
				want = !(a && b) != (c || a)
			case "(a | b) & ~(b ^ c)":
				want = (a || b) && !(b != c)
			case "~a & ~b & ~c":
				want = !a && !b && !c
			}
			if out.Bit(i) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestEvalExprIntoOverwritesOut pins EvalExprInto's contract on every
// tier: a result vector pre-filled with ones (tail bits included) ends
// up word-for-word equal to a fresh EvalExpr result with the same Stats,
// so callers may recycle result vectors without clearing them. A
// wrong-length or aliased result is rejected.
func TestEvalExprIntoOverwritesOut(t *testing.T) {
	const src = "(a & ~b) | (c ^ a)"
	ce, err := CompileExpr(src)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	n := 5*128 + 77 // ragged, several stripes of the small module
	vars := map[string]*BitVector{
		"a": RandomBitVector(rng, n), "b": RandomBitVector(rng, n), "c": RandomBitVector(rng, n),
	}
	tiers := map[string]func(*testing.T, ...func(*Config)) *Accelerator{
		"fused":            newAcc,
		"command-accurate": newCmdAcc,
	}
	for name, build := range tiers {
		acc := build(t, smallModule)
		want, wantSt, err := acc.EvalExpr(ce, vars)
		if err != nil {
			t.Fatal(err)
		}
		out := NewBitVector(n)
		for i := range out.Words() {
			out.Words()[i] = ^uint64(0)
		}
		st, err := acc.EvalExprInto(ce, vars, out)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, w := range out.Words() {
			if w != want.Words()[i] {
				t.Fatalf("%s: word %d = %#x, want %#x", name, i, w, want.Words()[i])
			}
		}
		if st != wantSt {
			t.Errorf("%s: stats %+v, want %+v", name, st, wantSt)
		}
		if _, err := acc.EvalExprInto(ce, vars, NewBitVector(n-1)); err == nil {
			t.Errorf("%s: accepted a result vector of the wrong length", name)
		}
		if _, err := acc.EvalExprInto(ce, vars, vars["b"]); err == nil {
			t.Errorf("%s: accepted a result vector aliasing an operand", name)
		}
	}
}

// TestRowDemandExact pins ExprRowDemand against the command-accurate
// executor on every design. With rows per subarray set to the reported
// demand, the command-accurate tier matches the fused tier bit for bit,
// so the demand leaves every row the engine keeps for itself (Ambit's
// B-group, DRISA-NOR's scratch rows) and meets its minimum subarray
// size; with one row less, both tiers refuse the expression with the
// row-budget error.
func TestRowDemandExact(t *testing.T) {
	exprs := []string{
		"a ^ b",
		"(dirty & ~referenced) | evicted",
		"((a ^ b) ^ (c ^ d)) ^ ((e ^ f) ^ (g ^ h))",
		"(a & b & c & d & e & f) | (c & d & e & f & g & h)",
		"~(a & (b | ~(c ^ (d & ~e))))",
	}
	rows := func(n int) func(*Config) { return func(c *Config) { c.Module.RowsPerSubarray = n } }
	for _, d := range []Design{DesignELP2IM, DesignAmbit, DesignDrisaNOR} {
		design := func(c *Config) { c.Design = d }
		probe := newAcc(t, smallModule, design)
		for i, src := range exprs {
			ce, err := CompileExpr(src)
			if err != nil {
				t.Fatal(err)
			}
			need, _ := probe.ExprRowDemand(ce)
			rng := rand.New(rand.NewSource(int64(i)))
			vars := map[string]*BitVector{}
			for _, name := range ce.Vars() {
				vars[name] = RandomBitVector(rng, 5*128+77)
			}
			want, _, err := newAcc(t, smallModule, design, rows(need)).EvalExpr(ce, vars)
			if err != nil {
				t.Fatalf("%v %q fused at %d rows: %v", d, src, need, err)
			}
			got, _, err := newCmdAcc(t, smallModule, design, rows(need)).EvalExpr(ce, vars)
			if err != nil {
				t.Fatalf("%v %q command-accurate at its demand of %d rows: %v", d, src, need, err)
			}
			if !got.Equal(want) {
				t.Fatalf("%v %q: command-accurate result at its demand of %d rows differs from the fused one", d, src, need)
			}
			budget := fmt.Sprintf("needs %d rows per subarray", need)
			for _, build := range []func(*testing.T, ...func(*Config)) *Accelerator{newAcc, newCmdAcc} {
				_, _, err := build(t, smallModule, design, rows(need-1)).EvalExpr(ce, vars)
				if err == nil || !strings.Contains(err.Error(), budget) {
					t.Fatalf("%v %q at %d rows: error %v, want the row-budget error (%s)", d, src, need-1, err, budget)
				}
			}
		}
	}
}

// TestEvalStagesOnlyLiveOperands pins operand staging on the command
// tier of ELP2IM with two reserved rows, whose XOR and XNOR consume
// their A row: a variable is re-staged into a spare row first, one COPY
// per stripe, only when a later instruction still reads it. a ^ b and
// ~(a ^ b) run no COPY, nor does a ^ a, whose two operands share a row;
// (a ^ b) & a runs one per stripe. Every result matches the host.
func TestEvalStagesOnlyLiveOperands(t *testing.T) {
	acc := newCmdAcc(t, smallModule, func(c *Config) { c.ReservedRows = 2 })
	rng := rand.New(rand.NewSource(42))
	const stripes = 4
	n := stripes*acc.cfg.Module.Columns - 9
	a, b := RandomBitVector(rng, n), RandomBitVector(rng, n)
	for _, tc := range []struct {
		src    string
		copies int64
		want   func(x, y bool) bool
	}{
		{"a ^ b", 0, func(x, y bool) bool { return x != y }},
		{"~(a ^ b)", 0, func(x, y bool) bool { return x == y }},
		{"a ^ a", 0, func(x, y bool) bool { return false }},
		{"(a ^ b) & a", stripes, func(x, y bool) bool { return x != y && x }},
	} {
		before := acc.Snapshot().Counter("engine.exec.ELP2IM.COPY")
		out, _, err := acc.Eval(tc.src, map[string]*BitVector{"a": a, "b": b})
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if got := acc.Snapshot().Counter("engine.exec.ELP2IM.COPY") - before; got != tc.copies {
			t.Errorf("%s: %d staging COPYs over %d stripes, want %d", tc.src, got, stripes, tc.copies)
		}
		for i := 0; i < n; i++ {
			if out.Bit(i) != tc.want(a.Bit(i), b.Bit(i)) {
				t.Fatalf("%s: bit %d wrong", tc.src, i)
			}
		}
	}
}
