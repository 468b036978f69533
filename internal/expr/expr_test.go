package expr

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ambit"
	"repro/internal/bitvec"
	"repro/internal/dram"
	"repro/internal/drisa"
	"repro/internal/elpim"
	"repro/internal/engine"
)

func TestParseBasics(t *testing.T) {
	cases := map[string]string{
		"a":             "a",
		"~a":            "~a",
		"a & b":         "(a & b)",
		"a | b & c":     "(a | (b & c))",
		"a ^ b | c":     "((a ^ b) | c)",
		"~(a | b)":      "~(a | b)",
		"(a&b)|(~a&~b)": "((a & b) | (~a & ~b))",
		"_x1 & y2":      "(_x1 & y2)",
		"a & b & c":     "((a & b) & c)",
		" a\t^ b ":      "(a ^ b)",
	}
	for src, want := range cases {
		n, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		if n.String() != want {
			t.Errorf("Parse(%q) = %s, want %s", src, n, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{"", "&a", "a &", "(a", "a)", "a @ b", "~", "a b"} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted", src)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic")
		}
	}()
	MustParse("((")
}

func TestEval(t *testing.T) {
	n := MustParse("(a & ~b) | (c ^ d)")
	env := map[string]bool{"a": true, "b": false, "c": true, "d": true}
	if !n.Eval(env) { // (1 & 1) | 0 = 1
		t.Fatal("eval wrong")
	}
	env["b"] = true
	env["d"] = false
	if !n.Eval(env) { // 0 | (1^0) = 1
		t.Fatal("eval wrong")
	}
	env["c"] = false
	env["d"] = false
	if n.Eval(env) { // 0 | 0
		t.Fatal("eval wrong")
	}
}

func TestEvalPanicsOnUnbound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unbound variable did not panic")
		}
	}()
	MustParse("a & b").Eval(map[string]bool{"a": true})
}

func TestVarsOrder(t *testing.T) {
	n := MustParse("b & (a | b) & c")
	got := n.Vars()
	want := []string{"b", "a", "c"}
	if len(got) != len(want) {
		t.Fatalf("vars = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("vars = %v, want %v", got, want)
		}
	}
}

func TestCompileCSE(t *testing.T) {
	// (a&b) appears twice: CSE must emit it once.
	p, err := Compile(MustParse("(a & b) ^ ((a & b) | c)"))
	if err != nil {
		t.Fatal(err)
	}
	ands := 0
	for _, in := range p.Instrs {
		if in.Op == engine.OpAND {
			ands++
		}
	}
	if ands != 1 {
		t.Errorf("CSE failed: %d ANDs\n%s", ands, p)
	}
	// Commutative CSE: (b & a) matches (a & b).
	p2, err := Compile(MustParse("(a & b) | (b & a)"))
	if err != nil {
		t.Fatal(err)
	}
	// One AND, staged (COPY, fold) because the OR(x, x) folds into it.
	if len(p2.Instrs) != 3 || p2.Instrs[1].Op != engine.OpAND || p2.Instrs[2].Op != engine.OpOR {
		t.Errorf("commutative CSE failed:\n%s", p2)
	}
}

func TestCompileFusion(t *testing.T) {
	cases := map[string]engine.Op{
		"~a & ~b": engine.OpNOR,
		"~a | ~b": engine.OpNAND,
		"~a ^ b":  engine.OpXNOR,
		"a ^ ~b":  engine.OpXNOR,
	}
	for src, want := range cases {
		p, err := Compile(MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Instrs) != 1 || p.Instrs[0].Op != want {
			t.Errorf("%q compiled to\n%s, want single %v", src, p, want)
		}
	}
	// ~a ^ ~b = a ^ b.
	p, err := Compile(MustParse("~a ^ ~b"))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Instrs) != 1 || p.Instrs[0].Op != engine.OpXOR {
		t.Errorf("~a^~b compiled to\n%s, want single XOR", p)
	}
}

// TestCompileOutputNotFusion: a NOT over a gate with no other user
// compiles to the complement gate; a gate other users share keeps its
// NOT.
func TestCompileOutputNotFusion(t *testing.T) {
	cases := map[string]engine.Op{
		"~(a ^ b)":   engine.OpXNOR,
		"~(a & b)":   engine.OpNAND,
		"~(a | b)":   engine.OpNOR,
		"~(~a & ~b)": engine.OpOR,
		"~(~a | ~b)": engine.OpAND,
		"~(~a ^ b)":  engine.OpXOR,
	}
	for src, want := range cases {
		p, err := Compile(MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Instrs) != 1 || p.Instrs[0].Op != want {
			t.Errorf("%q compiled to\n%s, want single %v", src, p, want)
		}
	}
	// A shared XOR keeps its NOT, also when input fusion spells the
	// second copy differently.
	for src, root := range map[string]engine.Op{
		"(a ^ b) | ~(a ^ b)":   engine.OpOR,
		"~(~a ^ ~b) & (a ^ b)": engine.OpAND,
	} {
		p, err := Compile(MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		ops := map[engine.Op]int{}
		for _, in := range p.Instrs {
			ops[in.Op]++
		}
		if len(p.Instrs) != 3 || ops[engine.OpXOR] != 1 || ops[engine.OpNOT] != 1 || ops[root] != 1 {
			t.Errorf("%q compiled to\n%s, want XOR, NOT, %v", src, p, root)
		}
	}
	// Fusion spells one XNOR three ways: ~(a ^ b), ~a ^ b and a ^ ~b.
	// Each pair is one gate, computed once.
	for _, src := range []string{"~(a ^ b) & (~a ^ b)", "(~a ^ b) & (a ^ ~b)"} {
		p, err := Compile(MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Instrs) != 2 || p.Instrs[0].Op != engine.OpXNOR || p.Instrs[1].Op != engine.OpAND ||
			p.Instrs[1].A != p.Instrs[0].Dst || p.Instrs[1].B != p.Instrs[0].Dst {
			t.Errorf("%q compiled to\n%s, want one XNOR feeding the AND", src, p)
		}
	}
}

// TestCompiledTruthTables: random NOT-heavy expressions compile to
// programs whose gate-by-gate host evaluation matches Eval on every
// assignment of their variables.
func TestCompiledTruthTables(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 3000; i++ {
		n := randomExpr(rng, 5, 4)
		p, err := Compile(n)
		if err != nil {
			t.Fatal(err)
		}
		// Column c assigns variable j the value of bit j of c, so 2^k
		// columns enumerate every assignment.
		cols := 1 << len(p.Vars)
		vars := make([]*bitvec.Vector, len(p.Vars))
		for j := range vars {
			vars[j] = bitvec.New(cols)
			for c := 0; c < cols; c++ {
				vars[j].SetBit(c, c>>j&1 != 0)
			}
		}
		temps := make([]*bitvec.Vector, p.TempSlots)
		for j := range temps {
			temps[j] = bitvec.New(cols)
		}
		val := func(r Ref) *bitvec.Vector {
			if r.Temp {
				return temps[r.Index]
			}
			return vars[r.Index]
		}
		for _, in := range p.Instrs {
			var b *bitvec.Vector
			if !in.Op.Unary() {
				b = val(in.B)
			}
			res := bitvec.New(cols)
			in.Op.Golden(res, val(in.A), b)
			temps[in.Dst.Index] = res
		}
		got := val(p.Result())
		env := map[string]bool{}
		for c := 0; c < cols; c++ {
			for j, v := range p.Vars {
				env[v] = c>>j&1 != 0
			}
			if got.Bit(c) != n.Eval(env) {
				t.Fatalf("%s: assignment %d: program %v, Eval %v\n%s", n, c, got.Bit(c), n.Eval(env), p)
			}
		}
	}
}

func TestCompileDoubleNegation(t *testing.T) {
	p, err := Compile(MustParse("~~a & b"))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Instrs) != 1 || p.Instrs[0].Op != engine.OpAND {
		t.Errorf("~~a & b compiled to\n%s", p)
	}
}

func TestCompileBareVariable(t *testing.T) {
	p, err := Compile(MustParse("x"))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Instrs) != 0 || p.TempSlots != 0 {
		t.Fatalf("bare variable program:\n%s", p)
	}
	if r := p.Result(); r.Temp || r.Index != 0 {
		t.Fatalf("bare variable result = %v", r)
	}
}

func TestCompileNilExpression(t *testing.T) {
	if _, err := Compile(nil); err == nil {
		t.Fatal("nil expression accepted")
	}
}

func TestTempSlotReuse(t *testing.T) {
	// A long chain needs O(1) temps, not O(n): liveness must reuse slots.
	p, err := Compile(MustParse("((((a & b) | c) & d) | e) & f"))
	if err != nil {
		t.Fatal(err)
	}
	if p.TempSlots > 2 {
		t.Errorf("chain uses %d temp slots, want <= 2\n%s", p.TempSlots, p)
	}
}

// TestScheduleFoldsChains pins the lowering's two rules: a left- or
// right-deep AND/OR chain is one COPY into its one temp and a fold of
// each further operand into that temp, a chain over a temp folds into
// it, and a gate nothing folds into keeps the three-operand form.
func TestScheduleFoldsChains(t *testing.T) {
	t0, v0, v1, v2, v3 := tempRef(0), varRef(0), varRef(1), varRef(2), varRef(3)
	for src, want := range map[string][]Instr{
		"a & b & c & d": {
			{Op: engine.OpCOPY, Dst: t0, A: v0},
			{Op: engine.OpAND, Dst: t0, A: v1, B: t0},
			{Op: engine.OpAND, Dst: t0, A: v2, B: t0},
			{Op: engine.OpAND, Dst: t0, A: v3, B: t0},
		},
		"a | (b | (c | d))": {
			{Op: engine.OpCOPY, Dst: t0, A: v2},
			{Op: engine.OpOR, Dst: t0, A: v3, B: t0},
			{Op: engine.OpOR, Dst: t0, A: v1, B: t0},
			{Op: engine.OpOR, Dst: t0, A: v0, B: t0},
		},
		"(a ^ b) & c & d": {
			{Op: engine.OpXOR, Dst: t0, A: v0, B: v1},
			{Op: engine.OpAND, Dst: t0, A: v2, B: t0},
			{Op: engine.OpAND, Dst: t0, A: v3, B: t0},
		},
		"a & b": {{Op: engine.OpAND, Dst: t0, A: v0, B: v1}},
	} {
		p, err := Compile(MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		if p.TempSlots != 1 || !slices.Equal(p.Instrs, want) {
			t.Errorf("%q compiled to\n%s, want %v", src, p, want)
		}
	}
}

// TestScheduleFoldsNeverGrowTemps: a fold writes its accumulator's slot
// and a staged chain head takes the slot its gate took, so no program
// needs more temps than the three-operand schedule of the same DAG, and
// no expression that schedule fits is refused for rows.
func TestScheduleFoldsNeverGrowTemps(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 3000; i++ {
		d, err := BuildDAG(randomExpr(rng, 6, 6))
		if err != nil {
			t.Fatal(err)
		}
		if p := d.Schedule(); p.TempSlots > threeOperandSlots(d) {
			t.Fatalf("%s: %d temps, the three-operand schedule takes %d\n%s", d.Source, p.TempSlots, threeOperandSlots(d), p)
		}
	}
}

// threeOperandSlots is the temp count of the DAG's schedule without
// folds: every gate writes a fresh temp, taken before its dying operands
// free theirs, so the count is the peak number of live temps.
func threeOperandSlots(d *DAG) int {
	uses := map[*DAGNode]int{d.Root: 1}
	for _, v := range d.Order {
		uses[v.A]++
		if v.B != nil {
			uses[v.B]++
		}
	}
	live, peak := 0, 0
	for _, v := range d.Order {
		live++
		peak = max(peak, live)
		for _, o := range []*DAGNode{v.A, v.B} {
			if o != nil && !o.Leaf {
				if uses[o]--; uses[o] == 0 {
					live--
				}
			}
		}
	}
	return peak
}

func TestProgramString(t *testing.T) {
	p, err := Compile(MustParse("a & ~b"))
	if err != nil {
		t.Fatal(err)
	}
	s := p.String()
	if !strings.Contains(s, "NOT") || !strings.Contains(s, "AND") {
		t.Errorf("program render missing ops:\n%s", s)
	}
}

func TestCostComparesDesigns(t *testing.T) {
	p, err := Compile(MustParse("(a & b) | (~a & c)"))
	if err != nil {
		t.Fatal(err)
	}
	ce, err := p.Cost(elpim.MustNew(elpim.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	ca, err := p.Cost(ambit.MustNew(ambit.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if ce.LatencyNS >= ca.LatencyNS {
		t.Errorf("ELP2IM program cost %v must beat Ambit %v", ce.LatencyNS, ca.LatencyNS)
	}
	if ce.Commands == 0 {
		t.Error("cost must count commands")
	}
}

// executeOn runs a program on a fresh subarray with random inputs and
// checks every bit against Node.Eval.
func executeOn(t *testing.T, ex engine.Executor, n *Node, seed int64) {
	t.Helper()
	p, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	const cols = 192
	cfg := dram.Config{
		Banks: 1, SubarraysPerBank: 1,
		RowsPerSubarray: 24, Columns: cols, DualContactRows: 2,
	}
	sub := dram.NewSubarray(cfg)
	rng := rand.New(rand.NewSource(seed))
	varRows := make([]int, len(p.Vars))
	data := make([]*bitvec.Vector, len(p.Vars))
	for i := range p.Vars {
		varRows[i] = i
		data[i] = bitvec.Random(rng, cols)
		sub.LoadRow(i, data[i])
	}
	resRow, err := p.Execute(sub, ex, varRows, 10)
	if err != nil {
		t.Fatal(err)
	}
	got := sub.RowData(resRow)
	env := map[string]bool{}
	for bit := 0; bit < cols; bit++ {
		for i, v := range p.Vars {
			env[v] = data[i].Bit(bit)
		}
		if got.Bit(bit) != n.Eval(env) {
			t.Fatalf("bit %d: got %v, want %v for %s", bit, got.Bit(bit), n.Eval(env), n)
		}
	}
	// Inputs preserved.
	for i := range p.Vars {
		if !sub.RowData(varRows[i]).Equal(data[i]) {
			t.Fatalf("input %s clobbered", p.Vars[i])
		}
	}
}

func TestExecuteOnAllEngines(t *testing.T) {
	exprs := []string{
		"a & b",
		"~(a | b) ^ c",
		"(a & ~b) | (~a & b)",         // XOR the long way
		"(a & b) | (b & c) | (a & c)", // majority
		"((a ^ b) ^ c) & ~(d | e)",    // five variables
		"~a & ~b & ~c",                // NOR chain
		"(a | b) & (a | c) & (b | c)", // majority, OR form
	}
	engines := map[string]engine.Executor{
		"elpim": elpim.MustNew(elpim.DefaultConfig()),
		"ambit": ambit.MustNew(ambit.DefaultConfig()),
		"drisa": drisa.MustNew(drisa.DefaultConfig()),
	}
	for name, ex := range engines {
		for i, src := range exprs {
			t.Run(name+"/"+src, func(t *testing.T) {
				executeOn(t, ex, MustParse(src), int64(i)*17+1)
			})
		}
	}
}

func TestExecuteErrors(t *testing.T) {
	p, err := Compile(MustParse("a & b"))
	if err != nil {
		t.Fatal(err)
	}
	ex := elpim.MustNew(elpim.DefaultConfig())
	sub := dram.NewSubarray(dram.Config{
		Banks: 1, SubarraysPerBank: 1, RowsPerSubarray: 8, Columns: 64, DualContactRows: 1,
	})
	if _, err := p.Execute(sub, ex, []int{0}, 4); err == nil {
		t.Error("wrong var-row count accepted")
	}
	if _, err := p.Execute(sub, ex, []int{0, 1}, 8); err == nil {
		t.Error("out-of-range scratch base accepted")
	}
}

// randomExpr builds a random expression tree over k variables.
func randomExpr(rng *rand.Rand, depth, k int) *Node {
	if depth == 0 || rng.Intn(4) == 0 {
		return Var(string(rune('a' + rng.Intn(k))))
	}
	switch rng.Intn(4) {
	case 0:
		return Not(randomExpr(rng, depth-1, k))
	case 1:
		return And(randomExpr(rng, depth-1, k), randomExpr(rng, depth-1, k))
	case 2:
		return Or(randomExpr(rng, depth-1, k), randomExpr(rng, depth-1, k))
	default:
		return Xor(randomExpr(rng, depth-1, k), randomExpr(rng, depth-1, k))
	}
}

// Property: compiled programs match Eval on random expressions, executed
// through the real ELP2IM command interpreter.
func TestRandomExpressionsProperty(t *testing.T) {
	ex := elpim.MustNew(elpim.DefaultConfig())
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomExpr(rng, 4, 4)
		p, err := Compile(n)
		if err != nil {
			return false
		}
		const cols = 64
		cfg := dram.Config{
			Banks: 1, SubarraysPerBank: 1,
			RowsPerSubarray: 8 + p.TempSlots + len(p.Vars), Columns: cols, DualContactRows: 1,
		}
		sub := dram.NewSubarray(cfg)
		varRows := make([]int, len(p.Vars))
		data := make([]*bitvec.Vector, len(p.Vars))
		for i := range p.Vars {
			varRows[i] = i
			data[i] = bitvec.Random(rng, cols)
			sub.LoadRow(i, data[i])
		}
		resRow, err := p.Execute(sub, ex, varRows, len(p.Vars))
		if err != nil {
			return false
		}
		got := sub.RowData(resRow)
		env := map[string]bool{}
		for bit := 0; bit < cols; bit++ {
			for i, v := range p.Vars {
				env[v] = data[i].Bit(bit)
			}
			if got.Bit(bit) != n.Eval(env) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: round-trip Parse(String()) is identity on structure.
func TestParseStringRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomExpr(rng, 5, 3)
		back, err := Parse(n.String())
		if err != nil {
			return false
		}
		return back.String() == n.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
