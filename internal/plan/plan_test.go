package plan

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dram"
	"repro/internal/elpim"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/kernel"
)

// compilePlan parses and compiles src.
func compilePlan(t *testing.T, src string) *Plan {
	t.Helper()
	d, err := expr.BuildDAG(expr.MustParse(src))
	if err != nil {
		t.Fatalf("BuildDAG(%q): %v", src, err)
	}
	p, err := Compile(d)
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	return p
}

// checkInvariants verifies the structural contract of a plan: cluster
// arity bounds, program shapes, slot ranges, and the no-alias rule
// between a cluster's output slot and its input slots.
func checkInvariants(t *testing.T, p *Plan) {
	t.Helper()
	for i, c := range p.Clusters {
		prog := c.Spec.Prog
		k := len(prog.Vars)
		if len(c.Inputs) != k {
			t.Fatalf("cluster %d: %d inputs for %d program variables", i, len(c.Inputs), k)
		}
		if k < 1 || k > kernel.MaxFusedInputs {
			t.Fatalf("cluster %d: K=%d out of range", i, k)
		}
		if c.Spec.Key != c.Spec.CacheKey() {
			t.Fatalf("cluster %d: key %q, want %q", i, c.Spec.Key, c.Spec.CacheKey())
		}
		if c.Out < 0 || c.Out >= p.Slots {
			t.Fatalf("cluster %d: out slot %d with %d slots", i, c.Out, p.Slots)
		}
		for j, in := range c.Inputs {
			if in.Var {
				if in.Index < 0 || in.Index >= len(p.Vars) {
					t.Fatalf("cluster %d input %d: var %d out of range", i, j, in.Index)
				}
				continue
			}
			if in.Index < 0 || in.Index >= p.Slots {
				t.Fatalf("cluster %d input %d: slot %d with %d slots", i, j, in.Index, p.Slots)
			}
			if in.Index == c.Out {
				t.Fatalf("cluster %d: output slot %d aliases input %d", i, c.Out, j)
			}
		}
		// Every gate is scheduled once, into a temp; the only other
		// instructions are chain heads' COPYs.
		inRange := func(r expr.Ref) bool {
			if r.Temp {
				return r.Index >= 0 && r.Index < prog.TempSlots
			}
			return r.Index >= 0 && r.Index < k
		}
		copies := 0
		for oi, in := range prog.Instrs {
			if !in.Dst.Temp || !inRange(in.Dst) {
				t.Fatalf("cluster %d instr %d (%v): dst out of range", i, oi, in)
			}
			if !inRange(in.A) || (!in.Op.Unary() && !inRange(in.B)) {
				t.Fatalf("cluster %d instr %d (%v): operand out of range", i, oi, in)
			}
			if in.Op == engine.OpCOPY {
				copies++
			}
		}
		if len(prog.Instrs)-copies != c.Nodes {
			t.Fatalf("cluster %d: %d instructions with %d COPYs for %d gates\n%s",
				i, len(prog.Instrs), copies, c.Nodes, prog)
		}
	}
}

// runProg evaluates a register program in software over word-valued
// inputs.
func runProg(prog *expr.Program, inputs []uint64) uint64 {
	vars := append([]uint64(nil), inputs...)
	temps := make([]uint64, prog.TempSlots)
	reg := func(r expr.Ref) *uint64 {
		if r.Temp {
			return &temps[r.Index]
		}
		return &vars[r.Index]
	}
	for _, in := range prog.Instrs {
		a := *reg(in.A)
		var b, x uint64
		if !in.Op.Unary() {
			b = *reg(in.B)
		}
		switch in.Op {
		case engine.OpNOT:
			x = ^a
		case engine.OpCOPY:
			x = a
		case engine.OpAND:
			x = a & b
		case engine.OpOR:
			x = a | b
		case engine.OpXOR:
			x = a ^ b
		case engine.OpNAND:
			x = ^(a & b)
		case engine.OpNOR:
			x = ^(a | b)
		case engine.OpXNOR:
			x = ^(a ^ b)
		default:
			panic(fmt.Sprintf("runProg: unknown op %v", in.Op))
		}
		*reg(in.Dst) = x
	}
	return *reg(prog.Result())
}

// evalPlan evaluates a plan in software: each cluster's program over its
// inputs' values, all-ones for true.
func evalPlan(p *Plan, env map[string]bool) bool {
	if len(p.Clusters) == 0 {
		return env[p.Vars[0]]
	}
	word := func(b bool) uint64 {
		if b {
			return ^uint64(0)
		}
		return 0
	}
	slots := make([]uint64, p.Slots)
	for _, c := range p.Clusters {
		in := make([]uint64, len(c.Inputs))
		for j, r := range c.Inputs {
			if r.Var {
				in[j] = word(env[p.Vars[r.Index]])
			} else {
				in[j] = slots[r.Index]
			}
		}
		slots[c.Out] = runProg(c.Spec.Prog, in)
	}
	return slots[p.Result().Index] == ^uint64(0)
}

// planExprs is the expression corpus shared by the equivalence tests:
// deep chains, wide unions forcing materialization, shared
// subexpressions inside and across cluster boundaries, and negations.
var planExprs = []string{
	"a",
	"~a",
	"a & b",
	"~(a | b)",
	"(a & b) | (a & b)",
	"(a & b) | ((a & b) & c)",
	"(a ^ b) & (b ^ c) | ~a",
	"((a|b) & (c|d) & (e|f)) ^ g",
	"a ^ b ^ c ^ d ^ e ^ f ^ g ^ h",
	"(a & ~b) | (c & ~d) | (e & ~f) | (g & ~h)",
	"((a^b) | (c&d)) & ((e|f) ^ (g&h)) & ~(a&h)",
	"~(~(~(~(~a ^ b) & c) | d) ^ e)",
	"(a&b&c&d&e&f) | (c&d&e&f&g&h)",
}

// TestPlanEquivalence brute-forces every expression over all variable
// assignments: the plan's cluster programs, input wiring, and slot
// schedule must agree with the AST evaluator.
func TestPlanEquivalence(t *testing.T) {
	for _, src := range planExprs {
		node := expr.MustParse(src)
		p := compilePlan(t, src)
		checkInvariants(t, p)
		vars := node.Vars()
		if len(vars) > 10 {
			t.Fatalf("%q: corpus expression too wide to brute force", src)
		}
		env := map[string]bool{}
		for m := 0; m < 1<<len(vars); m++ {
			for i, v := range vars {
				env[v] = m>>i&1 == 1
			}
			if got, want := evalPlan(p, env), node.Eval(env); got != want {
				t.Fatalf("%q env %v: plan %v, AST %v\n%s", src, env, got, want, p)
			}
		}
	}
}

// TestPlanProgMatchesCompile pins the cost foundation: the plan's
// node-at-a-time program is byte-identical to expr.Compile of the same
// source, so every tier prices the identical instruction stream.
func TestPlanProgMatchesCompile(t *testing.T) {
	for _, src := range planExprs {
		p := compilePlan(t, src)
		prog, err := expr.Compile(expr.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p.Prog, prog) {
			t.Fatalf("%q: plan program differs from expr.Compile\nplan: %s\nexpr: %s",
				src, p.Prog, prog)
		}
	}
}

// TestPlanClustering pins the worked example of DESIGN.md §14: the
// 6-gate, 7-variable DAG splits into exactly two fused kernels — five
// gates collapse into the first, the root XOR into the second. Cluster
// 0's program is seven instructions: the ORs c|d and e|f head the two
// AND folds, so each is a COPY and an OR fold.
func TestPlanClustering(t *testing.T) {
	p := compilePlan(t, "((a|b) & (c|d) & (e|f)) ^ g")
	checkInvariants(t, p)
	if len(p.Clusters) != 2 {
		t.Fatalf("expected 2 clusters, got %d\n%s", len(p.Clusters), p)
	}
	c0, c1 := p.Clusters[0], p.Clusters[1]
	if k, ops := len(c0.Spec.Prog.Vars), len(c0.Spec.Prog.Instrs); k != 6 || c0.Nodes != 5 || ops != 7 {
		t.Fatalf("cluster 0: K=%d nodes=%d ops=%d, want 6/5/7\n%s", k, c0.Nodes, ops, c0.Spec.Prog)
	}
	if k := len(c1.Spec.Prog.Vars); k != 2 || c1.Nodes != 1 {
		t.Fatalf("cluster 1: K=%d nodes=%d, want 2/1", k, c1.Nodes)
	}
	if c1.Inputs[0].Var || c1.Inputs[0].Index != c0.Out {
		t.Fatalf("cluster 1 should read cluster 0's slot: %s", p)
	}
	if !c1.Inputs[1].Var || p.Vars[c1.Inputs[1].Index] != "g" {
		t.Fatalf("cluster 1 should read variable g: %s", p)
	}

	// A single-cluster expression stays fused whole.
	one := compilePlan(t, "(a & b) | (c ^ ~d) | (e & f)")
	if len(one.Clusters) != 1 {
		t.Fatalf("expected 1 cluster, got %d\n%s", len(one.Clusters), one)
	}
}

// TestPlanIntraClusterCSE pins that a shared gate is emitted once per
// cluster: (a&b) feeds both the OR and the nested AND but appears as one
// spec op. The nested AND heads the OR's fold, so it is a COPY of a&b
// and an AND fold.
func TestPlanIntraClusterCSE(t *testing.T) {
	p := compilePlan(t, "(a & b) | ((a & b) & c)")
	if len(p.Clusters) != 1 {
		t.Fatalf("expected 1 cluster\n%s", p)
	}
	if got := len(p.Clusters[0].Spec.Prog.Instrs); got != 4 {
		t.Fatalf("expected 4 spec ops (and, copy, and, or), got %d\n%s", got, p.Clusters[0].Spec.Prog)
	}
}

// TestPlanSlotReuse pins the slot allocator: a chain of materialized
// clusters whose intermediates die immediately reuses slots instead of
// growing linearly.
func TestPlanSlotReuse(t *testing.T) {
	// Seven 6-variable groups joined left-to-right: the sixth join holds
	// six materialized groups (the arity limit), so the seventh forces an
	// interior cluster that consumes the first six slots before the root
	// runs — the point where the free list pays off.
	var b strings.Builder
	v := 0
	group := func() string {
		parts := make([]string, 6)
		for i := range parts {
			parts[i] = fmt.Sprintf("x%d", v)
			v++
		}
		return "(" + strings.Join(parts, "^") + ")"
	}
	b.WriteString(group())
	for g := 1; g < 7; g++ {
		b.WriteString(" & " + group())
	}
	p := compilePlan(t, b.String())
	checkInvariants(t, p)
	if len(p.Clusters) < 4 {
		t.Fatalf("expected a multi-cluster chain, got %d\n%s", len(p.Clusters), p)
	}
	if p.Slots >= len(p.Clusters) {
		t.Fatalf("slots (%d) should be below cluster count (%d) under reuse\n%s",
			p.Slots, len(p.Clusters), p)
	}
}

// TestPlanLeaf pins the bare-variable plan shape.
func TestPlanLeaf(t *testing.T) {
	p := compilePlan(t, "a")
	if len(p.Clusters) != 0 || p.Slots != 0 {
		t.Fatalf("leaf plan has clusters: %s", p)
	}
	if r := p.Result(); !r.Var || r.Index != 0 {
		t.Fatalf("leaf result %v", r)
	}
	if len(p.Prog.Instrs) != 0 {
		t.Fatal("leaf program has instructions")
	}
	if _, err := Compile(nil); err == nil {
		t.Fatal("Compile(nil) should error")
	}
}

// TestPlanTablesMatchDevice derives every corpus cluster's fused kernel
// from a real engine: the device-probed truth table must equal the
// cluster program's table evaluated in software over the probe patterns
// (input j's bit i is (i>>j)&1).
func TestPlanTablesMatchDevice(t *testing.T) {
	set := kernel.NewFusedSet(elpim.MustNew(elpim.DefaultConfig()), dram.Default())
	var pats [kernel.MaxFusedInputs]uint64
	for j := range pats {
		for i := 0; i < 64; i++ {
			pats[j] |= uint64(i>>j&1) << i
		}
	}
	for _, src := range planExprs {
		p := compilePlan(t, src)
		for i := range p.Clusters {
			c := &p.Clusters[i]
			f, err := set.Fused(c.Spec)
			if err != nil {
				t.Fatalf("%q cluster %d: %v", src, i, err)
			}
			want := runProg(c.Spec.Prog, pats[:len(c.Inputs)])
			if k := len(c.Inputs); k < kernel.MaxFusedInputs {
				want &= 1<<(1<<k) - 1
			}
			if f.Table() != want {
				t.Fatalf("%q cluster %d: device table %#x, software table %#x",
					src, i, f.Table(), want)
			}
		}
	}
}

// TestPlanDeterminism pins that compilation is deterministic: two
// compiles of one source produce identical plans (the fused-kernel cache
// keys on the spec, so nondeterministic specs would defeat it).
func TestPlanDeterminism(t *testing.T) {
	for _, src := range planExprs {
		p1, p2 := compilePlan(t, src), compilePlan(t, src)
		if p1.String() != p2.String() {
			t.Fatalf("%q: nondeterministic plans\n%s\n%s", src, p1, p2)
		}
		for i := range p1.Clusters {
			if !reflect.DeepEqual(p1.Clusters[i].Spec, p2.Clusters[i].Spec) {
				t.Fatalf("%q cluster %d: specs differ", src, i)
			}
		}
	}
}
