package plan

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dram"
	"repro/internal/elpim"
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
// arity bounds, register shapes, slot ranges, and the no-alias rule
// between a cluster's output slot and its input slots.
func checkInvariants(t *testing.T, p *Plan) {
	t.Helper()
	for i, c := range p.Clusters {
		if len(c.Inputs) != c.Spec.K {
			t.Fatalf("cluster %d: %d inputs for K=%d", i, len(c.Inputs), c.Spec.K)
		}
		if c.Spec.K < 1 || c.Spec.K > kernel.MaxFusedInputs {
			t.Fatalf("cluster %d: K=%d out of range", i, c.Spec.K)
		}
		if len(c.Spec.Ops) == 0 {
			t.Fatalf("cluster %d: empty spec", i)
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
		for oi, op := range c.Spec.Ops {
			if op.Dst < c.Spec.K || op.Dst >= c.Spec.Regs {
				t.Fatalf("cluster %d op %d: dst %d out of range", i, oi, op.Dst)
			}
			if op.A < 0 || op.A >= c.Spec.Regs || (!op.Op.Unary() && (op.B < 0 || op.B >= c.Spec.Regs)) {
				t.Fatalf("cluster %d op %d: operand out of range", i, oi)
			}
		}
	}
}

// evalPlan evaluates a plan in software via the cluster truth tables.
func evalPlan(p *Plan, env map[string]bool) bool {
	if len(p.Clusters) == 0 {
		return env[p.Vars[0]]
	}
	slots := make([]bool, p.Slots)
	for _, c := range p.Clusters {
		idx := 0
		for j, in := range c.Inputs {
			var v bool
			if in.Var {
				v = env[p.Vars[in.Index]]
			} else {
				v = slots[in.Index]
			}
			if v {
				idx |= 1 << j
			}
		}
		slots[c.Out] = c.Table>>uint(idx)&1 == 1
	}
	return slots[p.Result().Index]
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
// assignments: the plan's cluster tables, input wiring, and slot
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
// gates collapse into the first, the root XOR into the second.
func TestPlanClustering(t *testing.T) {
	p := compilePlan(t, "((a|b) & (c|d) & (e|f)) ^ g")
	checkInvariants(t, p)
	if len(p.Clusters) != 2 {
		t.Fatalf("expected 2 clusters, got %d\n%s", len(p.Clusters), p)
	}
	c0, c1 := p.Clusters[0], p.Clusters[1]
	if c0.Spec.K != 6 || c0.Nodes != 5 || len(c0.Spec.Ops) != 5 {
		t.Fatalf("cluster 0: K=%d nodes=%d ops=%d, want 6/5/5", c0.Spec.K, c0.Nodes, len(c0.Spec.Ops))
	}
	if c1.Spec.K != 2 || c1.Nodes != 1 {
		t.Fatalf("cluster 1: K=%d nodes=%d, want 2/1", c1.Spec.K, c1.Nodes)
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
// spec op.
func TestPlanIntraClusterCSE(t *testing.T) {
	p := compilePlan(t, "(a & b) | ((a & b) & c)")
	if len(p.Clusters) != 1 {
		t.Fatalf("expected 1 cluster\n%s", p)
	}
	if got := len(p.Clusters[0].Spec.Ops); got != 3 {
		t.Fatalf("expected 3 spec ops (and, and, or), got %d\n%s", got, p)
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
// software-expected one the compiler attached to the cluster.
func TestPlanTablesMatchDevice(t *testing.T) {
	set := kernel.NewFusedSet(elpim.MustNew(elpim.DefaultConfig()), dram.Default())
	for _, src := range planExprs {
		p := compilePlan(t, src)
		for i := range p.Clusters {
			f, err := set.Fused(p.Clusters[i].Spec)
			if err != nil {
				t.Fatalf("%q cluster %d: %v", src, i, err)
			}
			if f.Table() != p.Clusters[i].Table {
				t.Fatalf("%q cluster %d: device table %#x, plan table %#x",
					src, i, f.Table(), p.Clusters[i].Table)
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
