package expr

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/dram"
	"repro/internal/engine"
)

// Ref names an operand of a compiled instruction.
type Ref struct {
	// Temp is true for scratch values, false for input variables.
	Temp bool
	// Index is the variable index (into Program.Vars) or the temp slot.
	Index int
}

func varRef(i int) Ref  { return Ref{Temp: false, Index: i} }
func tempRef(i int) Ref { return Ref{Temp: true, Index: i} }

// String renders the reference.
func (r Ref) String() string {
	if r.Temp {
		return fmt.Sprintf("t%d", r.Index)
	}
	return fmt.Sprintf("v%d", r.Index)
}

// Instr is one three-address operation: Dst = Op(A, B) (B unused for
// unary ops). Dst is a temp, except that a fold may accumulate into a
// variable: a fold is a binary instruction whose Dst is its B operand,
// B = Op(A, B), which accumulates A into B in place — into a temp in
// the AND/OR chains Schedule lowers, into a variable in a Reduce's fold
// step. Execute runs it in place wherever the executor can.
type Instr struct {
	Op   engine.Op
	Dst  Ref
	A, B Ref
}

// Fold reports whether the instruction is a fold: whether it
// accumulates into its B operand.
func (in Instr) Fold() bool { return !in.Op.Unary() && in.Dst == in.B }

// String renders the instruction.
func (in Instr) String() string {
	if in.Op.Unary() {
		return fmt.Sprintf("%s = %s %s", in.Dst, in.Op, in.A)
	}
	return fmt.Sprintf("%s = %s %s, %s", in.Dst, in.Op, in.A, in.B)
}

// Program is a compiled expression: an instruction list over input
// variables and scratch temps, with the result in the last instruction's
// destination.
type Program struct {
	// Vars are the input variable names, in first-appearance order.
	Vars []string
	// Instrs is the instruction list in execution order.
	Instrs []Instr
	// TempSlots is the number of scratch rows needed after allocation.
	TempSlots int
	// Source is the original expression.
	Source string
}

// Result returns the reference holding the final value.
func (p *Program) Result() Ref {
	if len(p.Instrs) == 0 {
		return varRef(0) // expression was a bare variable
	}
	return p.Instrs[len(p.Instrs)-1].Dst
}

// String renders the program.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "; %s  (vars: %s, temps: %d)\n",
		p.Source, strings.Join(p.Vars, ","), p.TempSlots)
	for _, in := range p.Instrs {
		fmt.Fprintf(&b, "%s\n", in)
	}
	return b.String()
}

// DAGNode is one node of the optimized expression DAG: either a variable
// leaf (Leaf true, VarIndex into DAG.Vars) or a gate applying Op to its
// operands (B nil for unary Op). Structural sharing is real sharing —
// common subexpressions are one node pointed to by every user — so
// consumers (the scheduler, the plan compiler in internal/plan) can key
// maps by node identity.
type DAGNode struct {
	// Op is the gate of an interior node (undefined for leaves).
	Op engine.Op
	// A and B are the operands (B nil for unary gates and leaves).
	A, B *DAGNode
	// VarIndex is the leaf's index into DAG.Vars.
	VarIndex int
	// Leaf marks a variable leaf.
	Leaf bool
}

// DAG is the optimized form of one expression: common subexpressions
// merged (hash-consing over the commutativity-canonicalized structure),
// double negations removed, and NOT gates fused into the engine-native
// complement gates (NAND/NOR/XNOR). It is the single source both
// schedules compile from — the node-at-a-time command schedule
// (Schedule) and the fused cluster schedule (internal/plan), whose
// clusters' register programs are Schedule of their cut sub-DAGs —
// which is what keeps their semantics and the cost model's instruction
// stream in lock step.
type DAG struct {
	// Root is the result node.
	Root *DAGNode
	// Order lists the interior nodes in post-order (operands before
	// users) — the emission order of every schedule. Empty when Root is
	// a bare variable leaf.
	Order []*DAGNode
	// Vars are the input variable names, in first-appearance order.
	Vars []string
	// Source is the original expression.
	Source string
}

// BuildDAG lowers a parse tree to the optimized DAG: CSE via structural
// hash-consing, double-negation removal, and NOT-into-gate fusion on a
// gate's inputs and, where the gate has no other user, on its output.
func BuildDAG(n *Node) (*DAG, error) {
	if n == nil {
		return nil, errors.New("expr: nil expression")
	}
	vars := n.Vars()
	vidx := map[string]int{}
	for i, v := range vars {
		vidx[v] = i
	}

	// Build the DAG with structural sharing: one leaf per variable, and
	// every gate interned, so equal gates are one node — also gates the
	// source spells differently, as ~a ^ b and a ^ ~b.
	leaves := make([]*DAGNode, len(vars))
	for i := range leaves {
		leaves[i] = &DAGNode{Leaf: true, VarIndex: i}
	}
	gates := map[gateKey]*DAGNode{}
	var build func(*Node) *DAGNode
	build = func(x *Node) *DAGNode {
		switch x.Kind {
		case NodeVar:
			return leaves[vidx[x.Name]]
		case NodeNot:
			a := build(x.Left)
			// Double negation: ~~e = e.
			if !a.Leaf && a.Op == engine.OpNOT {
				return a.A
			}
			return intern(gates, &DAGNode{Op: engine.OpNOT, A: a})
		}
		a, b := build(x.Left), build(x.Right)
		var op engine.Op
		switch x.Kind {
		case NodeAnd:
			op = engine.OpAND
		case NodeOr:
			op = engine.OpOR
		case NodeXor:
			op = engine.OpXOR
		}
		return intern(gates, fuse(op, a, b))
	}
	root := build(n)

	d := &DAG{Root: root, Vars: vars, Source: n.String()}
	if root.Leaf {
		return d, nil
	}
	d.Order = postOrder(root)
	if fuseOutputNots(d.Order) {
		d.Order = postOrder(root)
		if mergeEqualGates(d.Order) {
			d.Order = postOrder(root)
		}
	}
	return d, nil
}

// postOrder lists the interior nodes reachable from root, operands
// before users: the emission order of every schedule.
func postOrder(root *DAGNode) []*DAGNode {
	var order []*DAGNode
	seen := map[*DAGNode]bool{}
	var walk func(*DAGNode)
	walk = func(v *DAGNode) {
		if v.Leaf || seen[v] {
			return
		}
		seen[v] = true
		walk(v.A)
		if v.B != nil {
			walk(v.B)
		}
		order = append(order, v)
	}
	walk(root)
	return order
}

// complementGate maps each binary gate to the gate computing its
// negation.
var complementGate = map[engine.Op]engine.Op{
	engine.OpAND: engine.OpNAND, engine.OpNAND: engine.OpAND,
	engine.OpOR: engine.OpNOR, engine.OpNOR: engine.OpOR,
	engine.OpXOR: engine.OpXNOR, engine.OpXNOR: engine.OpXOR,
}

// fuseOutputNots rewrites, in place, every NOT over a binary gate that
// has no other user into that gate's complement (~(a ^ b) → XNOR(a, b)),
// and reports whether any node changed. The rewritten gate becomes
// unreachable, so the caller rebuilds the order. A gate with other users
// keeps its NOT: they still need the gate computed, and a NOT over it
// costs less than computing its complement as well.
func fuseOutputNots(order []*DAGNode) bool {
	users := map[*DAGNode]int{}
	for _, v := range order {
		users[v.A]++
		if v.B != nil {
			users[v.B]++
		}
	}
	changed := false
	for _, v := range order {
		if v.Op != engine.OpNOT || v.A.Leaf || users[v.A] != 1 {
			continue
		}
		g := v.A
		comp, ok := complementGate[g.Op]
		if !ok {
			continue
		}
		v.Op, v.A, v.B = comp, g.A, g.B
		changed = true
	}
	return changed
}

// gateKey identifies a gate by its op and operand nodes: the key of
// structural hash-consing.
type gateKey struct {
	op   engine.Op
	a, b *DAGNode
}

// intern returns the gate in gates applying v's op to v's operands, in
// either order (every binary gate is commutative), adding v if there is
// none.
func intern(gates map[gateKey]*DAGNode, v *DAGNode) *DAGNode {
	if u, ok := gates[gateKey{v.Op, v.A, v.B}]; ok {
		return u
	}
	if u, ok := gates[gateKey{v.Op, v.B, v.A}]; ok {
		return u
	}
	gates[gateKey{v.Op, v.A, v.B}] = v
	return v
}

// mergeEqualGates interns the gates of a post-order afresh after
// fuseOutputNots has rewritten some in place: a rewritten gate can equal
// one already in the DAG, as ~(a ^ b) becomes the XNOR that ~a ^ b
// built. It reports whether any gate merged; merged-away gates become
// unreachable, so the caller rebuilds the order. The root never merges:
// every other gate is below it.
func mergeEqualGates(order []*DAGNode) bool {
	gates := map[gateKey]*DAGNode{}
	rep := map[*DAGNode]*DAGNode{}
	for _, v := range order {
		if r, ok := rep[v.A]; ok {
			v.A = r
		}
		if r, ok := rep[v.B]; ok {
			v.B = r
		}
		if u := intern(gates, v); u != v {
			rep[v] = u
		}
	}
	return len(rep) > 0
}

// Schedule emits the DAG as a node-at-a-time Program: instructions in
// post-order, with scratch rows allocated by liveness so dead temps are
// reused, and AND/OR chains lowered to in-place folds (Figure 5(a)) by
// two rules:
//
//   - fold into a dying temp: an AND/OR with a temp operand that no later
//     instruction reads becomes the fold B = op(A, B) into that temp,
//     its operands swapped when the dying temp is A;
//   - stage a chain head: an AND/OR with no such operand, but whose
//     result a later fold accumulates into, becomes a COPY of its A
//     operand into its destination, then the fold of its B operand.
//
// A left- or right-deep chain of n operands is thus one COPY and n-1
// folds, the step list of Reduce over the same operands. Every other
// gate is one three-operand instruction into a fresh temp.
func (d *DAG) Schedule() *Program {
	p := &Program{Vars: d.Vars, Source: d.Source}
	if d.Root.Leaf {
		// Bare variable: no instructions; Result refers to the variable.
		return p
	}

	// last[v] is the gate that reads v last, where v's temp dies; the root
	// has no reader, so it never dies.
	last := map[*DAGNode]*DAGNode{}
	for _, v := range d.Order {
		last[v.A] = v
		if v.B != nil {
			last[v.B] = v
		}
	}
	// acc[v] is the dying temp operand an AND/OR gate folds into (its B
	// operand when both die), and folded marks the gates whose result a
	// fold accumulates into.
	acc := map[*DAGNode]*DAGNode{}
	folded := map[*DAGNode]bool{}
	for _, v := range d.Order {
		if v.Op != engine.OpAND && v.Op != engine.OpOR {
			continue
		}
		for _, o := range [2]*DAGNode{v.B, v.A} {
			if !o.Leaf && last[o] == v {
				acc[v], folded[o] = o, true
				break
			}
		}
	}

	// Emit in post-order with liveness-based temp-slot reuse.
	var free []bool
	alloc := func() int {
		for i := range free {
			if free[i] {
				free[i] = false
				return i
			}
		}
		free = append(free, false)
		return len(free) - 1
	}
	refs := map[*DAGNode]Ref{}
	refOf := func(v *DAGNode) Ref {
		if v.Leaf {
			return varRef(v.VarIndex)
		}
		return refs[v]
	}

	for _, v := range d.Order {
		a := refOf(v.A)
		var b Ref
		if v.B != nil {
			b = refOf(v.B)
		}
		// A fold writes its accumulator's slot. Any other destination is
		// allocated BEFORE dying operands are released: some engine
		// sequences (ELP2IM's XOR/XNOR) read their operand rows again after
		// writing an intermediate into the destination, so a three-operand
		// destination must never alias an operand of the same instruction.
		var dst Ref
		if o := acc[v]; o != nil {
			dst = refs[o]
			if o != v.B {
				a, b = b, a
			}
		} else {
			dst = tempRef(alloc())
		}
		for _, o := range [2]*DAGNode{v.A, v.B} {
			if o != nil && !o.Leaf && last[o] == v && o != acc[v] {
				free[refs[o].Index] = true
			}
		}
		refs[v] = dst
		switch {
		case acc[v] != nil:
			p.Instrs = append(p.Instrs, Instr{Op: v.Op, Dst: dst, A: a, B: dst})
		case folded[v] && (v.Op == engine.OpAND || v.Op == engine.OpOR):
			p.Instrs = append(p.Instrs,
				Instr{Op: engine.OpCOPY, Dst: dst, A: a},
				Instr{Op: v.Op, Dst: dst, A: b, B: dst})
		default:
			p.Instrs = append(p.Instrs, Instr{Op: v.Op, Dst: dst, A: a, B: b})
		}
	}
	p.TempSlots = len(free)
	return p
}

// Compile lowers an expression to a Program: builds the CSE'd DAG, fuses
// NOT into following/preceding gates (NAND/NOR/XNOR/NOT collapses), and
// schedules it (Schedule): AND/OR chains fold in place, and scratch rows
// are allocated by liveness so temps are reused.
func Compile(n *Node) (*Program, error) {
	d, err := BuildDAG(n)
	if err != nil {
		return nil, err
	}
	return d.Schedule(), nil
}

// fuse applies input-side gate fusion: NOTs on the inputs of a binary
// gate collapse into the engine-native complement gate, saving a full
// DCC round-trip per fused NOT (fuseOutputNots handles a NOT on the
// output once every gate's users are known).
//
//	AND(¬x, ¬y) = NOR(x, y)      OR(¬x, ¬y) = NAND(x, y)
//	XOR(¬x, y) = XOR(x, ¬y) = XNOR(x, y)
//	XOR(¬x, ¬y) = XOR(x, y)
func fuse(op engine.Op, a, b *DAGNode) *DAGNode {
	na := !a.Leaf && a.Op == engine.OpNOT
	nb := !b.Leaf && b.Op == engine.OpNOT
	switch op {
	case engine.OpAND:
		if na && nb {
			return &DAGNode{Op: engine.OpNOR, A: a.A, B: b.A}
		}
	case engine.OpOR:
		if na && nb {
			return &DAGNode{Op: engine.OpNAND, A: a.A, B: b.A}
		}
	case engine.OpXOR:
		if na && nb {
			return &DAGNode{Op: engine.OpXOR, A: a.A, B: b.A}
		}
		if na {
			return &DAGNode{Op: engine.OpXNOR, A: a.A, B: b}
		}
		if nb {
			return &DAGNode{Op: engine.OpXNOR, A: a, B: b.A}
		}
	}
	return &DAGNode{Op: op, A: a, B: b}
}

// Cost returns the program's total modeled cost on a design (per stripe of
// row width): a fold at the design's chained cost (ChainStats), every
// other instruction at its three-operand cost. It errors for a fold whose
// op has no chained form on d.
func (p *Program) Cost(d engine.Engine) (engine.Stats, error) {
	var total engine.Stats
	for _, in := range p.Instrs {
		st := d.OpStats(in.Op)
		if in.Fold() {
			var err error
			if st, err = d.ChainStats(in.Op); err != nil {
				return engine.Stats{}, err
			}
		}
		total.Add(st)
	}
	return total, nil
}

// inPlaceExecutor is implemented by executors whose fold runs literally
// in place on the device model (ELP2IM's engine, Figure 5(a)).
type inPlaceExecutor interface {
	ExecuteInPlace(sub *dram.Subarray, op engine.Op, a, b int) error
}

// Execute runs the program on a subarray: varRows[i] is the row holding
// Vars[i]; scratch rows scratchBase, scratchBase+1, ... hold the temps.
// It returns the row holding the result. It is the one interpreter of a
// register program on the device model: the command tier runs a plan's
// node program through it, and kernel derivation probes a cluster's. A variable's row survives as
// long as an instruction still reads it: a fold overwrites its B
// variable, and an operation that consumes its A row may consume a
// variable no later instruction reads, so callers reload variable rows
// before every run. A fold runs through the executor's ExecuteInPlace
// where it has one, and as the three-operand Execute(sub, op, b, a, b)
// elsewhere.
func (p *Program) Execute(sub *dram.Subarray, ex engine.Executor, varRows []int, scratchBase int) (int, error) {
	if len(varRows) != len(p.Vars) {
		return 0, fmt.Errorf("expr: %d var rows for %d variables", len(varRows), len(p.Vars))
	}
	if scratchBase+p.TempSlots > sub.Rows() {
		return 0, fmt.Errorf("expr: program needs %d scratch rows at %d but subarray has %d rows",
			p.TempSlots, scratchBase, sub.Rows())
	}
	rowOf := func(r Ref) int {
		if r.Temp {
			return scratchBase + r.Index
		}
		return varRows[r.Index]
	}
	// When the executor consumes operand A's row (engine.OperandConsumer —
	// ELP2IM's two-buffer XOR/XNOR), a consuming instruction whose A value
	// a later instruction still reads re-stages A into the row above the
	// temp slots first.
	oc, _ := ex.(engine.OperandConsumer)
	ipe, inPlace := ex.(inPlaceExecutor)
	staging := scratchBase + p.TempSlots
	for i, in := range p.Instrs {
		a := rowOf(in.A)
		if oc != nil && oc.ConsumesOperandA(in.Op) && p.readAfter(i, in.A) {
			if staging >= sub.Rows() {
				return 0, fmt.Errorf("expr: program needs staging row %d but subarray has %d rows",
					staging, sub.Rows())
			}
			if err := ex.Execute(sub, engine.OpCOPY, staging, a, -1); err != nil {
				return 0, fmt.Errorf("expr: staging %s: %w", in, err)
			}
			a = staging
		}
		b := -1
		if !in.Op.Unary() {
			b = rowOf(in.B)
		}
		var err error
		if in.Fold() && inPlace {
			err = ipe.ExecuteInPlace(sub, in.Op, a, b)
		} else {
			err = ex.Execute(sub, in.Op, rowOf(in.Dst), a, b)
		}
		if err != nil {
			return 0, fmt.Errorf("expr: %s: %w", in, err)
		}
	}
	return rowOf(p.Result()), nil
}

// readAfter reports whether an instruction after i reads r before one
// redefines it: whether r's value is still needed once i has run.
func (p *Program) readAfter(i int, r Ref) bool {
	for _, in := range p.Instrs[i+1:] {
		if in.A == r || (!in.Op.Unary() && in.B == r) {
			return true
		}
		if in.Dst == r {
			return false
		}
	}
	return false
}
