package vertical

import (
	"fmt"
	"math/bits"
	"strconv"

	"repro/internal/expr"
	"repro/internal/plan"
)

// Step is one µProgram step: a compiled boolean plan whose value is
// written to the named destination slice. Every plan variable names
// either an operand slice (x*/y*/m), a previously produced output slice
// (z*), or a scratch slice (t*) written by an earlier step; a step never
// reads its own destination, so in-place execution is safe on every
// dispatch tier.
type Step struct {
	// Dst is the slice the step's value is stored to.
	Dst string
	// Plan is the compiled expression producing the value.
	Plan *plan.Plan
}

// Program is a compiled vertical operation: an ordered step list over
// named bit slices. Steps carry data dependencies only through slice
// names, stripe-locally — stripe s of any step reads only stripe s of
// earlier steps — so executors may partition stripes freely as long as
// each stripe observes the steps in order.
type Program struct {
	// Op is the operation the program computes.
	Op Op
	// Width is the operand element width in bits (1..64).
	Width int
	// OutWidth is the number of z output slices produced.
	OutWidth int
	// Temps lists the scratch slice names the executor must provide,
	// sized like the operand slices. Scratch reuse is pre-computed by
	// liveness, so the list stays short even for deep programs.
	Temps []string
	// Steps are the program steps in execution order.
	Steps []Step
}

// Len counts the program's steps.
func (p *Program) Len() int { return len(p.Steps) }

// vsrc is a value source a builder step may read: a virtual SSA id
// produced by an earlier step (vid >= 0) or a named input leaf.
type vsrc struct {
	vid  int
	name string
}

// leaf makes an input-slice source.
func leaf(name string) vsrc { return vsrc{vid: -1, name: name} }

// namer resolves a virtual id to its assigned physical slice name.
type namer func(vid int) string

// node renders the source as an expression leaf under the naming.
func (s vsrc) node(nm namer) *expr.Node {
	if s.vid >= 0 {
		return expr.Var(nm(s.vid))
	}
	return expr.Var(s.name)
}

// uses returns the virtual ids the source depends on.
func (s vsrc) uses() []int {
	if s.vid >= 0 {
		return []int{s.vid}
	}
	return nil
}

// bstep is one un-assembled builder step: the virtual id it defines, the
// ids it reads, and a constructor producing its expression tree once
// physical names are assigned.
type bstep struct {
	out   int
	uses  []int
	build func(nm namer) *expr.Node
}

// builder accumulates steps in SSA form: every step defines one fresh
// virtual id, and steps reference earlier values only through those ids.
// assemble then maps ids to physical slice names with a last-use scan so
// scratch slices are recycled instead of growing with program length
// (popcount at width 64 runs 183 steps on 12 temps).
type builder struct {
	steps []bstep
}

// emit appends a step reading srcs and returns its virtual id.
func (b *builder) emit(build func(nm namer) *expr.Node, srcs ...vsrc) int {
	id := len(b.steps)
	var uses []int
	for _, s := range srcs {
		u := s.uses()
		if len(u) == 0 {
			continue
		}
		dup := false
		for _, seen := range uses {
			if seen == u[0] {
				dup = true
				break
			}
		}
		if !dup {
			uses = append(uses, u[0])
		}
	}
	b.steps = append(b.steps, bstep{out: id, uses: uses, build: build})
	return id
}

// assemble lowers the SSA steps to a Program: virtual ids mapped to
// output names (for ids in outs) or recycled scratch names, each step's
// expression built under that naming and compiled through the plan IR.
// Scratch names free only after the step that last reads them, so a
// step's destination never aliases one of its own inputs.
func (b *builder) assemble(op Op, width int, outs map[int]string) (*Program, error) {
	lastUse := make(map[int]int, len(b.steps))
	for i, st := range b.steps {
		for _, u := range st.uses {
			lastUse[u] = i
		}
	}
	names := make(map[int]string, len(b.steps))
	var free []string
	var temps []string
	steps := make([]Step, 0, len(b.steps))
	for i, st := range b.steps {
		dst, isOut := outs[st.out]
		if !isOut {
			if n := len(free); n > 0 {
				dst = free[n-1]
				free = free[:n-1]
			} else {
				dst = "t" + strconv.Itoa(len(temps))
				temps = append(temps, dst)
			}
		}
		names[st.out] = dst
		node := st.build(func(vid int) string { return names[vid] })
		d, err := expr.BuildDAG(node)
		if err != nil {
			return nil, fmt.Errorf("vertical: %s/%d step %d: %v", op, width, i, err)
		}
		pl, err := plan.Compile(d)
		if err != nil {
			return nil, fmt.Errorf("vertical: %s/%d step %d: %v", op, width, i, err)
		}
		steps = append(steps, Step{Dst: dst, Plan: pl})
		for _, u := range st.uses {
			if lastUse[u] == i {
				if _, uo := outs[u]; !uo {
					free = append(free, names[u])
				}
			}
		}
	}
	return &Program{Op: op, Width: width, OutWidth: op.OutWidth(width), Temps: temps, Steps: steps}, nil
}

// Build synthesizes the µProgram computing op over width-bit elements.
// Width must be in 1..64. Each step's expression is kept narrow (at most
// kernel.MaxFusedInputs distinct slices) so the fusion tier collapses it
// into a single derived kernel pass and the command-accurate fallback
// fits small row budgets.
func Build(op Op, width int) (*Program, error) {
	if width < 1 || width > 64 {
		return nil, fmt.Errorf("vertical: element width %d out of range [1,64]", width)
	}
	b := &builder{}
	outs := make(map[int]string)
	switch op {
	case OpAdd:
		buildAdd(b, outs, width)
	case OpSub:
		buildSub(b, outs, width)
	case OpLT, OpLE, OpLTS, OpLES:
		buildCompare(b, outs, width, op)
	case OpEQ:
		buildEq(b, outs, width)
	case OpPopcount:
		buildPopcount(b, outs, width)
	case OpSelect:
		buildSelect(b, outs, width)
	default:
		return nil, fmt.Errorf("vertical: unknown op %d", int(op))
	}
	return b.assemble(op, width, outs)
}

// xj/yj build operand-slice leaves.
func xj(j int) *expr.Node { return expr.Var(XVar(j)) }

// yj builds the y operand-slice leaf for bit j.
func yj(j int) *expr.Node { return expr.Var(YVar(j)) }

// buildAdd emits the ripple-carry adder. A middle bit j writes its
// half sum t = x_j ^ y_j as a step of its own, which the sum
// z_j = t ^ c and the carry c' = (x_j & y_j) | (c & t) both read: 2 XOR
// and 3 AND/OR per bit. Bit 0 has no carry in (z0 = x0 ^ y0,
// c = x0 & y0), and the top bit drops its carry out (modular
// arithmetic), so it sums in one step, z = x ^ y ^ c.
func buildAdd(b *builder, outs map[int]string, w int) {
	outs[b.emit(func(nm namer) *expr.Node { return expr.Xor(xj(0), yj(0)) })] = ZVar(0)
	if w == 1 {
		return
	}
	c := b.emit(func(nm namer) *expr.Node { return expr.And(xj(0), yj(0)) })
	for j := 1; j < w-1; j++ {
		cin := vsrc{vid: c}
		t := vsrc{vid: b.emit(func(nm namer) *expr.Node { return expr.Xor(xj(j), yj(j)) })}
		outs[b.emit(func(nm namer) *expr.Node {
			return expr.Xor(t.node(nm), cin.node(nm))
		}, t, cin)] = ZVar(j)
		c = b.emit(func(nm namer) *expr.Node {
			return expr.Or(expr.And(xj(j), yj(j)), expr.And(cin.node(nm), t.node(nm)))
		}, cin, t)
	}
	top, cin := w-1, vsrc{vid: c}
	outs[b.emit(func(nm namer) *expr.Node {
		return expr.Xor(expr.Xor(xj(top), yj(top)), cin.node(nm))
	}, cin)] = ZVar(top)
}

// buildSub emits the borrow-chain subtractor, sharing the half
// difference t = x_j ^ y_j of a middle bit as add shares its half sum:
// z_j = t ^ b and b' = (t & y_j) | (~t & b) — a differing pair borrows
// exactly when y_j is the set one, an equal pair passes the borrow in
// through. Bit 0's borrow is z0 & y0 (= ~x0 & y0, read back from the
// output slice it just wrote), and the top bit drops its borrow out.
func buildSub(b *builder, outs map[int]string, w int) {
	z0 := b.emit(func(nm namer) *expr.Node { return expr.Xor(xj(0), yj(0)) })
	outs[z0] = ZVar(0)
	if w == 1 {
		return
	}
	d0 := vsrc{vid: z0}
	bw := b.emit(func(nm namer) *expr.Node { return expr.And(d0.node(nm), yj(0)) }, d0)
	for j := 1; j < w-1; j++ {
		bin := vsrc{vid: bw}
		t := vsrc{vid: b.emit(func(nm namer) *expr.Node { return expr.Xor(xj(j), yj(j)) })}
		outs[b.emit(func(nm namer) *expr.Node {
			return expr.Xor(t.node(nm), bin.node(nm))
		}, t, bin)] = ZVar(j)
		bw = b.emit(func(nm namer) *expr.Node {
			return expr.Or(expr.And(t.node(nm), yj(j)), expr.And(expr.Not(t.node(nm)), bin.node(nm)))
		}, t, bin)
	}
	top, bin := w-1, vsrc{vid: bw}
	outs[b.emit(func(nm namer) *expr.Node {
		return expr.Xor(expr.Xor(xj(top), yj(top)), bin.node(nm))
	}, bin)] = ZVar(top)
}

// buildCompare emits less-than and less-or-equal, unsigned and signed,
// as one LSB-up borrow chain: x < y exactly when x - y borrows out of
// the top bit. Each bit folds into the borrow with a majority,
// b' = maj(~x_j, y_j, b) = (~x_j & y_j) | (b & (~x_j | y_j)) — one step
// per bit and no XOR. A signed compare orders like unsigned with both
// sign bits flipped, so its top bit folds maj(x, ~y, b) instead. le
// seeds a borrow in of 1 (x <= y exactly when x - y - 1 borrows), so
// its bit-0 step is ~x0 | y0 where lt's is ~x0 & y0.
func buildCompare(b *builder, outs map[int]string, w int, op Op) {
	signed := op == OpLTS || op == OpLES
	le := op == OpLE || op == OpLES
	// pair returns bit j's majority inputs besides the borrow.
	pair := func(j int) (p, q *expr.Node) {
		if signed && j == w-1 {
			return xj(j), expr.Not(yj(j))
		}
		return expr.Not(xj(j)), yj(j)
	}
	bw := b.emit(func(nm namer) *expr.Node {
		p, q := pair(0)
		if le {
			return expr.Or(p, q)
		}
		return expr.And(p, q)
	})
	for j := 1; j < w; j++ {
		bin := vsrc{vid: bw}
		bw = b.emit(func(nm namer) *expr.Node {
			p, q := pair(j)
			return expr.Or(expr.And(p, q), expr.And(bin.node(nm), expr.Or(p, q)))
		}, bin)
	}
	outs[bw] = ZVar(0)
}

// buildEq emits equality as an OR accumulator of the pairwise
// differences x_j ^ y_j, complemented by the last step's OR becoming a
// NOR: the first step folds three bit positions (six operand slices),
// every later step ORs two more positions into the accumulator (five
// slices) — one XOR and one OR per bit and no NOT, and the accumulator
// ping-pongs through two recycled scratch slices regardless of width.
func buildEq(b *builder, outs map[int]string, w int) {
	// fold ORs the differences of positions lo..hi-1 into acc (nil for
	// the first step), complementing the step that folds the last one.
	fold := func(acc *expr.Node, lo, hi int) *expr.Node {
		for j := lo; j < hi; j++ {
			if d := expr.Xor(xj(j), yj(j)); acc == nil {
				acc = d
			} else {
				acc = expr.Or(acc, d)
			}
		}
		if hi == w {
			return expr.Not(acc)
		}
		return acc
	}
	first := min(3, w)
	acc := b.emit(func(nm namer) *expr.Node { return fold(nil, 0, first) })
	for lo := first; lo < w; lo += 2 {
		end, ain := min(lo+2, w), vsrc{vid: acc}
		acc = b.emit(func(nm namer) *expr.Node { return fold(ain.node(nm), lo, end) }, ain)
	}
	outs[acc] = ZVar(0)
}

// buildPopcount emits a carry-save counter. Column p holds pending bits
// of weight 2^p; the operand bits arrive in column 0, and a column that
// reaches three bits a, b, c reduces them with a full adder: t = a ^ b,
// carry (a & b) | (c & t) into column p+1, then sum t ^ c back into
// column p. The carry goes first so a and b die before the sum needs a
// slice, which keeps width 64 within 12 temps. A half adder (a ^ b,
// a & b) closes a column left with two bits. A column of n bits passes
// n/2 carries up, so the top column, bits.Len(w)-1, receives
// w >> (bits.Len(w)-1) = 1 bit and never carries; width 32 takes 26
// full and 5 half adders. Width 1 degenerates to a single identity pass
// (z0 = x0 & x0).
func buildPopcount(b *builder, outs map[int]string, w int) {
	if w == 1 {
		outs[b.emit(func(nm namer) *expr.Node { return expr.And(xj(0), xj(0)) })] = ZVar(0)
		return
	}
	cols := make([][]vsrc, bits.Len(uint(w)))
	var push func(p int, s vsrc)
	push = func(p int, s vsrc) {
		cols[p] = append(cols[p], s)
		if len(cols[p]) < 3 {
			return
		}
		x, y, c := cols[p][0], cols[p][1], cols[p][2]
		t := vsrc{vid: b.emit(func(nm namer) *expr.Node { return expr.Xor(x.node(nm), y.node(nm)) }, x, y)}
		carry := vsrc{vid: b.emit(func(nm namer) *expr.Node {
			return expr.Or(expr.And(x.node(nm), y.node(nm)), expr.And(c.node(nm), t.node(nm)))
		}, x, y, c, t)}
		sum := vsrc{vid: b.emit(func(nm namer) *expr.Node { return expr.Xor(t.node(nm), c.node(nm)) }, t, c)}
		cols[p] = append(cols[p][:0], sum)
		push(p+1, carry)
	}
	for j := 0; j < w; j++ {
		push(0, leaf(XVar(j)))
	}
	for p := range cols {
		if len(cols[p]) == 2 {
			x, y := cols[p][0], cols[p][1]
			sum := vsrc{vid: b.emit(func(nm namer) *expr.Node { return expr.Xor(x.node(nm), y.node(nm)) }, x, y)}
			carry := vsrc{vid: b.emit(func(nm namer) *expr.Node { return expr.And(x.node(nm), y.node(nm)) }, x, y)}
			cols[p] = append(cols[p][:0], sum)
			push(p+1, carry)
		}
		outs[cols[p][0].vid] = ZVar(p)
	}
}

// buildSelect emits the per-slice blend z_j = (m & x_j) | (nm & y_j),
// with the inverted mask nm = ~m computed once, as a step of its own.
func buildSelect(b *builder, outs map[int]string, w int) {
	inv := vsrc{vid: b.emit(func(nm namer) *expr.Node { return expr.Not(expr.Var(MaskVar)) })}
	for j := 0; j < w; j++ {
		outs[b.emit(func(nm namer) *expr.Node {
			return expr.Or(expr.And(expr.Var(MaskVar), xj(j)), expr.And(inv.node(nm), yj(j)))
		}, inv)] = ZVar(j)
	}
}
