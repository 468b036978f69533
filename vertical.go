package elp2im

import (
	"errors"
	"fmt"

	"repro/internal/vertical"
)

// ErrBadArith marks vertical-arithmetic validation failures — unknown
// operations, widths outside 1..64, or operand shape mismatches. Callers
// (the server) translate it to a client error.
var ErrBadArith = errors.New("bad arith operation")

// ArithOp enumerates the vertical (bit-serial) arithmetic operations the
// accelerator executes over transposed k-bit integers.
type ArithOp int

// The vertical arithmetic operation set, mirroring internal/vertical.
const (
	// ArithAdd computes z = (x + y) mod 2^w.
	ArithAdd ArithOp = iota
	// ArithSub computes z = (x - y) mod 2^w.
	ArithSub
	// ArithLt computes z = (x < y), unsigned, into a 1-bit result.
	ArithLt
	// ArithLe computes z = (x <= y), unsigned, into a 1-bit result.
	ArithLe
	// ArithEq computes z = (x == y) into a 1-bit result.
	ArithEq
	// ArithLts computes z = (x < y) over w-bit two's complement.
	ArithLts
	// ArithLes computes z = (x <= y) over w-bit two's complement.
	ArithLes
	// ArithPopcount counts each element's set bits into a
	// bits.Len(w)-bit counter.
	ArithPopcount
	// ArithSelect computes z = m ? x : y per element, with element i's
	// mask in bit i of the mask vector.
	ArithSelect
)

// internalV maps the facade op to the µProgram builder's op (the enums
// share ordering, pinned by test).
func (op ArithOp) internalV() vertical.Op { return vertical.Op(op) }

// String returns the canonical lowercase mnemonic.
func (op ArithOp) String() string { return op.internalV().String() }

// ParseArithOp maps a lowercase mnemonic ("add", "lt", "popcount", ...)
// to its ArithOp.
func ParseArithOp(s string) (ArithOp, error) {
	v, ok := vertical.ParseOp(s)
	if !ok {
		return 0, fmt.Errorf("elp2im: %w: unknown arith op %q", ErrBadArith, s)
	}
	return ArithOp(v), nil
}

// Binary reports whether the operation takes a second vertical operand.
func (op ArithOp) Binary() bool { return op.internalV().Binary() }

// Masked reports whether the operation takes a mask vector.
func (op ArithOp) Masked() bool { return op.internalV().Masked() }

// OutWidth returns the element width of the operation's result for
// w-bit operands.
func (op ArithOp) OutWidth(w int) int { return op.internalV().OutWidth(w) }

// Vertical is a set of k-bit integer elements in the vertical
// (bit-sliced, transposed) layout: bit j of element i lives at bit i of
// slice j, each slice an ordinary BitVector striped across the module
// like any other — so every slice of every element advances one bit
// position per bulk row operation.
type Vertical struct {
	width  int
	slices []*BitVector
}

// NewVertical returns an all-zero vertical vector of n elements of the
// given bit width (1..64).
func NewVertical(n, width int) (*Vertical, error) {
	if width < 1 || width > 64 {
		return nil, fmt.Errorf("elp2im: %w: element width %d out of range [1,64]", ErrBadArith, width)
	}
	if n < 1 {
		return nil, fmt.Errorf("elp2im: %w: vertical vector needs at least one element", ErrBadArith)
	}
	v := &Vertical{width: width, slices: make([]*BitVector, width)}
	for j := range v.slices {
		v.slices[j] = NewBitVector(n)
	}
	return v, nil
}

// VerticalFromElements transposes a horizontal element array into the
// vertical layout. Element bits at or above width are discarded.
func VerticalFromElements(elems []uint64, width int) (*Vertical, error) {
	v, err := NewVertical(len(elems), width)
	if err != nil {
		return nil, err
	}
	vertical.SliceInto(v.words(), elems)
	return v, nil
}

// Width returns the element width in bits.
func (v *Vertical) Width() int { return v.width }

// Len returns the number of elements.
func (v *Vertical) Len() int { return v.slices[0].Len() }

// Slice returns bit slice j (shared storage, not a copy).
func (v *Vertical) Slice(j int) *BitVector { return v.slices[j] }

// Elements transposes back to a horizontal element array.
func (v *Vertical) Elements() []uint64 {
	return vertical.Unslice(v.words(), v.Len())
}

// Element reconstructs element i.
func (v *Vertical) Element(i int) uint64 {
	var e uint64
	for j, s := range v.slices {
		if s.Bit(i) {
			e |= 1 << uint(j)
		}
	}
	return e
}

// words exposes the slices' word storage for the transpose engine.
func (v *Vertical) words() [][]uint64 {
	w := make([][]uint64, len(v.slices))
	for j, s := range v.slices {
		w[j] = s.Words()
	}
	return w
}

// CompiledArith is a vertical operation lowered to its µProgram: one
// compiled plan per step, reusable across calls and operand lengths
// (compile once per op × width, execute many).
type CompiledArith struct {
	prog *vertical.Program
	// xs, ys and zs name the operand and result slices (vertical.XVar,
	// YVar, ZVar), and span labels the calls' facade spans
	// ("Arith(add/32)"), built once here so that a call builds no
	// strings.
	xs, ys, zs []string
	span       string
}

// CompileArith synthesizes and compiles the µProgram computing op over
// width-bit elements. Failures wrap ErrBadArith.
func CompileArith(op ArithOp, width int) (*CompiledArith, error) {
	if op < 0 || int(op) >= vertical.NumOps {
		return nil, fmt.Errorf("elp2im: %w: unknown arith op %d", ErrBadArith, int(op))
	}
	p, err := vertical.Build(op.internalV(), width)
	if err != nil {
		return nil, fmt.Errorf("elp2im: %w: %v", ErrBadArith, err)
	}
	ca := &CompiledArith{
		prog: p,
		xs:   make([]string, p.Width),
		zs:   make([]string, p.OutWidth),
		span: fmt.Sprintf("Arith(%s/%d)", op, width),
	}
	for j := range ca.xs {
		ca.xs[j] = vertical.XVar(j)
	}
	if p.Op.Binary() {
		ca.ys = make([]string, p.Width)
		for j := range ca.ys {
			ca.ys[j] = vertical.YVar(j)
		}
	}
	for j := range ca.zs {
		ca.zs[j] = vertical.ZVar(j)
	}
	return ca, nil
}

// Op returns the compiled operation.
func (ca *CompiledArith) Op() ArithOp { return ArithOp(ca.prog.Op) }

// Width returns the operand element width.
func (ca *CompiledArith) Width() int { return ca.prog.Width }

// OutWidth returns the result element width.
func (ca *CompiledArith) OutWidth() int { return ca.prog.OutWidth }

// Steps returns the µProgram's step count.
func (ca *CompiledArith) Steps() int { return ca.prog.Len() }

// binds validates the operands against the compiled program and builds
// the slice-name bindings: operand slices under their contract names,
// plus a result vertical (z slices) and scratch slices leased from a's
// slice pool (the result is never an operand, so steps cannot alias
// their own inputs on any tier). It returns the bindings, the result,
// and the element count.
func (ca *CompiledArith) binds(a *Accelerator, x, y *Vertical, m *BitVector) (map[string]*BitVector, *Vertical, int, error) {
	p := ca.prog
	if x == nil {
		return nil, nil, 0, fmt.Errorf("elp2im: %w: operand x is required", ErrBadArith)
	}
	if x.width != p.Width {
		return nil, nil, 0, fmt.Errorf("elp2im: %w: operand x has width %d, program wants %d",
			ErrBadArith, x.width, p.Width)
	}
	n := x.Len()
	if p.Op.Binary() {
		if y == nil {
			return nil, nil, 0, fmt.Errorf("elp2im: %w: %s needs operand y", ErrBadArith, p.Op)
		}
		if y.width != p.Width {
			return nil, nil, 0, fmt.Errorf("elp2im: %w: operand y has width %d, program wants %d",
				ErrBadArith, y.width, p.Width)
		}
		if y.Len() != n {
			return nil, nil, 0, fmt.Errorf("elp2im: %w: operands have %d and %d elements",
				ErrBadArith, n, y.Len())
		}
	} else if y != nil {
		return nil, nil, 0, fmt.Errorf("elp2im: %w: %s takes no operand y", ErrBadArith, p.Op)
	}
	if p.Op.Masked() {
		if m == nil {
			return nil, nil, 0, fmt.Errorf("elp2im: %w: %s needs a mask", ErrBadArith, p.Op)
		}
		if m.Len() != n {
			return nil, nil, 0, fmt.Errorf("elp2im: %w: mask has %d bits, want %d elements",
				ErrBadArith, m.Len(), n)
		}
	} else if m != nil {
		return nil, nil, 0, fmt.Errorf("elp2im: %w: %s takes no mask", ErrBadArith, p.Op)
	}
	out := &Vertical{width: p.OutWidth, slices: make([]*BitVector, p.OutWidth)}
	binds := make(map[string]*BitVector, 2*p.Width+p.OutWidth+len(p.Temps)+1)
	for j, s := range x.slices {
		binds[ca.xs[j]] = s
	}
	if p.Op.Binary() {
		for j, s := range y.slices {
			binds[ca.ys[j]] = s
		}
	}
	if p.Op.Masked() {
		binds[vertical.MaskVar] = m
	}
	for j := range out.slices {
		out.slices[j] = a.getSlice(n)
		binds[ca.zs[j]] = out.slices[j]
	}
	for _, t := range p.Temps {
		binds[t] = a.getSlice(n)
	}
	return binds, out, n, nil
}

// Arith executes a vertical arithmetic operation entirely in DRAM: the
// operation is synthesized for x's width, every µProgram step runs as a
// bulk bitwise operation over all elements at once, and the result comes
// back as a new vertical vector, owned by the caller, plus the modeled
// cost. Callers looping one operation should CompileArith once and use
// ArithProg.
func (a *Accelerator) Arith(op ArithOp, x, y *Vertical, m *BitVector) (*Vertical, Stats, error) {
	if x == nil {
		return nil, Stats{}, fmt.Errorf("elp2im: %w: operand x is required", ErrBadArith)
	}
	ca, err := CompileArith(op, x.Width())
	if err != nil {
		return nil, Stats{}, err
	}
	return a.ArithProg(ca, x, y, m)
}

// ArithProg executes a compiled vertical operation (see Arith).
// Execution picks the tier per step — fused cluster kernels, or the
// command-accurate device model — with bit-identical results and modeled
// cost on both. The result's slices and the program's temps are leased
// from the accelerator's slice pool, so a caller that hands each result
// it retires to Recycle runs steady-state calls without allocating or
// clearing a slice.
func (a *Accelerator) ArithProg(ca *CompiledArith, x, y *Vertical, m *BitVector) (_ *Vertical, _ Stats, err error) {
	p := ca.prog
	binds, out, n, err := ca.binds(a, x, y, m)
	if err != nil {
		return nil, Stats{}, err
	}
	// The temps go back to the pool however the call ends, and the
	// result does too when the call fails.
	defer func() {
		for _, t := range p.Temps {
			a.slicePool.Put(binds[t])
		}
		if err != nil {
			a.Recycle(out)
		}
	}()
	// Every step passes eval's validation: binding completeness and the
	// command-accurate row budget.
	for i := range p.Steps {
		if _, err := a.evalPrep(p.Steps[i].Plan, binds); err != nil {
			return nil, Stats{}, err
		}
	}
	// The program runs as one call: its steps resolve once, one set of
	// workers forks, and each worker runs every step on one
	// cache-resident block of its stripes before moving to the next (see
	// progRunner).
	pr := a.getRunner(false, ca.span, p.Op.String())
	for i := range p.Steps {
		pr.stepNamed(p.Steps[i].Plan, binds[p.Steps[i].Dst].v, binds)
	}
	total, err := pr.run(a.stripes(n))
	if err != nil {
		return nil, Stats{}, err
	}
	return out, total, nil
}

// Recycle returns v's bit slices to the accelerator's slice pool, from
// which Arith and ArithProg lease their result and temp slices. A caller
// that retires a result — elpd replacing a stored arith destination —
// hands it back here, and a later call of the same element count reuses
// its storage instead of allocating and zeroing new slices. v, and any
// Slice(j) taken from it, must not be used afterwards: a later call
// overwrites them. A nil v is ignored.
func (a *Accelerator) Recycle(v *Vertical) {
	if v == nil {
		return
	}
	for _, s := range v.slices {
		a.slicePool.Put(s)
	}
}
