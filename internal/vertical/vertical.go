// Package vertical implements SIMDRAM-style bit-serial arithmetic over
// the bulk bitwise substrate: k-bit integers stored in a vertical
// (bit-sliced, transposed) layout — element i's bit j lives at bit
// position i of slice j — so one bulk bitwise row operation advances one
// bit position of every element at once.
//
// The package has two halves. The transpose engine converts horizontal
// element arrays — `[]uint64`, or 8 little-endian bytes per element as
// the serving protocols carry them — to and from the bit-sliced layout
// through a 64×64 bit-matrix transpose applied to width-aware groups of
// slice words (64·64/p elements per transpose for widths up to a power
// of two p), with ragged-tail zero padding.
// The µProgram builder synthesizes k-bit operations (ripple-carry
// add/sub, majority borrow-chain compares, an OR-accumulated equality, a
// carry-save popcount, select/blend) as sequences of boolean steps, each
// one internal/expr DAG writing one bit slice, compiled through
// plan.Compile — so vertical arithmetic inherits clustering,
// common-subexpression elimination, and the fused k-input kernels, and
// executes on both tiers of the facade (fused, command-accurate) with
// identical modeled cost. Elimination stops at step boundaries, so a
// term two steps read (add's half sum x_j ^ y_j, select's ~m) is a step
// of its own rather than computed twice.
//
// The package is engine-agnostic: it emits plans over named slices and
// leaves binding names to vectors, striping, and execution to the
// facade. The slice naming contract is fixed: operand x binds x0..x{w-1}
// (LSB first), operand y binds y0..y{w-1}, the select mask binds m,
// outputs land in z0..z{wo-1}, and scratch slices use t0..tk as listed
// in Program.Temps.
package vertical

import (
	"fmt"
	"math/bits"
	"strconv"
)

// Op enumerates the vertical arithmetic operations.
type Op int

// The vertical operation set: modular add/sub, unsigned compares
// (OpLT/OpLE/OpEQ), signed compares (OpLTS/OpLES), population count, and
// mask select.
const (
	// OpAdd computes z = (x + y) mod 2^w.
	OpAdd Op = iota
	// OpSub computes z = (x - y) mod 2^w.
	OpSub
	// OpLT computes z0 = 1 iff x < y, comparing unsigned.
	OpLT
	// OpLE computes z0 = 1 iff x <= y, comparing unsigned.
	OpLE
	// OpEQ computes z0 = 1 iff x == y.
	OpEQ
	// OpLTS computes z0 = 1 iff x < y, comparing w-bit two's complement.
	OpLTS
	// OpLES computes z0 = 1 iff x <= y, comparing w-bit two's complement.
	OpLES
	// OpPopcount counts the set bits of each w-bit element into a
	// bits.Len(w)-bit counter.
	OpPopcount
	// OpSelect computes z = m ? x : y per element, with the mask bit for
	// element i taken from bit i of the mask slice.
	OpSelect
)

// opNames are the canonical lowercase mnemonics, in Op order.
var opNames = [...]string{"add", "sub", "lt", "le", "eq", "lts", "les", "popcount", "select"}

// NumOps is the number of vertical operations.
const NumOps = len(opNames)

// String returns the canonical lowercase mnemonic.
func (op Op) String() string {
	if op < 0 || int(op) >= len(opNames) {
		return fmt.Sprintf("vertical.Op(%d)", int(op))
	}
	return opNames[op]
}

// ParseOp maps a lowercase mnemonic to its Op.
func ParseOp(s string) (Op, bool) {
	for i, n := range opNames {
		if s == n {
			return Op(i), true
		}
	}
	return 0, false
}

// Binary reports whether the operation takes a second operand y.
func (op Op) Binary() bool { return op != OpPopcount }

// Masked reports whether the operation takes a mask slice m.
func (op Op) Masked() bool { return op == OpSelect }

// OutWidth returns the number of output bit slices the operation
// produces for w-bit operands: w for add/sub/select, 1 for compares, and
// bits.Len(w) for popcount (counts range over 0..w inclusive).
func (op Op) OutWidth(w int) int {
	switch op {
	case OpLT, OpLE, OpEQ, OpLTS, OpLES:
		return 1
	case OpPopcount:
		return bits.Len(uint(w))
	default:
		return w
	}
}

// XVar names bit slice j of operand x.
func XVar(j int) string { return "x" + strconv.Itoa(j) }

// YVar names bit slice j of operand y.
func YVar(j int) string { return "y" + strconv.Itoa(j) }

// ZVar names output bit slice j.
func ZVar(j int) string { return "z" + strconv.Itoa(j) }

// MaskVar names the select mask slice.
const MaskVar = "m"
