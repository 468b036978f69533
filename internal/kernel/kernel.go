// Package kernel compiles the functional hot loop of the accelerator:
// word-level boolean kernels derived from the command-accurate device
// model itself.
//
// Every logic operation the engines implement is, at the row level, a
// pure bitwise boolean function. DeriveFused takes a plan cluster's
// register program of up to MaxFusedInputs inputs (a FusedSpec: the
// expr.Program that expr.DAG.Schedule makes of the cluster's sub-DAG,
// with the same in-place folds as the node program the command tier
// runs) and probes the real engine once on a tiny scratch subarray: it
// loads all input combinations into the input rows as packed patterns,
// runs the program through expr.Program.Execute — the command tier's
// interpreter, in place through ExecuteInPlace on ELP2IM — and reads
// the truth table back out of the result row. It then lowers the
// program's own gates one for one and packs them into passes over a
// small hand-written loop set (loops.go): one 4×-unrolled loop per
// 2-input truth table, and one per two-level composition
// q(l(a,b), r(c,d)) of the cores AND, OR and XOR. The lowering is kept
// only if it reproduces the probed table and agrees with a second
// engine run on full-word patterns, so a kernel cannot disagree with
// the engine that produced it: if the engine's sequences change,
// re-derivation picks the change up or fails loudly, and an operation
// whose behaviour is not a pure per-bit function of its operands never
// compiles.
//
// The facade runs every call's steps on these kernels through one
// FusedSet — an Op's gate and a Reduce's folds as one-gate specs, an
// eval's or µProgram step's clusters as k-input ones — for word-aligned
// configurations, falling back to command-level execution whenever the
// command stream itself is observable (an executor installed with
// SetExecutor: the engine itself, fault injection, detection wrappers)
// or the geometry is not word-aligned.
//
// Derive, Kernel and Set are the one-gate case outside FusedSet: Derive
// is DeriveFused on the program t0 = op(a, b), and Set memoizes one
// Kernel per op. Of the module's code, only perfbench's ops replay
// calls them.
package kernel

import (
	"fmt"
	"sync"

	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/expr"
)

// Probe geometry: the scratch subarray every derivation runs on. 16 data
// rows satisfy the row-hungriest engine (Ambit's 6-row B-group plus the
// three operand rows, DRISA's 4 scratch rows); one 64-bit word of columns
// holds the truth-table probe and the verification patterns.
const (
	probeRows = 16
	probeCols = 64
)

// Kernel is one operation's compiled word-level implementation.
type Kernel struct {
	op    engine.Op
	table uint8
	unary bool
	fn    wordLoop
}

// Op returns the operation the kernel implements.
func (k *Kernel) Op() engine.Op { return k.op }

// Unary reports whether the kernel ignores its second operand.
func (k *Kernel) Unary() bool { return k.unary }

// Table returns the derived truth table: for binary ops bit i holds
// f(a=i&1, b=i>>1&1); for unary ops bit i holds f(a=i).
func (k *Kernel) Table() uint8 { return k.table }

// String renders the kernel for diagnostics.
func (k *Kernel) String() string {
	if k.unary {
		return fmt.Sprintf("kernel(%v, table=%02b)", k.op, k.table)
	}
	return fmt.Sprintf("kernel(%v, table=%04b)", k.op, k.table)
}

// Apply computes dst = f(a, b) word-wise over len(dst) words. The three
// slices must share a length (b is ignored and may be nil for unary
// kernels); dst may alias a or b. Tail bits beyond the caller's logical
// vector length are written like any others — callers that maintain a
// canonical form must re-mask the final word.
func (k *Kernel) Apply(dst, a, b []uint64) { k.fn(dst, a, b, nil, nil) }

// Derive compiles op's kernel: DeriveFused on the one-instruction
// program t0 = op(a, b) (t0 = op(a) for unary ops), whose probed truth
// table selects the word loop. module supplies the dual-contact geometry
// the engine was configured against. Derivation fails — and the caller
// must stay on the command-level path — when the engine rejects the
// operation or does not compute the operation's gate on every bit
// position.
func Derive(exec engine.Executor, op engine.Op, module dram.Config) (*Kernel, error) {
	k := 2
	if op.Unary() {
		k = 1
	}
	prog := &expr.Program{Vars: []string{"a", "b"}[:k], TempSlots: 1, Instrs: []expr.Instr{
		{Op: op, Dst: expr.Ref{Temp: true}, A: expr.Ref{}, B: expr.Ref{Index: k - 1}},
	}}
	f, err := DeriveFused(exec, FusedSpec{Prog: prog}, module)
	if err != nil {
		return nil, fmt.Errorf("kernel: deriving %v: %w", op, err)
	}
	kn := &Kernel{op: op, table: uint8(f.Table()), unary: op.Unary()}
	if kn.unary {
		// A unary table f(a) is the binary table that ignores b.
		kn.fn = gateLoops[kn.table|kn.table<<2]
	} else {
		kn.fn = gateLoops[kn.table]
	}
	return kn, nil
}

// Set lazily derives and memoizes the kernels of one executor. A Set is
// safe for concurrent use; each operation is probed at most once, and a
// derivation failure (unsupported op, non-bitwise behaviour) is cached so
// the caller's fallback decision stays O(1) too.
type Set struct {
	exec   engine.Executor
	module dram.Config

	mu      sync.Mutex
	kernels [engine.OpCOPY + 1]*Kernel
	errs    [engine.OpCOPY + 1]error
	tried   [engine.OpCOPY + 1]bool
}

// NewSet returns a kernel cache probing exec under module's dual-contact
// geometry.
func NewSet(exec engine.Executor, module dram.Config) *Set {
	return &Set{exec: exec, module: module}
}

// Kernel returns op's compiled kernel, deriving it on first use. The
// error (nil or not) is stable across calls.
func (s *Set) Kernel(op engine.Op) (*Kernel, error) {
	if op < 0 || int(op) >= len(s.kernels) {
		return nil, fmt.Errorf("kernel: unknown op %v", op)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.tried[op] {
		s.tried[op] = true
		s.kernels[op], s.errs[op] = Derive(s.exec, op, s.module)
	}
	return s.kernels[op], s.errs[op]
}
