// Package kernel compiles the functional hot loop of the accelerator:
// word-level boolean kernels derived from the command-accurate device
// model itself.
//
// Every logic operation the engines implement is, at the row level, a
// pure bitwise boolean function — a 4-entry truth table for binary ops,
// 2-entry for unary ones. Rather than hard-coding those tables (and
// risking drift from the device model as sequences evolve), Derive
// probes the real engine once on a tiny scratch subarray: it loads the
// input combinations into operand rows, executes the engine's actual
// command sequence through the dram model, reads the truth table back
// out of the destination row, and compiles it to the word loop of that
// table. A kernel therefore cannot disagree with the engine that
// produced it — if the engine's sequences change, re-derivation picks
// the change up automatically, and the post-derivation verification pass
// rejects any operation whose behaviour is not a pure per-bit function
// of its operands.
//
// DeriveFused does the same for a whole plan cluster of up to
// MaxFusedInputs inputs: it probes the cluster's command sequence for
// its k-input truth table, compiles that to a gate program, and packs
// the gates into passes over a small hand-written loop set (loops.go):
// one 4×-unrolled loop per 2-input truth table, and one per two-level
// composition q(l(a,b), r(c,d)) of the cores AND, OR and XOR.
//
// The facade uses these kernels as a compiled fast path for word-aligned
// configurations, falling back to command-level execution whenever the
// command stream itself is observable (fault injection, detection
// wrappers) or the geometry is not word-aligned.
package kernel

import (
	"fmt"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/dram"
	"repro/internal/engine"
)

// Executor is the functional command-level surface probed during
// derivation (implemented by every engine).
type Executor interface {
	Execute(sub *dram.Subarray, op engine.Op, dst, a, b int) error
}

// Probe geometry: the scratch subarray every derivation runs on. 16 data
// rows satisfy the row-hungriest engine (Ambit's 6-row B-group plus the
// three operand rows, DRISA's 4 scratch rows); one 64-bit word of columns
// holds the truth-table probe and the verification patterns.
const (
	probeRows = 16
	probeCols = 64
)

// Verification patterns: after compiling the truth table, the kernel and
// the engine are run side by side on these words; any disagreement means
// the operation is not a pure per-bit boolean function and must not be
// compiled.
const (
	verifyA = uint64(0xA5F00FC3_5A3C96E1)
	verifyB = uint64(0x0FF0C3A5_E1963CA5)
)

// probe rows inside the scratch subarray (mirroring the facade layout).
const (
	probeRowA = 0
	probeRowB = 1
	probeRowC = 2
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

// Derive probes exec's implementation of op on a scratch subarray and
// compiles the observed truth table. module supplies the dual-contact
// geometry the engine was configured against; everything else about the
// probe subarray is fixed and tiny. Derivation fails — and the caller
// must stay on the command-level path — when the engine rejects the
// operation or behaves non-uniformly across bit positions.
func Derive(exec Executor, op engine.Op, module dram.Config) (*Kernel, error) {
	if exec == nil {
		return nil, fmt.Errorf("kernel: nil executor")
	}
	dcc := module.DualContactRows
	if dcc < 2 {
		// Ambit's NOT path and the two-buffer ELP2IM sequences need up to
		// two dual-contact rows; granting the probe both is always legal.
		dcc = 2
	}
	sub := dram.NewSubarray(dram.Config{
		Banks:            1,
		SubarraysPerBank: 1,
		RowsPerSubarray:  probeRows,
		Columns:          probeCols,
		DualContactRows:  dcc,
	})

	table, err := probeTable(exec, op, sub)
	if err != nil {
		return nil, err
	}
	k := &Kernel{op: op, table: table, unary: op.Unary()}
	if k.unary {
		// A unary table f(a) is the binary table that ignores b.
		k.fn = gateLoops[table|table<<2]
	} else {
		k.fn = gateLoops[table]
	}
	if err := verify(exec, k, sub); err != nil {
		return nil, err
	}
	return k, nil
}

// probeTable executes op once over all input combinations packed into the
// low bits of the operand rows and reads the truth table back.
func probeTable(exec Executor, op engine.Op, sub *dram.Subarray) (uint8, error) {
	combos := 4
	if op.Unary() {
		combos = 2
	}
	a := bitvec.New(probeCols)
	b := bitvec.New(probeCols)
	for i := 0; i < combos; i++ {
		a.SetBit(i, i&1 == 1)
		b.SetBit(i, i>>1&1 == 1)
	}
	if err := runProbe(exec, op, sub, a, b); err != nil {
		return 0, fmt.Errorf("kernel: probing %v: %w", op, err)
	}
	var table uint8
	out := sub.RowData(probeRowC)
	for i := 0; i < combos; i++ {
		if out.Bit(i) {
			table |= 1 << uint(i)
		}
	}
	return table, nil
}

// runProbe stages the operand rows and executes op into the probe
// destination row, leaving the subarray precharged for the next probe.
func runProbe(exec Executor, op engine.Op, sub *dram.Subarray, a, b *bitvec.Vector) error {
	sub.Precharge()
	sub.LoadRow(probeRowA, a)
	sub.LoadRow(probeRowB, b)
	return exec.Execute(sub, op, probeRowC, probeRowA, probeRowB)
}

// verify re-runs the engine on full-word patterns and cross-checks the
// compiled kernel, rejecting operations whose device-model behaviour is
// not the derived per-bit function (e.g. anything position-dependent).
func verify(exec Executor, k *Kernel, sub *dram.Subarray) error {
	a := bitvec.FromWords([]uint64{verifyA}, probeCols)
	b := bitvec.FromWords([]uint64{verifyB}, probeCols)
	if err := runProbe(exec, k.op, sub, a, b); err != nil {
		return fmt.Errorf("kernel: verifying %v: %w", k.op, err)
	}
	var got, want [1]uint64
	k.Apply(want[:], []uint64{verifyA}, []uint64{verifyB})
	got[0] = sub.RowData(probeRowC).Words()[0]
	if got != want {
		return fmt.Errorf("kernel: %v is not a pure bitwise function: device %016x, compiled table %016x",
			k.op, got[0], want[0])
	}
	return nil
}

// Set lazily derives and memoizes the kernels of one executor. A Set is
// safe for concurrent use; each operation is probed at most once, and a
// derivation failure (unsupported op, non-bitwise behaviour) is cached so
// the caller's fallback decision stays O(1) too.
type Set struct {
	exec   Executor
	module dram.Config

	mu      sync.Mutex
	kernels [engine.OpCOPY + 1]*Kernel
	errs    [engine.OpCOPY + 1]error
	tried   [engine.OpCOPY + 1]bool
}

// NewSet returns a kernel cache probing exec under module's dual-contact
// geometry.
func NewSet(exec Executor, module dram.Config) *Set {
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
