package fault

import (
	"errors"

	"repro/internal/dram"
	"repro/internal/engine"
)

// The paper (§6.1.2) notes that conventional ECC is incompatible with
// bitwise PIM — a row's code word is destroyed by in-place logic — and
// leaves error checking as future work. DetectingExecutor implements the
// simplest sound scheme available to any bitwise-PIM design: temporal
// redundancy. Every operation runs twice, the second time into a shadow
// row, and an in-DRAM XOR + host popcount of the difference flags
// divergence. It doubles the operation cost (plus one XOR) in exchange
// for detecting any fault that does not strike both executions
// identically.

// DetectingExecutor wraps an executor with dual-execution fault detection.
type DetectingExecutor struct {
	inner engine.Executor
	// ShadowRow and DiffRow are the subarray rows used for the redundant
	// result and the XOR difference.
	ShadowRow, DiffRow int

	// Detected counts operations whose two executions diverged.
	Detected int
	// Ops counts operations executed.
	Ops int
	// CommandOverhead is the multiplier on op count this scheme costs
	// (2 executions + 1 XOR ≈ 3× the single-shot commands for basic ops).
	CommandOverhead float64
}

// NewDetecting wraps an executor. shadowRow and diffRow must be distinct
// scratch rows reserved for the detector.
func NewDetecting(inner engine.Executor, shadowRow, diffRow int) (*DetectingExecutor, error) {
	if inner == nil {
		return nil, errors.New("fault: nil executor")
	}
	if shadowRow == diffRow {
		return nil, errors.New("fault: shadow and diff rows must differ")
	}
	return &DetectingExecutor{
		inner:           inner,
		ShadowRow:       shadowRow,
		DiffRow:         diffRow,
		CommandOverhead: 3,
	}, nil
}

// Execute implements engine.Executor: run the operation into the shadow
// row and again into dst, XOR the two in DRAM, and flag a detection if
// any bit differs. The dst row keeps the second execution's result
// (detection, not correction). The redundant run goes first, so both
// runs read the operands before dst changes — a fold's dst is its b
// operand. When the inner executor consumes operand A's row for op
// (engine.OperandConsumer), the redundant run reads a copy of a staged
// in the diff row, so only the run into dst consumes a, as the inner
// executor alone would; and the difference XOR takes the shadow row as
// its A operand, so it never consumes dst.
func (d *DetectingExecutor) Execute(sub *dram.Subarray, op engine.Op, dst, a, b int) error {
	for _, r := range [3]int{dst, a, b} {
		if r == d.ShadowRow || r == d.DiffRow {
			return errors.New("fault: operand/destination collides with detector scratch rows")
		}
	}
	ra := a
	if consumesA(d.inner, op) {
		if err := d.inner.Execute(sub, engine.OpCOPY, d.DiffRow, a, -1); err != nil {
			return err
		}
		ra = d.DiffRow
	}
	if err := d.inner.Execute(sub, op, d.ShadowRow, ra, b); err != nil {
		return err
	}
	if err := d.inner.Execute(sub, op, dst, a, b); err != nil {
		return err
	}
	if err := d.inner.Execute(sub, engine.OpXOR, d.DiffRow, d.ShadowRow, dst); err != nil {
		return err
	}
	d.Ops++
	if sub.RowData(d.DiffRow).Popcount() > 0 {
		d.Detected++
	}
	return nil
}

// ConsumesOperandA implements engine.OperandConsumer: the detector
// consumes operand A's row exactly when its inner executor does.
func (d *DetectingExecutor) ConsumesOperandA(op engine.Op) bool { return consumesA(d.inner, op) }

// DetectionRate returns the fraction of operations flagged.
func (d *DetectingExecutor) DetectionRate() float64 {
	if d.Ops == 0 {
		return 0
	}
	return float64(d.Detected) / float64(d.Ops)
}
