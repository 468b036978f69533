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

// Execute implements engine.Executor: run the operation into dst and
// again into the shadow row, XOR the two in DRAM, and flag a detection if
// any bit differs. The dst row keeps the FIRST execution's result
// (detection, not correction).
func (d *DetectingExecutor) Execute(sub *dram.Subarray, op engine.Op, dst, a, b int) error {
	if dst == d.ShadowRow || dst == d.DiffRow || a == d.ShadowRow || b == d.ShadowRow {
		return errors.New("fault: operand/destination collides with detector scratch rows")
	}
	if err := d.inner.Execute(sub, op, dst, a, b); err != nil {
		return err
	}
	if err := d.inner.Execute(sub, op, d.ShadowRow, a, b); err != nil {
		return err
	}
	if err := d.inner.Execute(sub, engine.OpXOR, d.DiffRow, dst, d.ShadowRow); err != nil {
		return err
	}
	d.Ops++
	if sub.RowData(d.DiffRow).Popcount() > 0 {
		d.Detected++
	}
	return nil
}

// DetectionRate returns the fraction of operations flagged.
func (d *DetectingExecutor) DetectionRate() float64 {
	if d.Ops == 0 {
		return 0
	}
	return float64(d.Detected) / float64(d.Ops)
}
