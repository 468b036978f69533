package ambit

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/engine"
)

// Row slots of Ambit's sequences: the indices of the per-call row table
// (Rows) that Execute binds them through (see primitive.Step). A, B and C
// are the operands and the destination; the rest is the B-group: the
// designated TRA rows T0–T3, the control rows C0 (all zeros) and C1 (all
// ones), the dual-contact rows DCC0/DCC1, and the 10-row group's two
// spare rows S0/S1.
const (
	slotA = iota
	slotB
	slotC
	slotT0
	slotT1
	slotT2
	slotT3
	slotC0
	slotC1
	slotDCC0
	slotDCC1
	slotS0
	slotS1
	numSlots
)

// Rows is the per-call row table of Ambit's sequences: slot i binds to
// subarray row Rows[i], and -1 leaves it unbound.
type Rows [numSlots]int

// The B-group's T0–T3, C0 and C1 are the top dataGroupRows data rows of
// every subarray, and Layout refuses a subarray of fewer than
// minDataRows rows.
const (
	dataGroupRows = 6
	minDataRows   = 8
)

// ReservedDataRows reports the data rows the functional executor keeps
// for itself: the B-group's top six, which callers must leave free of
// operands, and the 8-row minimum Layout enforces.
func (e *Engine) ReservedDataRows() (top, minRows int) { return dataGroupRows, minDataRows }

// Layout binds the slots for dst = op(a, b) on a subarray: the B-group
// occupies the highest data rows (the region served by the special
// decoder) plus, with ≥8 reserved rows, the dual-contact rows. It
// validates the geometry against the configured reserved-row count. The
// spare rows S0/S1 stay unbound: only the priced FusedChainSeq names
// them.
func (e *Engine) Layout(sub *dram.Subarray, dst, a, b int) (Rows, error) {
	n := sub.Rows()
	if n < minDataRows {
		return Rows{}, fmt.Errorf("ambit: subarray has %d rows; need at least %d", n, minDataRows)
	}
	rows := Rows{
		slotA: a, slotB: b, slotC: dst,
		slotT0: n - 1, slotT1: n - 2, slotT2: n - 3, slotT3: n - 4,
		slotC0: n - 5, slotC1: n - 6,
		slotDCC0: -1, slotDCC1: -1, slotS0: -1, slotS1: -1,
	}
	if e.cfg.ReservedRows >= 8 {
		rows[slotDCC0] = sub.DCCRow(0)
		rows[slotDCC1] = sub.DCCRow(1)
	}
	return rows, nil
}

// Execute implements engine.Engine: dst = op(a, b) using B-group staging.
// Operand rows are preserved. It runs the op's sequence on the device
// model — for every op but XOR and XNOR the very sequence OpStats prices
// (see buildRun) — and records OpStats.
func (e *Engine) Execute(sub *dram.Subarray, op engine.Op, dst, a, b int) error {
	start := e.obs.Start()
	err := e.execute(sub, op, dst, a, b)
	e.obs.Record(op, e.OpStats(op), start, err)
	return err
}

// execute is Execute's uninstrumented body.
func (e *Engine) execute(sub *dram.Subarray, op engine.Op, dst, a, b int) error {
	if !e.Supports(op) {
		return fmt.Errorf("ambit: %v unsupported with %d reserved rows", op, e.cfg.ReservedRows)
	}
	rows, err := e.Layout(sub, dst, a, b)
	if err != nil {
		return err
	}
	// The control rows' constants: in hardware the C-rows are initialized
	// once at boot, so re-writing them is free functionally.
	sub.RowData(rows[slotC0]).Fill(false)
	sub.RowData(rows[slotC1]).Fill(true)
	return e.runs[op].Run(sub, rows[:])
}
