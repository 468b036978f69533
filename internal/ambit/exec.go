package ambit

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/engine"
)

// BGroup names the reserved rows inside a subarray. The B-group occupies
// the highest row addresses of the data region (the region served by the
// special decoder), plus the dual-contact rows.
type BGroup struct {
	T0, T1, T2, T3 int // designated TRA rows
	C0, C1         int // control rows: all zeros / all ones
	DCC0, DCC1     int // dual-contact rows (-1 when absent)
}

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

// Layout computes the B-group row indices for a subarray and validates the
// geometry against the configured reserved-row count.
func (e *Engine) Layout(sub *dram.Subarray) (BGroup, error) {
	n := sub.Rows()
	if n < minDataRows {
		return BGroup{}, fmt.Errorf("ambit: subarray has %d rows; need at least %d", n, minDataRows)
	}
	g := BGroup{
		T0: n - 1, T1: n - 2, T2: n - 3, T3: n - 4,
		C0: n - 5, C1: n - 6,
		DCC0: -1, DCC1: -1,
	}
	if e.cfg.ReservedRows >= 8 {
		g.DCC0 = sub.DCCRow(0)
		g.DCC1 = sub.DCCRow(1)
	}
	return g, nil
}

// prepare writes the control constants. In hardware the C-rows are
// initialized once at boot; re-writing them is free functionally.
func prepare(sub *dram.Subarray, g BGroup) {
	zeros := sub.RowData(g.C0)
	zeros.Fill(false)
	ones := sub.RowData(g.C1)
	ones.Fill(true)
}

// copyRow performs an AAP: activate src (optionally through a negated
// dual-contact wordline), activate dst, precharge.
func copyRow(sub *dram.Subarray, src int, srcNeg bool, dst int) error {
	if err := sub.Activate(src, srcNeg); err != nil {
		return err
	}
	if err := sub.Activate(dst, false); err != nil {
		return err
	}
	sub.Precharge()
	return nil
}

// traInto performs a TRA over the triple and copies the result into dst
// (the TRAAAP command). If dst < 0 the result stays in the triple.
func traInto(sub *dram.Subarray, r0, r1, r2, dst int) error {
	if err := sub.ActivateTRA(r0, r1, r2); err != nil {
		return err
	}
	if dst >= 0 {
		if err := sub.Activate(dst, false); err != nil {
			return err
		}
	}
	sub.Precharge()
	return nil
}

// Execute implements engine.Engine: dst = op(a, b) using B-group staging.
// Operand rows are preserved. The statistics of the operation come from
// OpStats (the canonical command counts); Execute reproduces the dataflow
// functionally on the device model.
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
	g, err := e.Layout(sub)
	if err != nil {
		return err
	}
	prepare(sub, g)

	and := func(x, y, into int) error {
		if err := copyRow(sub, x, false, g.T0); err != nil {
			return err
		}
		if err := copyRow(sub, y, false, g.T1); err != nil {
			return err
		}
		if err := copyRow(sub, g.C0, false, g.T2); err != nil {
			return err
		}
		return traInto(sub, g.T0, g.T1, g.T2, into)
	}
	or := func(x, y, into int) error {
		if err := copyRow(sub, x, false, g.T0); err != nil {
			return err
		}
		if err := copyRow(sub, y, false, g.T1); err != nil {
			return err
		}
		if err := copyRow(sub, g.C1, false, g.T2); err != nil {
			return err
		}
		return traInto(sub, g.T0, g.T1, g.T2, into)
	}

	switch op {
	case engine.OpCOPY:
		return copyRow(sub, a, false, dst)

	case engine.OpAND:
		return and(a, b, dst)

	case engine.OpOR:
		return or(a, b, dst)

	case engine.OpNOT:
		if err := copyRow(sub, a, false, g.DCC0); err != nil {
			return err
		}
		return copyRow(sub, g.DCC0, true, dst)

	case engine.OpNAND, engine.OpNOR:
		f := and
		if op == engine.OpNOR {
			f = or
		}
		if err := f(a, b, g.DCC0); err != nil {
			return err
		}
		return copyRow(sub, g.DCC0, true, dst)

	case engine.OpXOR, engine.OpXNOR:
		// a·¬b into T3, ¬a·b into the triple, then OR them.
		if err := copyRow(sub, b, false, g.DCC0); err != nil {
			return err
		}
		if err := copyRow(sub, a, false, g.T0); err != nil {
			return err
		}
		if err := copyRow(sub, g.DCC0, true, g.T1); err != nil {
			return err
		}
		if err := copyRow(sub, g.C0, false, g.T2); err != nil {
			return err
		}
		if err := traInto(sub, g.T0, g.T1, g.T2, g.T3); err != nil { // T3 = a·¬b
			return err
		}
		if err := copyRow(sub, a, false, g.DCC0); err != nil {
			return err
		}
		if err := copyRow(sub, g.DCC0, true, g.T0); err != nil {
			return err
		}
		if err := copyRow(sub, b, false, g.T1); err != nil {
			return err
		}
		if err := copyRow(sub, g.C0, false, g.T2); err != nil {
			return err
		}
		if err := traInto(sub, g.T0, g.T1, g.T2, -1); err != nil { // triple = ¬a·b
			return err
		}
		if err := copyRow(sub, g.T3, false, g.T1); err != nil {
			return err
		}
		if err := copyRow(sub, g.C1, false, g.T2); err != nil {
			return err
		}
		if op == engine.OpXOR {
			return traInto(sub, g.T0, g.T1, g.T2, dst)
		}
		if err := traInto(sub, g.T0, g.T1, g.T2, g.DCC1); err != nil {
			return err
		}
		return copyRow(sub, g.DCC1, true, dst)

	default:
		return fmt.Errorf("ambit: unknown op %v", op)
	}
}
