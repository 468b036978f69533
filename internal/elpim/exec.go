package elpim

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/primitive"
)

// run interprets q on sub with slots A, B and C bound to rows a, b and c
// and R0 (R1) to the subarray's first (second) dual-contact row when the
// engine reserves it. A negative row leaves its slot unbound.
func (e *Engine) run(sub *dram.Subarray, q primitive.Seq, a, b, c int) error {
	rows := [numSlots]int{SlotA: a, SlotB: b, SlotC: c, SlotR0: -1, SlotR1: -1}
	for i := 0; i < e.cfg.ReservedRows; i++ {
		rows[SlotR0+i] = sub.DCCRow(i)
	}
	return q.Run(sub, rows[:])
}

// Execute implements engine.Engine: dst = op(a, b) on one subarray.
// For unary ops b is ignored. The two-buffer XOR/XNOR sequences consume
// operand a's row (documented in Compile); all other sequences preserve
// both operands. XOR and XNOR read their operands twice around an
// intermediate write to dst, so dst must not alias an operand.
func (e *Engine) Execute(sub *dram.Subarray, op engine.Op, dst, a, b int) error {
	if (op == engine.OpXOR || op == engine.OpXNOR) && (dst == a || dst == b) {
		return fmt.Errorf("elpim: %v destination must not alias an operand (dst=%d a=%d b=%d)", op, dst, a, b)
	}
	start := e.obs.Start()
	err := e.run(sub, e.Compile(op), a, b, dst)
	e.obs.Record(op, e.OpStats(op), start, err)
	return err
}

// ExecuteNotChain performs the complement fold functionally: row b becomes
// op(¬a, b), with the complement read through the dual-contact row.
func (e *Engine) ExecuteNotChain(sub *dram.Subarray, op engine.Op, a, b int) error {
	q, err := e.NotChainSeq(op)
	if err != nil {
		return err
	}
	return e.run(sub, q, a, b, -1)
}

// ExecuteInPlace performs the Figure 5(a) in-place form: row b becomes
// op(a, b). It records the fold at ChainStats' price.
func (e *Engine) ExecuteInPlace(sub *dram.Subarray, op engine.Op, a, b int) error {
	q, err := e.InPlaceSeq(op)
	if err != nil {
		return err
	}
	start := e.obs.Start()
	err = e.run(sub, q, a, b, -1)
	e.obs.Record(op, engine.SeqStats(q, e.cfg.Timing, e.cfg.Power), start, err)
	return err
}
