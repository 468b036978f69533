package tablescan

import (
	"errors"
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/primitive"
	"repro/internal/timing"
)

// CmpOp is a BitWeaving comparison operator against the workload constant.
type CmpOp int

// The full BitWeaving predicate set.
const (
	CmpLT CmpOp = iota
	CmpLE
	CmpGT
	CmpGE
	CmpEQ
	CmpNE
)

// String returns the SQL-ish operator.
func (o CmpOp) String() string {
	switch o {
	case CmpLT:
		return "<"
	case CmpLE:
		return "<="
	case CmpGT:
		return ">"
	case CmpGE:
		return ">="
	case CmpEQ:
		return "="
	case CmpNE:
		return "<>"
	default:
		return fmt.Sprintf("CmpOp(%d)", int(o))
	}
}

// needsLT/needsGT report which accumulators the operator requires beyond
// the equality chain.
func (o CmpOp) needsLT() bool { return o == CmpLT || o == CmpLE }
func (o CmpOp) needsGT() bool { return o == CmpGT || o == CmpGE }

// GoldenCompare returns the host-computed match vector for `v op Constant`.
func (w Workload) GoldenCompare(values []uint64, op CmpOp) *bitvec.Vector {
	mask := uint64(1)<<uint(w.Width) - 1
	cons := w.Constant & mask
	out := bitvec.New(len(values))
	for j, v := range values {
		v &= mask
		var match bool
		switch op {
		case CmpLT:
			match = v < cons
		case CmpLE:
			match = v <= cons
		case CmpGT:
			match = v > cons
		case CmpGE:
			match = v >= cons
		case CmpEQ:
			match = v == cons
		case CmpNE:
			match = v != cons
		}
		if match {
			out.SetBit(j, true)
		}
	}
	return out
}

// compareSeq builds the per-stripe command sequence of the bit-serial
// comparison: the equality chain always advances; the lt accumulator
// updates only on the constant's one-bits, the gt accumulator only on its
// zero-bits.
func compareSeq(w Workload, op CmpOp, d engine.Engine) (primitive.Seq, error) {
	andChain, err := d.ChainSeq(engine.OpAND)
	if err != nil {
		return nil, fmt.Errorf("tablescan: %w", err)
	}
	orChain, err := d.ChainSeq(engine.OpOR)
	if err != nil {
		return nil, fmt.Errorf("tablescan: %w", err)
	}
	notAndChain, err := d.NotChainSeq(engine.OpAND)
	if err != nil {
		return nil, fmt.Errorf("tablescan: %w", err)
	}

	var seq primitive.Seq
	for i := w.Width - 1; i >= 0; i-- {
		one := w.ConstBit(i)
		switch {
		case one && op.needsLT():
			// t = NOT a_i; t &= eq; lt |= t; eq &= a_i
			seq = append(seq, d.Seq(engine.OpNOT)...)
			seq = append(seq, andChain...)
			seq = append(seq, orChain...)
			seq = append(seq, andChain...)
		case !one && op.needsGT():
			// t = a_i AND eq; gt |= t; eq &= NOT a_i
			seq = append(seq, d.Seq(engine.OpAND)...)
			seq = append(seq, orChain...)
			seq = append(seq, notAndChain...)
		case one:
			// equality chain only: eq &= a_i
			seq = append(seq, andChain...)
		default:
			// equality chain only: eq &= NOT a_i
			seq = append(seq, notAndChain...)
		}
	}
	// Epilogue: LE/GE OR the equality in; NE complements it.
	switch op {
	case CmpLE, CmpGE:
		seq = append(seq, orChain...)
	case CmpNE:
		seq = append(seq, d.Seq(engine.OpNOT)...)
	}
	return seq, nil
}

// RunCompare evaluates an arbitrary comparison scan on a PIM design under
// the power constraint. CmpLT reproduces the Figure 14 configuration.
func RunCompare(w Workload, op CmpOp, d engine.Engine, mod dram.Config, tp timing.Params, m cpu.Model) (Result, error) {
	if err := w.Validate(); err != nil {
		return Result{}, err
	}
	if err := mod.Validate(); err != nil {
		return Result{}, err
	}
	if err := m.Validate(); err != nil {
		return Result{}, err
	}
	seq, err := compareSeq(w, op, d)
	if err != nil {
		return Result{}, err
	}
	return runWithSeq(w, d, seq, mod, tp, m)
}

// RunBetween evaluates `lo <= col <= hi` as two comparison scans plus one
// AND of the match vectors — the BitWeaving range predicate.
func RunBetween(w Workload, lo, hi uint64, d engine.Engine, mod dram.Config, tp timing.Params, m cpu.Model) (Result, error) {
	if err := w.Validate(); err != nil {
		return Result{}, err
	}
	mask := uint64(1)<<uint(w.Width) - 1
	if lo&mask > hi&mask {
		return Result{}, fmt.Errorf("tablescan: empty range [%d,%d]", lo&mask, hi&mask)
	}
	wLo := w
	wLo.Constant = lo
	seqLo, err := compareSeq(wLo, CmpGE, d)
	if err != nil {
		return Result{}, err
	}
	wHi := w
	wHi.Constant = hi
	seqHi, err := compareSeq(wHi, CmpLE, d)
	if err != nil {
		return Result{}, err
	}
	andChain, err := d.ChainSeq(engine.OpAND)
	if err != nil {
		return Result{}, err
	}
	seq := append(append(seqLo, seqHi...), andChain...)
	return runWithSeq(w, d, seq, mod, tp, m)
}

// ExecuteBetween runs the range predicate functionally: the two bounds'
// match vectors are computed in turn and ANDed into rows.LT. rows.T3 holds
// the first bound's matches between the passes.
func ExecuteBetween(sub *dram.Subarray, ex engine.Executor, w Workload, lo, hi uint64, rows PredicateRows, t3 int) error {
	mask := uint64(1)<<uint(w.Width) - 1
	if lo&mask > hi&mask {
		return fmt.Errorf("tablescan: empty range [%d,%d]", lo&mask, hi&mask)
	}
	wLo := w
	wLo.Constant = lo
	if err := ExecuteCompare(sub, ex, wLo, CmpGE, rows); err != nil {
		return err
	}
	if err := ex.Execute(sub, engine.OpCOPY, t3, rows.LT, -1); err != nil {
		return err
	}
	wHi := w
	wHi.Constant = hi
	if err := ExecuteCompare(sub, ex, wHi, CmpLE, rows); err != nil {
		return err
	}
	return ex.Execute(sub, engine.OpAND, rows.LT, t3, rows.LT)
}

// ExecuteCompare runs the bit-serial comparison functionally on a
// subarray through an engine. rows.LT receives the final match vector for
// every operator (reusing the LT slot as the result row).
func ExecuteCompare(sub *dram.Subarray, ex engine.Executor, w Workload, op CmpOp, rows PredicateRows) error {
	if err := w.Validate(); err != nil {
		return err
	}
	if len(rows.Bits) != w.Width {
		return fmt.Errorf("tablescan: %d bit rows for width %d", len(rows.Bits), w.Width)
	}
	n := sub.Columns()
	if n <= 0 {
		return errors.New("tablescan: empty subarray")
	}
	acc := bitvec.New(n) // lt or gt accumulator, as needed
	eq := bitvec.New(n)
	eq.Fill(true)
	sub.LoadRow(rows.LT, acc)
	sub.LoadRow(rows.EQ, eq)

	for i := w.Width - 1; i >= 0; i-- {
		bitRow := rows.Bits[i]
		one := w.ConstBit(i)
		switch {
		case one && op.needsLT():
			if err := ex.Execute(sub, engine.OpNOT, rows.T1, bitRow, -1); err != nil {
				return err
			}
			if err := ex.Execute(sub, engine.OpAND, rows.T2, rows.EQ, rows.T1); err != nil {
				return err
			}
			if err := ex.Execute(sub, engine.OpOR, rows.LT, rows.T2, rows.LT); err != nil {
				return err
			}
			if err := ex.Execute(sub, engine.OpAND, rows.EQ, bitRow, rows.EQ); err != nil {
				return err
			}
		case !one && op.needsGT():
			if err := ex.Execute(sub, engine.OpAND, rows.T2, bitRow, rows.EQ); err != nil {
				return err
			}
			if err := ex.Execute(sub, engine.OpOR, rows.LT, rows.T2, rows.LT); err != nil {
				return err
			}
			if err := ex.Execute(sub, engine.OpNOT, rows.T1, bitRow, -1); err != nil {
				return err
			}
			if err := ex.Execute(sub, engine.OpAND, rows.EQ, rows.T1, rows.EQ); err != nil {
				return err
			}
		case one:
			if err := ex.Execute(sub, engine.OpAND, rows.EQ, bitRow, rows.EQ); err != nil {
				return err
			}
		default:
			if err := ex.Execute(sub, engine.OpNOT, rows.T1, bitRow, -1); err != nil {
				return err
			}
			if err := ex.Execute(sub, engine.OpAND, rows.EQ, rows.T1, rows.EQ); err != nil {
				return err
			}
		}
	}
	switch op {
	case CmpLE, CmpGE:
		return ex.Execute(sub, engine.OpOR, rows.LT, rows.EQ, rows.LT)
	case CmpEQ:
		return ex.Execute(sub, engine.OpCOPY, rows.LT, rows.EQ, -1)
	case CmpNE:
		return ex.Execute(sub, engine.OpNOT, rows.LT, rows.EQ, -1)
	}
	return nil
}
