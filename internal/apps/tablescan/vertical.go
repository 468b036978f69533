package tablescan

import (
	"errors"
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/dram"
	"repro/internal/engine"
)

// Verticalize converts a column of k-bit codes into the BitWeaving layout:
// one bit-vector per bit position, bit j of vector i holding bit i of
// value j.
func Verticalize(values []uint64, width int) []*bitvec.Vector {
	out := make([]*bitvec.Vector, width)
	for i := range out {
		out[i] = bitvec.New(len(values))
	}
	for j, v := range values {
		for i := 0; i < width; i++ {
			if v>>uint(i)&1 == 1 {
				out[i].SetBit(j, true)
			}
		}
	}
	return out
}

// GoldenPredicate returns the host-computed match vector for v < Constant.
func (w Workload) GoldenPredicate(values []uint64) *bitvec.Vector {
	mask := uint64(1)<<uint(w.Width) - 1
	out := bitvec.New(len(values))
	for j, v := range values {
		if v&mask < w.Constant&mask {
			out.SetBit(j, true)
		}
	}
	return out
}

// PredicateRows names the subarray rows the functional predicate uses.
type PredicateRows struct {
	// Bits[i] is the row holding bit position i of the column.
	Bits []int
	// LT and EQ are the accumulator rows; LT holds the result.
	LT, EQ int
	// T1, T2 are scratch rows.
	T1, T2 int
}

// ExecutePredicate runs the bit-serial LESS-THAN functionally on a
// subarray through an engine: the in-DRAM dataflow of the Figure 14
// workload at device fidelity. The accumulators are initialized through
// the host path (data preparation); every logic step runs in-array.
func ExecutePredicate(sub *dram.Subarray, ex engine.Executor, w Workload, rows PredicateRows) error {
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
	lt := bitvec.New(n)
	eq := bitvec.New(n)
	eq.Fill(true)
	sub.LoadRow(rows.LT, lt)
	sub.LoadRow(rows.EQ, eq)

	for i := w.Width - 1; i >= 0; i-- {
		bitRow := rows.Bits[i]
		if err := ex.Execute(sub, engine.OpNOT, rows.T1, bitRow, -1); err != nil {
			return err
		}
		if w.ConstBit(i) {
			if err := ex.Execute(sub, engine.OpAND, rows.T2, rows.EQ, rows.T1); err != nil {
				return err
			}
			if err := ex.Execute(sub, engine.OpOR, rows.LT, rows.T2, rows.LT); err != nil {
				return err
			}
			if err := ex.Execute(sub, engine.OpAND, rows.EQ, bitRow, rows.EQ); err != nil {
				return err
			}
		} else {
			if err := ex.Execute(sub, engine.OpAND, rows.EQ, rows.T1, rows.EQ); err != nil {
				return err
			}
		}
	}
	return nil
}
